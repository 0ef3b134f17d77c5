#!/usr/bin/env python3
"""Layered BitSpec benchmark: build, run hermetically, report.

Builds perfbench/ (and the library sources in src/) into .bench_build/,
then measures one workload for about --seconds seconds. Every
measurement is a fresh bitspec_perfbench process in a fresh working
directory with every BITSPEC_* variable cleared. One repetition is

  * an e2e process at 1 job (wall_s, per-cell latency, peak RSS),
  * e2e processes at min(nproc, 4) jobs (wall_par_s), as many as fit
    in half the time of the one-job process, at least one,
  * with --trace 1, a traced process (per-layer metrics).

Repetitions continue while the next one should end within --seconds,
at least MIN_REPS times. Times come from the fastest repetition (per
cell at one job; see best_cells), and the one-job times are scaled to
a nominal host speed (see host_speed); set-up time and counts are
medians. Info lines go to stdout first; the last stdout line is the
JSON result. Exit status is 0 only when every cell passed its checks
and every digest agreed.

  python3 perfbench/run.py --workload suite-compile --seed 0 \
      --seconds 50 --trace 0
"""

import argparse
import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "bitspec_perfbench")
DIGESTS = os.path.join(BUILD_ROOT, "digests.json")

WORKLOADS = ("suite-compile", "cross-input", "misspec-slowpath")
MIN_REPS = 3
MAX_JOBS = 4
# The HostProbe slice time that defines nominal host speed, close to
# what a slice takes on a 4-CPU Xeon VM. One-job times are reported at
# that speed; the constant only scales them.
PROBE_NOMINAL_MS = 0.2
# A run must end within 180 s: stop starting repetitions after
# RUN_BUDGET_S, and kill any process still running at PROCESS_DEADLINE_S.
RUN_BUDGET_S = 150.0
PROCESS_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

E2E_UNITS = {
    "wall_s": "s",
    "wall_par_s": "s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Per-layer metrics taken from the e2e processes; the rest come from
# the traced process (bitspec_perfbench names lists them).
RUNNER_UNITS = {
    "runner.systems_built": "count",
    "runner.cache_hits": "count",
    "runner.inflight_waits": "count",
    "runner.par_efficiency": "ratio",
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def rank(p, n):
    """1-based nearest rank of the p-th percentile of n samples (the
    rounding keeps 99.9% of 10000 at exactly 9990)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def nearest_rank(sorted_xs, p):
    """The p-th percentile by the nearest-rank rule."""
    return sorted_xs[rank(p, len(sorted_xs)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples strictly beyond its nearest-rank sample, or None."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def clean_env():
    """The caller's environment minus every BITSPEC_* knob: TRACE
    forces the slow path, ARTIFACT_DIR turns builds into restores,
    CORE_ENGINE/VERIFY_EACH/LEDGER change the measured code."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BITSPEC_")}
    # Keep git, the compiler and the measured processes inside the
    # checkout: no git lookups above it, no temporary files outside it.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources: %s/src is missing" % ROOT)
    env = clean_env()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, env=env, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "bitspec_perfbench", "-j", str(nproc())],
                   check=True, env=env, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def flavour(path=os.path.join(BUILD_DIR, "compile_commands.json"),
            src=os.path.join(ROOT, "src") + os.sep):
    """-O level, NDEBUG and sanitizer of the library sources under
    @src, read from the compile commands the build actually used."""
    with open(path) as f:
        commands = json.load(f)
    seen = set()
    for entry in commands:
        if not os.path.abspath(entry["file"]).startswith(src):
            continue
        args = entry.get("arguments") or shlex.split(entry["command"])
        opt = None
        ndebug = False
        sanitize = None
        for a in args:
            if a.startswith("-O"):
                opt = a
            elif a == "-DNDEBUG":
                ndebug = True
            elif a.startswith("-fsanitize="):
                sanitize = a.split("=", 1)[1]
        seen.add((opt, ndebug, sanitize))
    if len(seen) != 1:
        raise BenchError("library sources built with mixed flags: %s"
                         % sorted(seen, key=str))
    opt, ndebug, sanitize = seen.pop()
    return {"opt": opt or "-O0", "ndebug": ndebug, "sanitize": sanitize}


def refusal(flav):
    """Why end-to-end numbers from this flavour must not be reported,
    or None."""
    if flav["opt"] == "-O0":
        return "refusing to measure an -O0 build"
    if flav["sanitize"]:
        return "refusing to measure a -fsanitize=%s build" % (
            flav["sanitize"])
    return None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         env=clean_env(), capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


class Runner:
    """Starts each bitspec_perfbench process hermetically."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.count = 0

    def spawn(self, *argv):
        self.count += 1
        cwd = os.path.join(BUILD_ROOT, "runs",
                           "%d-%d" % (os.getpid(), self.count))
        shutil.rmtree(cwd, ignore_errors=True)
        os.makedirs(cwd)
        timeout = max(5.0, self.deadline - time.monotonic())
        try:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.run([BINARY] + list(argv), cwd=cwd,
                                  env=clean_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("%s timed out" % " ".join(argv))
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError("%s exited %d: %s" % (
                " ".join(argv), proc.returncode, proc.stderr.strip()))
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("%s printed no result" % " ".join(argv))
        out = json.loads(lines[-1])
        out["spawn_ns"] = spawn_ns
        return out


def check_digest_history(workload, seed, digest):
    """A digest must not change between runs of one build."""
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = "%s/%s/%d" % (build_id, workload, seed)
    try:
        with open(DIGESTS) as f:
            history = json.load(f)
    except (OSError, ValueError):
        history = {}
    previous = history.get(key)
    if previous is None:
        history[key] = digest
        tmp = DIGESTS + ".%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(history, f, indent=1, sort_keys=True)
        os.replace(tmp, DIGESTS)
        return None
    return previous if previous != digest else None


def best_cells(serial):
    """Each cell's latency: its fastest repetition. Contention from
    other tenants of the host only ever adds time, and much of it comes
    and goes within seconds, so each cell meets a quieter moment in
    some repetition; a median would keep the contention."""
    n = len(serial[0]["cell_ms"])
    return [min(r["cell_ms"][i] for r in serial) for i in range(n)]


def host_speed(serial):
    """How fast the host ran while the one-job processes measured:
    PROBE_NOMINAL_MS over the median HostProbe slice, which each of
    them timed after every cell. Below 1 on a loaded host."""
    probes = [x for r in serial for x in r["probe_ms"]]
    return PROBE_NOMINAL_MS / median(probes)


def e2e_metrics(serial, parallel):
    """The end-to-end values, and the raw figures behind them."""
    cells = best_cells(serial)
    n = len(cells)
    tail_p = tail_percentile(n)
    if tail_p is None:
        raise BenchError("%d cells are too few for a tail percentile" % n)
    speed = host_speed(serial)
    # At one job the cells run back to back, so the matrix's wall time
    # is the sum of its cells.
    raw_wall = sum(cells) / 1e3
    setups = [(r["first_submit_ns"] - r["spawn_ns"]) / 1e9
              for r in serial + parallel]
    values = {
        "wall_s": raw_wall * speed,
        "wall_par_s": min(r["wall_s"] for r in parallel),
        "cell_p50_ms": nearest_rank(sorted(cells), 50.0) * speed,
        "cell_tail_ms": nearest_rank(sorted(cells), tail_p) * speed,
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in serial]),
    }
    raw = {"wall_s": raw_wall, "speed": speed, "tail_p": tail_p,
           "cells": n}
    return values, raw


def layer_metrics(serial, parallel, traced, jobs, wall_s, wall_par_s):
    units = {}
    samples = {}
    for t in traced:
        for m in t["layers"]:
            units[m["name"]] = m["unit"]
            samples.setdefault(m["name"], []).append(m["value"])
    out = {name: {"value": median(v), "unit": units[name]}
           for name, v in samples.items()}

    runner = {
        "runner.systems_built":
            median([r["systems_built"] for r in serial]),
        "runner.cache_hits": median([r["cache_hits"] for r in serial]),
        "runner.inflight_waits":
            median([r["inflight_waits"] for r in parallel]),
        "runner.par_efficiency": wall_s / (jobs * wall_par_s),
    }
    for name, value in runner.items():
        out[name] = {"value": value, "unit": RUNNER_UNITS[name]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    flav = flavour()
    if refusal(flav):
        raise BenchError(refusal(flav))

    jobs = min(nproc(), MAX_JOBS)
    start = time.monotonic()
    runner = Runner(start + PROCESS_DEADLINE_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    serial, parallel, traced = [], [], []
    while True:
        rep0 = time.monotonic()
        serial.append(runner.spawn("e2e", *common, "--jobs", "1"))
        # A one-job process samples every cell, a parallel one only
        # wall_par_s: give the parallel ones half the one-job time.
        par0 = time.monotonic()
        while True:
            parallel.append(runner.spawn("e2e", *common, "--jobs",
                                         str(jobs)))
            if time.monotonic() - par0 >= (par0 - rep0) / 2:
                break
        if args.trace:
            traced.append(runner.spawn("traced", *common))
        # Start another repetition only if it should end in time.
        now = time.monotonic()
        if len(serial) >= MIN_REPS and (
                now - start + (now - rep0) > args.seconds or
                now - start + (now - rep0) > RUN_BUDGET_S):
            break

    processes = serial + parallel + traced
    attempted = sum(r["cells"] for r in processes)
    failed = sum(r["failed"] for r in processes)
    for r in processes:
        for msg in r["failures"]:
            log("FAILED %s" % msg)
    digests = sorted({r["digest"] for r in processes})
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        log("simulated-state digests disagree within one run: %s"
            % digests)
    else:
        previous = check_digest_history(args.workload, args.seed,
                                        digests[0])
        if previous:
            log("digest %s differs from %s recorded by an earlier run "
                "of this build" % (digests[0], previous))
            correct = False

    e2e, raw = e2e_metrics(serial, parallel)
    print("# perfbench %s seed=%d reps=%d jobs=%d nproc=%d git=%s "
          "flavour=%s%s" % (
              args.workload, args.seed, len(serial), jobs, nproc(),
              git_sha(), flav["opt"], " NDEBUG" if flav["ndebug"] else ""))
    print("# digest %s" % ",".join(digests))
    print("# cell_tail_ms is p%g of %d cells per matrix" % (
        raw["tail_p"], raw["cells"]))
    print("# host speed %.4f: one-job times are raw x speed; raw "
          "wall_s %.4f from best cells, %.4f median over repetitions; "
          "wall_par_s %.4f median" % (
              raw["speed"], raw["wall_s"],
              median(r["wall_s"] for r in serial),
              median(r["wall_s"] for r in parallel)))
    if args.workload == "suite-compile":
        print("# Fig. 8 mean energy ratio %.4f (paper 0.901; the energy "
              "model is not validated against hardware)"
              % serial[0]["fig8_mean_energy_ratio"])

    if args.trace:
        metrics = layer_metrics(serial, parallel, traced, jobs,
                                raw["wall_s"], e2e["wall_par_s"])
        mismatches = sum(t["replica_mismatches"] for t in traced)
        if mismatches:
            log("replica differs from System on %d cells" % mismatches)
            correct = False
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]}
                   for name, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
