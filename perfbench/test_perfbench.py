#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/test_perfbench.py

Covers: metric names and units (BENCHMARK.json against what run.py and
bitspec_perfbench emit), the tail-percentile rule, the fastest-cell and
host-speed estimators, the build-flavour
guard, replica == System for CRC32 under baseline and bitspec, and
refusal to run without the library sources. Builds bitspec_perfbench
into .bench_build/ first.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(*argv):
    return subprocess.run([run.BINARY] + list(argv), env=run.clean_env(),
                          capture_output=True, text=True, timeout=120)


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        spec = benchmark_json()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)

    def test_workloads_are_run_py_workloads(self):
        spec = benchmark_json()
        names = [w["name"] for w in spec["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOADS))
        self.assertGreaterEqual(len(names), 2)

    def test_end_to_end_matches_run_py(self):
        spec = benchmark_json()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         setup[0]["bound"])

    def test_per_layer_matches_emitted_metrics(self):
        out = perfbench("names")
        self.assertEqual(out.returncode, 0, out.stderr)
        emitted = {m["name"]: m["unit"] for m in json.loads(out.stdout)}
        emitted.update(run.RUNNER_UNITS)
        spec = benchmark_json()
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         emitted)


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_step_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(70), 75.0)    # 17 beyond
        self.assertEqual(run.tail_percentile(108), 90.0)   # 10 beyond
        self.assertEqual(run.tail_percentile(100), 90.0)   # 10 beyond
        self.assertEqual(run.tail_percentile(199), 90.0)   # p95: 9
        self.assertEqual(run.tail_percentile(200), 95.0)   # p95: 10
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_nearest_rank_leaves_the_counted_samples_beyond(self):
        xs = list(range(1, 71))
        p = run.tail_percentile(len(xs))
        v = run.nearest_rank(xs, p)
        self.assertEqual(v, 53)
        self.assertEqual(sum(1 for x in xs if x > v), 17)
        self.assertEqual(run.nearest_rank(xs, 50.0), 35)
        self.assertEqual(run.nearest_rank([7.0], 99.9), 7.0)


class Estimators(unittest.TestCase):
    @staticmethod
    def process(cell_ms, probe_ms, wall_s=1.0):
        return {"cell_ms": cell_ms, "probe_ms": probe_ms,
                "wall_s": wall_s, "spawn_ns": 0,
                "first_submit_ns": 2000000, "peak_rss_mb": 100.0}

    def test_each_cell_takes_its_fastest_repetition(self):
        serial = [self.process([5.0, 1.0], [0.2]),
                  self.process([2.0, 9.0], [0.2])]
        self.assertEqual(run.best_cells(serial), [2.0, 1.0])

    def test_one_job_times_scale_by_host_speed(self):
        cells = [float(i) for i in range(1, 21)]
        nominal = run.PROBE_NOMINAL_MS
        # The probe ran at half speed: halve the one-job times.
        slow = [self.process(cells, [2 * nominal] * 20)]
        par = [self.process([], [], wall_s=w) for w in (0.9, 0.7, 0.8)]
        values, raw = run.e2e_metrics(slow, par)
        self.assertAlmostEqual(raw["speed"], 0.5)
        self.assertAlmostEqual(raw["wall_s"], 0.21)
        self.assertAlmostEqual(values["wall_s"], 0.105)
        self.assertAlmostEqual(values["cell_p50_ms"], 5.0)
        self.assertAlmostEqual(values["cell_tail_ms"], 5.0)
        # wall_par_s is the fastest parallel process, not scaled.
        self.assertEqual(values["wall_par_s"], 0.7)
        self.assertAlmostEqual(values["setup_s"], 0.002)


class Flavour(unittest.TestCase):
    def flavour_of(self, *flags):
        os.makedirs(run.BUILD_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=run.BUILD_ROOT)
        try:
            src = os.path.join(tmp, "src") + os.sep
            commands = [
                {"file": src + "a.cc", "directory": tmp,
                 "command": "c++ %s -c a.cc" % " ".join(flags)},
                {"file": os.path.join(tmp, "perfbench", "main.cc"),
                 "directory": tmp, "command": "c++ -O0 -c main.cc"},
            ]
            path = os.path.join(tmp, "compile_commands.json")
            with open(path, "w") as f:
                json.dump(commands, f)
            return run.flavour(path, src)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_release_flags_are_measured(self):
        flav = self.flavour_of("-O2", "-g", "-DNDEBUG")
        self.assertEqual(flav, {"opt": "-O2", "ndebug": True,
                                "sanitize": None})
        self.assertIsNone(run.refusal(flav))

    def test_unoptimized_and_sanitized_builds_are_refused(self):
        self.assertIsNotNone(run.refusal(self.flavour_of("-g")))
        self.assertIsNotNone(run.refusal(self.flavour_of("-O2", "-O0")))
        self.assertIsNotNone(run.refusal(
            self.flavour_of("-O2", "-fsanitize=address")))

    def test_the_real_build_is_measurable(self):
        self.assertIsNone(run.refusal(run.flavour()))


class Replica(unittest.TestCase):
    def test_replica_equals_system_on_crc32(self):
        out = perfbench("selftest")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("selftest ok", out.stdout)


class Hermetic(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        os.makedirs(run.BUILD_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=run.BUILD_ROOT)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "suite-compile", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_clean_env_drops_bitspec_knobs(self):
        os.environ["BITSPEC_TRACE"] = "1"
        try:
            self.assertNotIn("BITSPEC_TRACE", run.clean_env())
        finally:
            del os.environ["BITSPEC_TRACE"]


if __name__ == "__main__":
    run.build()
    unittest.main()
