/**
 * @file
 * bitspec_perfbench: one process of the layered benchmark. run.py
 * starts it afresh for every measurement and reads the one JSON line
 * it prints on stdout.
 *
 *   bitspec_perfbench e2e --workload W --seed S --jobs J
 *       Run the matrix through ExperimentRunner::run. At one job every
 *       cell is its own runner call, timed around the call; at more
 *       jobs the whole matrix is one call. Reports wall time, per-cell
 *       latencies, at one job a HostProbe slice timed after each cell,
 *       the monotonic time of the first submission (run.py
 *       subtracts its spawn time to get set-up time), peak RSS, runner
 *       counters, the per-cell check failures and the simulated-state
 *       digest.
 *
 *   bitspec_perfbench traced --workload W --seed S
 *       Run the matrix through the runner at one job, then through the
 *       stage-by-stage Replica; require identical RunResults on every
 *       cell and report the per-layer metrics.
 *
 *   bitspec_perfbench selftest
 *       Replica == System for CRC32 under baseline and bitspec.
 *
 *   bitspec_perfbench names
 *       The per-layer metric names and units, for the tests.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "host_probe.h"
#include "matrix.h"
#include "replica.h"
#include "result_fields.h"
#include "support/str.h"
#include "workloads/workload.h"

using namespace bitspec;
using namespace bitspec::perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string mode;
    std::string workload;
    uint64_t seed = 0;
    unsigned jobs = 1;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bitspec_perfbench e2e --workload W --seed S "
                 "--jobs J\n"
                 "       bitspec_perfbench traced --workload W --seed S\n"
                 "       bitspec_perfbench selftest\n"
                 "       bitspec_perfbench names\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--jobs")
            a.jobs = static_cast<unsigned>(std::stoul(v));
        else
            usage();
    }
    if ((a.mode == "e2e" || a.mode == "traced") && a.workload.empty())
        usage();
    if (a.jobs == 0)
        usage();
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += strFormat("\\u%04x", c);
        else
            out += c;
    }
    return out + "\"";
}

/** The first @p limit failure messages as a JSON array. */
std::string
jsonMessages(const CellFailures &failures, size_t limit)
{
    std::string out = "[";
    size_t n = 0;
    for (auto it = failures.begin(); it != failures.end() && n < limit;
         ++it, ++n)
        out += (n ? "," : "") + jsonString(it->second);
    return out + "]";
}

std::string
jsonNumbers(const std::vector<double> &xs)
{
    std::string out = "[";
    for (size_t i = 0; i < xs.size(); ++i)
        out += strFormat(i ? ",%.6f" : "%.6f", xs[i]);
    return out + "]";
}

std::string
metricsJson(const std::vector<LayerMetric> &metrics)
{
    std::string out = "[";
    for (size_t i = 0; i < metrics.size(); ++i)
        out += strFormat("%s{\"name\":%s,\"value\":%.17g,\"unit\":%s}",
                         i ? "," : "",
                         jsonString(metrics[i].name).c_str(),
                         metrics[i].value,
                         jsonString(metrics[i].unit).c_str());
    return out + "]";
}

std::string
digestOf(const std::vector<RunResult> &results)
{
    Hash128Builder h;
    digestResults(h, results);
    return h.digest().hex();
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** Replica vs System path, cell by cell. */
CellFailures
replicaMismatches(const std::vector<ExperimentCell> &cells,
                  const std::vector<RunResult> &system,
                  const std::vector<RunResult> &replica)
{
    CellFailures out;
    for (size_t i = 0; i < cells.size(); ++i)
        if (auto d = firstDifference(system[i], replica[i]))
            out.emplace(i, cellLabel(cells[i]) +
                               ": replica differs from System at " + *d);
    return out;
}

int
runE2e(const Args &a)
{
    // Set-up: suite generation (inside buildMatrix) and the pool.
    const std::vector<ExperimentCell> cells =
        buildMatrix(a.workload, a.seed);
    ExperimentRunner runner(a.jobs);

    const Clock::time_point t0 = Clock::now();
    const long long first_submit_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t0.time_since_epoch())
            .count();
    std::vector<RunResult> results;
    std::vector<double> cell_ms;
    std::vector<double> probe_ms;
    double probe_sec = 0;
    HostProbe probe;
    if (a.jobs == 1) {
        results.reserve(cells.size());
        for (const ExperimentCell &c : cells) {
            const Clock::time_point c0 = Clock::now();
            results.push_back(runner.run({c}).front());
            cell_ms.push_back(secondsSince(c0) * 1e3);
            const double p = probe.slice();
            probe_ms.push_back(p * 1e3);
            probe_sec += p;
        }
    } else {
        results = runner.run(cells);
    }
    const double wall = secondsSince(t0) - probe_sec;
    const double rss = peakRssMiB();
    const ExperimentStats st = runner.stats();

    const CellFailures failures = checkCells(cells, results);
    std::printf(
        "{\"mode\":\"e2e\",\"workload\":%s,\"jobs\":%u,\"cells\":%zu,"
        "\"first_submit_ns\":%lld,\"wall_s\":%.9f,\"cell_ms\":%s,"
        "\"probe_ms\":%s,\"probe_sink\":%llu,"
        "\"peak_rss_mb\":%.3f,\"systems_built\":%llu,"
        "\"cache_hits\":%llu,\"inflight_waits\":%llu,"
        "\"fig8_mean_energy_ratio\":%.17g,\"digest\":%s,"
        "\"failed\":%zu,\"failures\":%s}\n",
        jsonString(a.workload).c_str(), a.jobs, cells.size(),
        first_submit_ns, wall, jsonNumbers(cell_ms).c_str(),
        jsonNumbers(probe_ms).c_str(),
        static_cast<unsigned long long>(probe.sink()), rss,
        static_cast<unsigned long long>(st.systemsBuilt),
        static_cast<unsigned long long>(st.cacheHits),
        static_cast<unsigned long long>(st.inflightWaits),
        fig8MeanEnergyRatio(cells, results),
        jsonString(digestOf(results)).c_str(), failures.size(),
        jsonMessages(failures, 5).c_str());
    return 0;
}

int
runTraced(const Args &a)
{
    const std::vector<ExperimentCell> cells =
        buildMatrix(a.workload, a.seed);

    std::vector<RunResult> system;
    double system_wall = 0;
    {
        // Dropped before the replica runs, so the two never hold
        // their Systems at the same time.
        ExperimentRunner runner(1);
        const Clock::time_point t0 = Clock::now();
        system = runner.run(cells);
        system_wall = secondsSince(t0);
    }

    Replica replica;
    const std::vector<RunResult> replicated = replica.run(cells);

    // A cell that fails both checks counts once, under its
    // replica mismatch.
    CellFailures failures = replicaMismatches(cells, system, replicated);
    const size_t mismatches = failures.size();
    failures.merge(checkCells(cells, system));

    LayerProfile profile = replica.profile();
    profile.untracedWallSec = system_wall;
    const std::string layers = metricsJson(layerMetrics(profile));
    std::printf("{\"mode\":\"traced\",\"workload\":%s,\"cells\":%zu,"
                "\"digest\":%s,\"replica_mismatches\":%zu,"
                "\"failed\":%zu,\"failures\":%s,\"layers\":%s}\n",
                jsonString(a.workload).c_str(), cells.size(),
                jsonString(digestOf(system)).c_str(), mismatches,
                failures.size(), jsonMessages(failures, 5).c_str(),
                layers.c_str());
    return 0;
}

int
runSelftest()
{
    const Workload &w = getWorkload("CRC32");
    const std::vector<ExperimentCell> cells = {
        ExperimentCell(&w, SystemConfig::baseline()),
        ExperimentCell(&w, SystemConfig::bitspec(Heuristic::Max)),
        ExperimentCell(&w, SystemConfig::bitspec(Heuristic::Min)),
    };
    ExperimentRunner runner(1);
    const std::vector<RunResult> system = runner.run(cells);
    Replica replica;
    const std::vector<RunResult> replicated = replica.run(cells);

    int bad = 0;
    CellFailures failures = replicaMismatches(cells, system, replicated);
    failures.merge(checkCells(cells, system));
    for (const auto &[cell, msg] : failures) {
        std::printf("FAIL %s\n", msg.c_str());
        ++bad;
    }
    // The guard must notice a one-field change and name it.
    RunResult tweaked = system[1];
    tweaked.counters.cycles += 1;
    const auto d = firstDifference(system[1], tweaked);
    if (!d || d->rfind("counters.cycles:", 0) != 0) {
        std::printf("FAIL firstDifference missed counters.cycles\n");
        ++bad;
    }
    if (bad == 0)
        std::printf("selftest ok: replica == System on %zu CRC32 "
                    "cells\n",
                    cells.size());
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        if (a.mode == "e2e")
            return runE2e(a);
        if (a.mode == "traced")
            return runTraced(a);
        if (a.mode == "selftest")
            return runSelftest();
        if (a.mode == "names") {
            std::printf("%s\n",
                        metricsJson(layerMetrics(LayerProfile{})).c_str());
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bitspec_perfbench: %s\n", e.what());
        return 2;
    }
    usage();
}
