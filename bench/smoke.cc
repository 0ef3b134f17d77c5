/**
 * @file
 * `bitspec-paper smoke [BENCH.json]`: the experiment-engine smoke and
 * the telemetry overhead gates bench_smoke records.
 *
 * Runs the Fig. 8 matrix and a trimmed Fig. 16 profile/run grid
 * twice — once serially with fresh (uncached) Systems, once through
 * an ExperimentRunner — verifies the results bit-identical and
 * records wall times, cell counts, System-cache hit rates and
 * simulation counts; squeezes four workloads with and without static
 * analysis (static lint); then measures two overhead gates, each
 * within 1%: interpreter throughput with tracing on against tracing
 * off, and a warm matrix with the run ledger attached against
 * detached, validating every record it wrote.
 * Both gates time a fixed number of interleaved off/on pairs and gate
 * the median of the pairs' time ratios (pairedMedian).
 *
 * Every number lands in one run-ledger record of kind `smoke`
 * (obs/ledger.h). The four series the perf history reads keep their
 * history names (speedup.fig08_matrix, speedup.fig16_grid_8x8,
 * rate.obs_disabled_ir_per_s, obs.trace_overhead_pct); the others are
 * `grid.<grid>.*`, `lint.<workload>.*`, `obs.*` and `ledger.*`, a
 * yes/no as 0 or 1. The record's JSON line is spliced into the
 * BENCH_micro.json written by micro_throughput at @p bench_json as its
 * `smoke` member; with no path it is measured and printed only.
 */

#include "smoke.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "obs/trajectory.h"
#include "support/json.h"
#include "support/log.h"
#include "support/stats.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

namespace bitspec
{

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct GridTiming
{
    std::string name;
    size_t cells = 0;
    uint64_t systemsBuilt = 0;
    uint64_t cacheHits = 0;
    uint64_t inflightWaits = 0;
    uint64_t simulations = 0;
    uint64_t simulationHits = 0;
    double serialSec = 0;
    double parallelSec = 0;
    /** Per-cell wall-time distribution of the serial pass (compile +
     *  run per fresh System) — the tail is what a figure bench's
     *  latency budget actually feels. */
    double wallP50 = 0, wallP95 = 0, wallP99 = 0;
    bool identical = true;
};

/** Run @p cells serially with fresh Systems, then through a fresh
 *  runner, and compare every RunResult field. */
GridTiming
measure(const std::string &name,
        const std::vector<ExperimentCell> &cells)
{
    GridTiming t;
    t.name = name;
    t.cells = cells.size();

    Histogram cell_walls;
    auto s0 = Clock::now();
    std::vector<RunResult> serial;
    serial.reserve(cells.size());
    for (const ExperimentCell &c : cells) {
        const Workload &w = *c.workload;
        auto c0 = Clock::now();
        System sys(w.source, c.config,
                   [&](Module &m) { w.setInput(m, c.profileSeed); });
        serial.push_back(
            sys.run([&](Module &m) { w.setInput(m, c.runSeed); }));
        cell_walls.add(seconds(c0, Clock::now()));
    }
    auto s1 = Clock::now();
    t.serialSec = seconds(s0, s1);
    t.wallP50 = cell_walls.p50();
    t.wallP95 = cell_walls.p95();
    t.wallP99 = cell_walls.p99();

    ExperimentRunner runner;
    auto p0 = Clock::now();
    std::vector<RunResult> par = runner.run(cells);
    auto p1 = Clock::now();
    t.parallelSec = seconds(p0, p1);
    const ExperimentStats st = runner.stats();
    t.systemsBuilt = st.systemsBuilt;
    t.cacheHits = st.cacheHits;
    t.inflightWaits = st.inflightWaits;
    t.simulations = st.simulations;
    t.simulationHits = st.simulationHits;

    t.identical = serial == par;
    return t;
}

std::vector<ExperimentCell>
fig08Cells()
{
    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
    }
    return cells;
}

std::vector<ExperimentCell>
fig16Cells(unsigned images)
{
    const Workload &w = getWorkload("susan-edges");
    const SystemConfig cfg = SystemConfig::bitspec(Heuristic::Max);
    std::vector<ExperimentCell> cells;
    for (unsigned i = 0; i < images; ++i)
        for (unsigned j = 0; j < images; ++j)
            cells.emplace_back(&w, cfg, 100 + i, 100 + j);
    return cells;
}

/** @p g as `grid.<name>.*` fields, and its speedup under the
 *  history's name `speedup.<name>`. */
void
recordGrid(LedgerRecord &rec, const GridTiming &g)
{
    const std::string p = "grid." + g.name + ".";
    rec.setField(p + "cells", g.cells);
    rec.setField(p + "systems_built", g.systemsBuilt);
    rec.setField(p + "cache_hits", g.cacheHits);
    rec.setField(p + "inflight_waits", g.inflightWaits);
    rec.setField(p + "simulations", g.simulations);
    rec.setField(p + "simulation_hits", g.simulationHits);
    rec.setField(p + "serial_sec", g.serialSec);
    rec.setField(p + "parallel_sec", g.parallelSec);
    rec.setField(p + "cell_wall_p50_sec", g.wallP50);
    rec.setField(p + "cell_wall_p95_sec", g.wallP95);
    rec.setField(p + "cell_wall_p99_sec", g.wallP99);
    rec.setField(p + "bit_identical", g.identical);
    rec.setField("speedup." + g.name,
                 g.parallelSec > 0 ? g.serialSec / g.parallelSec : 0);
}

/** One static-analysis A/B row: the same workload squeezed with and
 *  without the known-bits candidates + lint elision. */
struct StaticLintRow
{
    std::string name;
    SqueezeStats stats; ///< With static analysis on.
    uint64_t instsOn = 0, instsOff = 0;
    double energyOn = 0, energyOff = 0;
    bool sameChecksum = true;
};

StaticLintRow
measureStaticLint(const std::string &name)
{
    const Workload &w = getWorkload(name);
    SystemConfig on = SystemConfig::bitspec();
    SystemConfig off = on;
    off.squeezeOpts.staticAnalysis = false;

    StaticLintRow row;
    row.name = name;
    auto input = [&w](Module &m) { w.setInput(m, 0); };
    System sys_on(w.source, on, input);
    RunResult r_on = sys_on.run(input);
    System sys_off(w.source, off, input);
    RunResult r_off = sys_off.run(input);

    row.stats = r_on.squeezeStats;
    row.instsOn = r_on.counters.instructions;
    row.instsOff = r_off.counters.instructions;
    row.energyOn = r_on.totalEnergy;
    row.energyOff = r_off.totalEnergy;
    row.sameChecksum = r_on.outputChecksum == r_off.outputChecksum;
    return row;
}

/** @p r as `lint.<workload>.*` fields. */
void
recordLint(LedgerRecord &rec, const StaticLintRow &r)
{
    const std::string p = "lint." + r.name + ".";
    rec.setField(p + "proven_safe", r.stats.lintProvenSafe);
    rec.setField(p + "proven_unsafe", r.stats.lintProvenUnsafe);
    rec.setField(p + "speculative", r.stats.lintSpeculative);
    rec.setField(p + "spec_leaks", r.stats.lintSpecLeaks);
    rec.setField(p + "leaks_discharged", r.stats.lintLeaksDischarged);
    rec.setField(p + "static_narrowed", r.stats.staticNarrowed);
    rec.setField(p + "checks_dropped", r.stats.checksDropped);
    rec.setField(p + "regions_elided", r.stats.regionsElided);
    rec.setField(p + "instructions_on", r.instsOn);
    rec.setField(p + "instructions_off", r.instsOff);
    rec.setField(p + "energy_on", r.energyOn);
    rec.setField(p + "energy_off", r.energyOff);
    rec.setField(p + "energy_delta_pct",
                 r.energyOff > 0
                     ? 100.0 * (r.energyOff - r.energyOn) / r.energyOff
                     : 0);
    rec.setField(p + "same_checksum", r.sameChecksum);
}

/** What a feature costs, from interleaved pairs of reps without and
 *  with it. */
struct PairedTimes
{
    double bestOffSec = 0; ///< Fastest rep without the feature.
    double bestOnSec = 0;  ///< Fastest rep with it.
    /** Median over the pairs of the on rep's time over its off
     *  partner's, less 1, in percent. */
    double overheadPct = 0;
};

/**
 * Time @p pairs pairs of @p rep, which runs one rep with the feature
 * off (false) or on (true) and returns its seconds. The pairs
 * alternate which rep goes first, so clock-speed drift hits both
 * series equally, and the overhead is the median of the pairs' time
 * ratios over every pair, not the ratio of the series' best reps: on a
 * shared 4-CPU host one interpreter rep in a few hundred ran over 10%
 * fast, and the best-rep ratio of unchanged code read as low as
 * -12.3%, which would pass a 10% overhead. The number of pairs is
 * fixed before measuring: stopping at the first pair count that
 * passes would pick the pairs in which the host slowed the off series,
 * and pass whatever the feature costs.
 */
PairedTimes
pairedMedian(unsigned pairs, const std::function<double(bool)> &rep)
{
    PairedTimes t;
    Histogram time_ratios;
    for (unsigned i = 0; i < pairs; ++i) {
        double sec[2] = {0, 0}; // Off, on.
        for (bool on : {i % 2 == 1, i % 2 == 0})
            sec[on] = rep(on);
        if (i == 0 || sec[0] < t.bestOffSec)
            t.bestOffSec = sec[0];
        if (i == 0 || sec[1] < t.bestOnSec)
            t.bestOnSec = sec[1];
        if (sec[0] > 0)
            time_ratios.add(sec[1] / sec[0]);
    }
    t.overheadPct = 100.0 * (time_ratios.p50() - 1.0);
    return t;
}

/** Interpreter rates with tracing off and on, and what tracing
 *  costs. */
struct InterpRates
{
    double off = 0;     ///< Best rep, all telemetry off (the baseline).
    double traceOn = 0; ///< Best rep, tracing on (buffers, no export).
    double overheadPct = 0; ///< pairedMedian's.
};

/** Interpreter rates with tracing off and on over @p pairs
 *  pairedMedian pairs of decoded runs of the micro_throughput kernel,
 *  ~0.6 ms each. */
InterpRates
interpRates(unsigned pairs)
{
    const char *kKernel = R"(
        u32 data[256];
        u32 main(u32 n) {
            u32 h = 0;
            for (u32 r = 0; r < n; r++)
                for (u32 i = 0; i < 256; i++)
                    h = h * 31 + (data[i] ^ (h >> 5));
            return h;
        }
    )";
    auto mod = compileSource(kKernel);
    Interpreter in(*mod);
    in.run("main", {64}); // Warm the decode cache.
    // Every rep runs the same steps: the first run's.
    const double steps = static_cast<double>(in.stats().steps);
    const PairedTimes t = pairedMedian(pairs, [&in](bool on) {
        trace::setEnabled(on);
        auto t0 = Clock::now();
        in.run("main", {64});
        return seconds(t0, Clock::now());
    });
    trace::setEnabled(false);
    trace::reset();
    auto rate = [steps](double sec) { return sec > 0 ? steps / sec : 0; };
    return {rate(t.bestOffSec), rate(t.bestOnSec), t.overheadPct};
}

/** Counter @p counter of benchmark @p bench in the google-benchmark
 *  JSON file @p path (benchCounter, obs/trajectory.h); 0 when the
 *  file, the entry or the entry's counter is missing, and 0 with an
 *  error naming the offset when the file is not JSON. */
double
extractBenchCounter(const std::string &path, const std::string &bench,
                    const std::string &counter)
{
    std::ifstream in(path);
    if (!in)
        return 0;
    std::stringstream buf;
    buf << in.rdbuf();
    try {
        return benchCounter(buf.str(), bench, counter).value_or(0);
    } catch (const JsonError &e) {
        log::error("%s: %s", path.c_str(), e.what());
        return 0;
    }
}

struct ObservabilityGate
{
    double disabledRate = 0;  ///< Telemetry compiled in, tracing off.
    double enabledRate = 0;   ///< Tracing on (buffers, no export).
    double enabledOverheadPct = 0; ///< Gated: must stay within 1%.
    double prevDecodedRate = 0; ///< From BENCH_micro.prev.json.
    double currDecodedRate = 0; ///< From this run's BENCH_micro.json.
    double vsPrevPct = 0;       ///< Informational: cross-run drift.
    bool withinGate = true;     ///< Tracing overhead <= 1%.
};

/**
 * Measure the overhead contract. The hard gate is the controlled
 * in-process experiment: interleaved same-binary runs where only the
 * tracing flag differs must agree within 1% (pairedMedian). The
 * cross-run decoded record vs the stashed BENCH_micro.prev.json is
 * recorded for the trajectory but not gated — separate
 * google-benchmark invocations on a shared machine swing by a few
 * percent.
 */
ObservabilityGate
measureObservability(const std::string &json_path)
{
    ObservabilityGate g;
    constexpr unsigned kPairs = 488; // Pairs of ~0.6 ms reps.
    const InterpRates r = interpRates(kPairs);
    g.disabledRate = r.off;
    g.enabledRate = r.traceOn;
    g.enabledOverheadPct = r.overheadPct;
    g.withinGate = g.enabledOverheadPct <= 1.0;

    if (!json_path.empty()) {
        const std::string bench = "BM_InterpreterThroughput/decoded";
        g.currDecodedRate = extractBenchCounter(json_path, bench,
                                                "ir_instrs_per_s");
        g.prevDecodedRate = extractBenchCounter(
            json_path.substr(0, json_path.rfind(".json")) +
                ".prev.json",
            bench, "ir_instrs_per_s");
        if (g.prevDecodedRate > 0 && g.currDecodedRate > 0)
            g.vsPrevPct = 100.0 *
                          (g.currDecodedRate - g.prevDecodedRate) /
                          g.prevDecodedRate;
    }
    return g;
}

/** @p g as `obs.*` fields, its untraced rate under the history's
 *  name `rate.obs_disabled_ir_per_s`. */
void
recordObservability(LedgerRecord &rec, const ObservabilityGate &g)
{
    rec.setField("rate.obs_disabled_ir_per_s", g.disabledRate);
    rec.setField("obs.trace_on_ir_per_s", g.enabledRate);
    rec.setField("obs.trace_overhead_pct", g.enabledOverheadPct);
    rec.setField("obs.decoded_ir_per_s", g.currDecodedRate);
    rec.setField("obs.prev_decoded_ir_per_s", g.prevDecodedRate);
    rec.setField("obs.vs_prev_pct", g.vsPrevPct);
    rec.setField("obs.gate_within_1pct", g.withinGate);
}

/** Ledger-write overhead gate plus live schema validation. */
struct LedgerGate
{
    double offSec = 0; ///< Best ledger-off matrix wall.
    double onSec = 0;  ///< Best ledger-on matrix wall.
    double overheadPct = 0; ///< pairedMedian's.
    size_t pairs = 0;       ///< Interleaved off/on pairs measured.
    size_t records = 0;     ///< Records the on-reps wrote.
    size_t matrixRecords = 0;
    std::string firstInvalid; ///< "" = every record schema-valid.
    bool withinGate = true; ///< Overhead <= 1% and all records valid.
};

/**
 * Measure what BITSPEC_LEDGER costs: the same all-cache-hit matrix is
 * run with the global writer detached and attached, over a fixed
 * number of pairedMedian pairs, and the median time ratio is gated.
 * Each rep first drops the runner's cached simulations, so every
 * cell simulates on its warm System, as a first run of the matrix
 * would; served cells would leave little but the record to time.
 * Detail mode stays off, exactly like the production default the 1%
 * contract covers. Every record the on-reps wrote is then
 * schema-validated (validateLedgerRecord checks provenance
 * completeness and that the energy breakdown sums exactly), so this
 * doubles as a live end-to-end selfcheck.
 */
LedgerGate
measureLedgerGate()
{
    namespace fs = std::filesystem;
    LedgerGate g;
    const std::string path =
        (fs::temp_directory_path() /
         ("bitspec_ledger_gate_" +
          std::to_string(static_cast<unsigned long long>(
              Clock::now().time_since_epoch().count())) +
          ".jsonl"))
            .string();

    std::vector<ExperimentCell> cells = fig16Cells(4);
    // Single-threaded reps: pool scheduling jitter on a loaded
    // machine is several percent of a 16-cell matrix wall, which
    // would drown the sub-1% signal this gate exists to bound.
    ExperimentRunner runner(1);
    LedgerWriter::setGlobal(nullptr); // Warm run stays unledgered.
    runner.run(cells); // Pay the compiles once; reps are run-only.

    constexpr unsigned kPairs = 24; // Pairs of ~0.15 s matrices.
    // Only the matrix is timed, not opening or closing the writer
    // or dropping the simulations.
    const PairedTimes t = pairedMedian(kPairs, [&](bool on) {
        runner.clearSimulations();
        if (on)
            LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(path));
        auto t0 = Clock::now();
        runner.run(cells);
        const double sec = seconds(t0, Clock::now());
        LedgerWriter::setGlobal(nullptr);
        return sec;
    });
    g.offSec = t.bestOffSec;
    g.onSec = t.bestOnSec;
    g.overheadPct = t.overheadPct;
    g.pairs = kPairs;

    for (const LedgerRecord &r : loadLedger(path)) {
        ++g.records;
        if (r.kind == "matrix")
            ++g.matrixRecords;
        const std::string err = validateLedgerRecord(r);
        if (!err.empty() && g.firstInvalid.empty())
            g.firstInvalid = r.kind + " record: " + err;
    }
    fs::remove(path);

    g.withinGate = g.overheadPct <= 1.0 && g.records > 0 &&
                   g.matrixRecords > 0 && g.firstInvalid.empty();
    return g;
}

/** @p g as `ledger.*` fields. */
void
recordLedgerGate(LedgerRecord &rec, const LedgerGate &g)
{
    rec.setField("ledger.off_sec", g.offSec);
    rec.setField("ledger.on_sec", g.onSec);
    rec.setField("ledger.overhead_pct", g.overheadPct);
    rec.setField("ledger.pairs", g.pairs);
    rec.setField("ledger.records", g.records);
    rec.setField("ledger.matrix_records", g.matrixRecords);
    rec.setField("ledger.schema_valid", g.firstInvalid.empty());
    rec.setField("ledger.gate_within_1pct", g.withinGate);
}

/** Splice @p member (`"name": value`) into the google-benchmark JSON
 *  by inserting it before the final closing brace. */
bool
appendToJson(const std::string &path, const std::string &member)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    size_t brace = text.find_last_of('}');
    if (brace == std::string::npos)
        return false;
    // Trim trailing whitespace before the brace, then join with ",".
    size_t end = text.find_last_not_of(" \t\n\r", brace - 1);
    if (end == std::string::npos)
        return false;
    std::string out = text.substr(0, end + 1) + ",\n" + member + "}\n";
    std::ofstream of(path, std::ios::trunc);
    if (!of)
        return false;
    of << out;
    return true;
}

} // namespace

int
runSmoke(const std::string &bench_json)
{
    std::printf("\n==== %s ====\n%s\n\n", "Experiment-engine smoke",
                "Serial (fresh System per cell) vs ExperimentRunner "
                "(pooled + memoized System cache); results verified "
                "bit-identical.");

    LedgerRecord rec;
    rec.kind = "smoke";
    rec.flavour = buildFlavour();
    rec.bench = "bitspec-paper/smoke";

    std::vector<GridTiming> grids;
    grids.push_back(measure("fig08_matrix", fig08Cells()));
    grids.push_back(measure("fig16_grid_8x8", fig16Cells(8)));

    unsigned threads = ThreadPool::defaultThreadCount();
    rec.setField("grid.threads", threads);
    bool all_identical = true;
    for (const GridTiming &g : grids) {
        recordGrid(rec, g);
        all_identical = all_identical && g.identical;
        std::printf("%-16s cells=%-4zu builds=%-3llu hits=%-4llu "
                    "inflight=%-3llu sims=%-4llu sim_hits=%-4llu "
                    "serial=%.3fs parallel=%.3fs "
                    "speedup=%.2fx identical=%s\n",
                    g.name.c_str(), g.cells,
                    static_cast<unsigned long long>(g.systemsBuilt),
                    static_cast<unsigned long long>(g.cacheHits),
                    static_cast<unsigned long long>(g.inflightWaits),
                    static_cast<unsigned long long>(g.simulations),
                    static_cast<unsigned long long>(g.simulationHits),
                    g.serialSec, g.parallelSec,
                    g.parallelSec > 0 ? g.serialSec / g.parallelSec
                                      : 0.0,
                    g.identical ? "yes" : "NO");
        std::printf("%-16s cell wall p50=%.4fs p95=%.4fs p99=%.4fs\n",
                    "", g.wallP50, g.wallP95, g.wallP99);
    }
    std::printf("threads=%u\n", threads);

    // Static-analysis A/B: same workload squeezed with and without
    // the known-bits candidates + lint check elision.
    std::printf("\nstatic lint A/B (on vs off):\n");
    for (const char *name :
         {"CRC32", "bitcount", "dijkstra", "rijndael"}) {
        const StaticLintRow r = measureStaticLint(name);
        recordLint(rec, r);
        all_identical = all_identical && r.sameChecksum;
        std::printf("%-12s safe=%-3u dropped=%-3u elided=%-3u "
                    "insts %llu -> %llu  energy %.4g -> %.4g "
                    "(%+.2f%%)  checksum=%s\n",
                    r.name.c_str(), r.stats.lintProvenSafe,
                    r.stats.checksDropped, r.stats.regionsElided,
                    static_cast<unsigned long long>(r.instsOff),
                    static_cast<unsigned long long>(r.instsOn),
                    r.energyOff, r.energyOn,
                    r.energyOff > 0 ? 100.0 * (r.energyOn - r.energyOff)
                                          / r.energyOff
                                    : 0.0,
                    r.sameChecksum ? "same" : "DIFFERENT");
    }

    // Telemetry overhead gate: compiled-in-but-disabled tracing must
    // not move the decoded-interpreter throughput.
    ObservabilityGate gate = measureObservability(bench_json);
    recordObservability(rec, gate);
    std::printf("\nobservability gate: disabled=%.3g ir-instrs/s "
                "enabled=%.3g (tracing on costs %+.2f%%; gate %s)\n",
                gate.disabledRate, gate.enabledRate,
                gate.enabledOverheadPct,
                gate.withinGate ? "within 1%" : "EXCEEDED");
    if (gate.prevDecodedRate > 0)
        std::printf("decoded record vs previous run: %.3g -> %.3g "
                    "(%+.2f%%, informational)\n",
                    gate.prevDecodedRate, gate.currDecodedRate,
                    gate.vsPrevPct);
    else
        std::printf("no BENCH_micro.prev.json record; cross-run "
                    "trajectory skipped\n");

    // Run-ledger overhead gate: BITSPEC_LEDGER alone (no detail mode)
    // must cost at most 1% of matrix wall time, and every record it
    // writes must schema-validate.
    LedgerGate ledger_gate = measureLedgerGate();
    recordLedgerGate(rec, ledger_gate);
    std::printf("\nrun-ledger gate: off=%.3fs on=%.3fs "
                "(%+.2f%% over %zu pairs; gate %s)\n",
                ledger_gate.offSec, ledger_gate.onSec,
                ledger_gate.overheadPct, ledger_gate.pairs,
                ledger_gate.withinGate ? "within 1%" : "EXCEEDED");
    std::printf("run-ledger records: %zu (%zu matrix) schema %s\n",
                ledger_gate.records, ledger_gate.matrixRecords,
                ledger_gate.firstInvalid.empty()
                    ? "valid"
                    : ledger_gate.firstInvalid.c_str());

    if (!bench_json.empty()) {
        const std::string member =
            "  \"smoke\": " + toJsonLine(rec) + "\n";
        if (appendToJson(bench_json, member))
            std::printf("appended the smoke record to %s\n",
                        bench_json.c_str());
        else
            std::printf("could not update %s; its smoke member "
                        "follows:\n%s",
                        bench_json.c_str(), member.c_str());
    }
    return all_identical && gate.withinGate && ledger_gate.withinGate
               ? 0
               : 1;
}

} // namespace bitspec
