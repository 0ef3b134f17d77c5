/**
 * @file
 * Experiment-engine smoke harness: runs the Fig. 8 matrix and a
 * trimmed Fig. 16 profile/run grid twice — once serially with
 * fresh (uncached) Systems, once through the ExperimentRunner — and
 * records wall times, cell counts and System-cache hit rates.
 *
 * Results are verified bit-identical between the two paths, then
 * appended as an "experiment_engine" section to the BENCH_micro.json
 * written by micro_throughput (path passed as argv[1]; prints to
 * stdout only when omitted). An "observability" section records the
 * telemetry overhead gate: interpreter throughput with tracing
 * compiled in but disabled must stay within 1% of the previous run's
 * record (bench_smoke stashes it as BENCH_micro.prev.json).
 *
 * `experiment_smoke bitspec-report` instead prints the per-region
 * misspeculation attribution report for every suite workload and
 * self-checks that the per-region counts sum to the core's aggregate
 * misspeculation counter.
 *
 * `experiment_smoke bitspec-heat [folded-dir]` prints the per-block
 * heat listing (top blocks by cycles with source provenance) for
 * every suite workload, self-checks the per-block sums against
 * ActivityCounters, and — when a directory is given — writes one
 * folded-stack file per workload for flamegraph.pl / speedscope.
 *
 * `experiment_smoke bitspec-diff <A.jsonl> <B.jsonl>` joins two run
 * ledgers (BITSPEC_LEDGER output) on the canonical cell key and
 * reports per-field drift with stage/region/block localization
 * (obs/diff.h). Options: --abs-tol X, --rel-tol-pct X, --verbose,
 * --json <path> (machine verdict). Exit 0 = no regression, 1 = a
 * cell regressed or diverged, 2 = bad usage / unreadable ledger.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <tuple>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "obs/diff.h"
#include "obs/ledger.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/trajectory.h"
#include "support/json.h"
#include "support/log.h"
#include "support/stats.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

using namespace bitspec;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The fields the figures consume; any divergence between the serial
 *  and runner paths fails the smoke test. */
bool
sameResult(const RunResult &a, const RunResult &b)
{
    return a.returnValue == b.returnValue &&
           a.outputChecksum == b.outputChecksum &&
           a.counters.instructions == b.counters.instructions &&
           a.counters.cycles == b.counters.cycles &&
           a.totalEnergy == b.totalEnergy && a.epi == b.epi;
}

struct GridTiming
{
    std::string name;
    size_t cells = 0;
    uint64_t systemsBuilt = 0;
    uint64_t cacheHits = 0;
    uint64_t inflightWaits = 0;
    double serialSec = 0;
    double parallelSec = 0;
    /** Per-cell wall-time distribution of the serial pass (compile +
     *  run per fresh System) — the tail is what a figure bench's
     *  latency budget actually feels. */
    double wallP50 = 0, wallP95 = 0, wallP99 = 0;
    bool identical = true;
};

/** Run @p cells serially with fresh Systems, then through a fresh
 *  runner, and compare. */
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
    t.systemsBuilt = runner.stats().systemsBuilt;
    t.cacheHits = runner.stats().cacheHits;
    t.inflightWaits = runner.stats().inflightWaits;

    for (size_t i = 0; i < cells.size(); ++i)
        if (!sameResult(serial[i], par[i]))
            t.identical = false;
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

std::string
jsonSection(const std::vector<GridTiming> &grids, unsigned threads)
{
    std::ostringstream os;
    os << "  \"experiment_engine\": {\n";
    os << "    \"threads\": " << threads << ",\n";
    os << "    \"grids\": [\n";
    for (size_t i = 0; i < grids.size(); ++i) {
        const GridTiming &g = grids[i];
        os << "      {\n";
        os << "        \"name\": \"" << g.name << "\",\n";
        os << "        \"cells\": " << g.cells << ",\n";
        os << "        \"systems_built\": " << g.systemsBuilt << ",\n";
        os << "        \"cache_hits\": " << g.cacheHits << ",\n";
        os << "        \"inflight_waits\": " << g.inflightWaits
           << ",\n";
        os << "        \"serial_sec\": " << g.serialSec << ",\n";
        os << "        \"parallel_sec\": " << g.parallelSec << ",\n";
        os << "        \"cell_wall_p50_sec\": " << g.wallP50 << ",\n";
        os << "        \"cell_wall_p95_sec\": " << g.wallP95 << ",\n";
        os << "        \"cell_wall_p99_sec\": " << g.wallP99 << ",\n";
        os << "        \"speedup\": "
           << (g.parallelSec > 0 ? g.serialSec / g.parallelSec : 0)
           << ",\n";
        os << "        \"bit_identical\": "
           << (g.identical ? "true" : "false") << "\n";
        os << "      }" << (i + 1 < grids.size() ? "," : "") << "\n";
    }
    os << "    ]\n";
    os << "  }\n";
    return os.str();
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

std::string
staticLintSection(const std::vector<StaticLintRow> &rows)
{
    std::ostringstream os;
    os << "  \"static_lint\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const StaticLintRow &r = rows[i];
        os << "    {\n";
        os << "      \"name\": \"" << r.name << "\",\n";
        os << "      \"lint_proven_safe\": " << r.stats.lintProvenSafe
           << ",\n";
        os << "      \"lint_proven_unsafe\": "
           << r.stats.lintProvenUnsafe << ",\n";
        os << "      \"lint_speculative\": " << r.stats.lintSpeculative
           << ",\n";
        os << "      \"lint_spec_leaks\": " << r.stats.lintSpecLeaks
           << ",\n";
        os << "      \"lint_leaks_discharged\": "
           << r.stats.lintLeaksDischarged << ",\n";
        os << "      \"static_narrowed\": " << r.stats.staticNarrowed
           << ",\n";
        os << "      \"checks_dropped\": " << r.stats.checksDropped
           << ",\n";
        os << "      \"regions_elided\": " << r.stats.regionsElided
           << ",\n";
        os << "      \"instructions_on\": " << r.instsOn << ",\n";
        os << "      \"instructions_off\": " << r.instsOff << ",\n";
        os << "      \"energy_on\": " << r.energyOn << ",\n";
        os << "      \"energy_off\": " << r.energyOff << ",\n";
        os << "      \"energy_delta_pct\": "
           << (r.energyOff > 0
                   ? 100.0 * (r.energyOff - r.energyOn) / r.energyOff
                   : 0)
           << ",\n";
        os << "      \"same_checksum\": "
           << (r.sameChecksum ? "true" : "false") << "\n";
        os << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    return os.str();
}

/**
 * bitspec-report mode: per-workload, per-region misspeculation
 * attribution with file:line provenance and the energy split vs an
 * unsqueezed baseline. Returns false when any workload's per-region
 * sum diverges from the core's aggregate counter.
 */
bool
printBitspecReport()
{
    std::printf("\n==== %s ====\n%s\n\n",
                "bitspec-report: per-region misspeculation "
                "attribution",
                "region = function#id at its source line; overhead = "
                "recovery + handler energy; saved = share of the "
                "squeeze savings vs the unsqueezed baseline. "
                "Profiled on seed 0, run on held-out seed 1 so "
                "speculation can actually miss.");
    // Run on an input the profiler never saw — on the training seed
    // every speculation holds and all misspec columns would be zero.
    // The aggressive heuristic maximises speculative coverage, which
    // is what makes the misspec/overhead columns interesting.
    constexpr uint64_t kRunSeed = 1;
    bool ok = true;
    for (const Workload &w : mibenchSuite()) {
        auto train = [&w](Module &m) { w.setInput(m, 0); };
        auto input = [&w](Module &m) { w.setInput(m, kRunSeed); };
        System squeezed(w.source, SystemConfig::bitspec(Heuristic::Max),
                        train);
        BlockMap map(squeezed.program());
        BlockProfilerSink sink(map);
        RunResult r = squeezed.run(input, {}, {.blocks = &sink});

        System base(w.source, SystemConfig::baseline(), train);
        RunResult br = base.run(input);

        RegionReportInputs inputs;
        inputs.energy = squeezed.config().energy;
        inputs.totalInstructions = r.counters.instructions;
        inputs.totalEnergyPj = r.totalEnergy;
        inputs.baselineEnergyPj = br.totalEnergy;
        auto rows = buildRegionReport(map, sink, inputs);

        uint64_t region_misspecs = 0;
        for (const RegionReportRow &row : rows)
            region_misspecs += row.activity.misspecs;
        const bool sums_match =
            region_misspecs == r.counters.misspeculations &&
            sink.unattributedMisspecs() == 0;
        ok = ok && sums_match;
        std::printf("--- %s: %zu regions, %llu misspeculations "
                    "(attribution %s)\n",
                    w.name.c_str(), rows.size(),
                    static_cast<unsigned long long>(
                        r.counters.misspeculations),
                    sums_match ? "exact" : "MISMATCH");
        if (!rows.empty())
            std::printf("%s",
                        formatRegionReport(rows, w.name + ".c")
                            .c_str());
        std::printf("\n");
    }
    return ok;
}

/**
 * bitspec-heat mode: per-block heat listing for every suite workload,
 * with the per-block sums self-checked against the core's aggregate
 * ActivityCounters (the BlockMap is a total partition, so the match
 * must be exact). When @p folded_dir is non-empty, also writes
 * <folded_dir>/<workload>.folded for flamegraph.pl / speedscope.
 */
bool
printBitspecHeat(const std::string &folded_dir)
{
    std::printf("\n==== %s ====\n%s\n\n",
                "bitspec-heat: per-block cycle attribution",
                "block = MachBlock with file:line provenance via its "
                "SpecRegion; energy = model split (pipeline ~ cycles, "
                "recovery ~ misspecs, rest ~ insts). Profiled on seed "
                "0, run on held-out seed 1 so speculation can "
                "actually miss.");
    constexpr uint64_t kRunSeed = 1;
    constexpr size_t kTopN = 10;
    bool ok = true;
    if (!folded_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(folded_dir, ec);
    }
    for (const Workload &w : mibenchSuite()) {
        System sys(w.source, SystemConfig::bitspec(Heuristic::Max),
                   [&w](Module &m) { w.setInput(m, 0); });
        BlockMap map(sys.program());
        BlockProfilerSink sink(map);
        RunObservers obs;
        obs.blocks = &sink;
        RunResult r = sys.run(
            [&w](Module &m) { w.setInput(m, kRunSeed); }, {}, obs);

        const bool sums_match =
            sink.totalInsts() == r.counters.instructions &&
            sink.totalCycles() == r.counters.cycles &&
            sink.totalMisspecs() == r.counters.misspeculations &&
            sink.unattributed() == 0;
        ok = ok && sums_match;

        HeatReportInputs inputs;
        inputs.energy = sys.config().energy;
        inputs.totalEnergyPj = r.totalEnergy;
        auto rows = buildHeatReport(map, sink, inputs);
        std::printf("--- %s: %zu block sites, %llu cycles "
                    "(reconciliation %s)\n",
                    w.name.c_str(), map.sites().size(),
                    static_cast<unsigned long long>(r.counters.cycles),
                    sums_match ? "exact" : "MISMATCH");
        std::printf("%s",
                    formatHeatListing(rows, w.name + ".c", kTopN)
                        .c_str());

        if (!folded_dir.empty()) {
            const std::string path =
                folded_dir + "/" + w.name + ".folded";
            std::ofstream of(path);
            if (of) {
                of << foldedStacks(rows, w.name + ".c");
                std::printf("folded stacks -> %s\n", path.c_str());
            } else {
                std::printf("cannot write %s\n", path.c_str());
                ok = false;
            }
        }
        std::printf("\n");
    }
    return ok;
}

/** One timed decoded-interpreter run of the micro_throughput kernel;
 *  returns IR instructions/second. */
double
interpRateOnce(Interpreter &in)
{
    const uint64_t steps0 = in.stats().steps; // Cumulative counter.
    auto t0 = Clock::now();
    in.run("main", {64});
    auto t1 = Clock::now();
    double sec = seconds(t0, t1);
    return sec > 0
               ? static_cast<double>(in.stats().steps - steps0) / sec
               : 0;
}

/** Best-rep interpreter rates for the four observability states. */
struct InterpRates
{
    double off = 0;     ///< All telemetry off (the baseline).
    double traceOn = 0; ///< Tracing on (buffers, no export).
    double profOff = 0; ///< Block profile off (second A-series).
    double profOn = 0;  ///< Block profile recording.
};

/**
 * Best-rep interpreter rates with telemetry off, tracing on, block
 * profile off and block profile on, measured interleaved (one rep of
 * each per iteration) so clock-speed drift hits every series equally
 * instead of biasing whichever batch ran second. The fastest rep per
 * series is the classic low-noise estimator: it is the run least
 * perturbed by scheduler/cache interference.
 *
 * `off` and `profOff` execute the identical template instantiation —
 * the block profile is compiled out when disabled — so their delta is
 * a same-binary A/A measurement of the profiler-off contract.
 */
InterpRates
interpRates(unsigned reps)
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
    std::vector<double> off, trace_on, prof_off, prof_on;
    for (unsigned i = 0; i < reps; ++i) {
        trace::setEnabled(false);
        in.setBlockProfile(false);
        off.push_back(interpRateOnce(in));
        trace::setEnabled(true);
        trace_on.push_back(interpRateOnce(in));
        trace::setEnabled(false);
        prof_off.push_back(interpRateOnce(in));
        in.setBlockProfile(true);
        prof_on.push_back(interpRateOnce(in));
    }
    trace::setEnabled(false);
    trace::reset();
    InterpRates r;
    r.off = *std::max_element(off.begin(), off.end());
    r.traceOn = *std::max_element(trace_on.begin(), trace_on.end());
    r.profOff = *std::max_element(prof_off.begin(), prof_off.end());
    r.profOn = *std::max_element(prof_on.begin(), prof_on.end());
    return r;
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
    double enabledOverheadPct = 0;
    double profOffRate = 0;   ///< Block profile off (A/A vs disabled).
    double profOnRate = 0;    ///< Block profile recording.
    double profOffOverheadPct = 0; ///< Gated: must stay within 1%.
    double profOnOverheadPct = 0;  ///< Informational.
    double prevDecodedRate = 0; ///< From BENCH_micro.prev.json.
    double currDecodedRate = 0; ///< From this run's BENCH_micro.json.
    double vsPrevPct = 0;       ///< Informational: cross-run drift.
    bool withinGate = true;     ///< trace + prof-off overhead <= 1%.
};

/**
 * Measure the overhead contract. The hard gates are the controlled
 * in-process experiments: interleaved same-binary runs where only the
 * tracing flag (resp. the block-profile flag) differs must agree
 * within 1%. Profile-on cost is recorded but informational — it
 * buys per-block data and is expected to cost a few percent. The
 * cross-run decoded record vs the stashed BENCH_micro.prev.json is
 * recorded for the PR-to-PR trajectory but not gated — separate
 * google-benchmark invocations on a shared machine swing by a few
 * percent.
 */
ObservabilityGate
measureObservability(const std::string &json_path)
{
    ObservabilityGate g;
    constexpr unsigned kReps = 61; // ~0.5ms/rep; best-of wants depth.
    // Interference (another process stealing the core mid-series) can
    // only *inflate* a best-of interleaved delta, never hide a real
    // overhead, so re-measure a few times and keep the quietest
    // attempt; stop early once the contract is met.
    constexpr unsigned kAttempts = 8;
    for (unsigned attempt = 0; attempt < kAttempts; ++attempt) {
        InterpRates r = interpRates(kReps);
        auto pct = [&r](double rate) {
            return r.off > 0 ? 100.0 * (r.off - rate) / r.off : 0;
        };
        double worst = std::max(pct(r.traceOn), pct(r.profOff));
        double prev_worst = std::max(g.enabledOverheadPct,
                                     g.profOffOverheadPct);
        if (attempt == 0 || worst < prev_worst) {
            g.disabledRate = r.off;
            g.enabledRate = r.traceOn;
            g.profOffRate = r.profOff;
            g.profOnRate = r.profOn;
            g.enabledOverheadPct = pct(r.traceOn);
            g.profOffOverheadPct = pct(r.profOff);
            g.profOnOverheadPct = pct(r.profOn);
        }
        if (std::max(g.enabledOverheadPct, g.profOffOverheadPct) <=
            1.0)
            break;
    }
    g.withinGate = g.enabledOverheadPct <= 1.0 &&
                   g.profOffOverheadPct <= 1.0;

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

std::string
observabilitySection(const ObservabilityGate &g)
{
    std::ostringstream os;
    os << "  \"observability\": {\n";
    os << "    \"disabled_rate\": " << g.disabledRate << ",\n";
    os << "    \"enabled_rate\": " << g.enabledRate << ",\n";
    os << "    \"enabled_overhead_pct\": " << g.enabledOverheadPct
       << ",\n";
    os << "    \"prof_off_rate\": " << g.profOffRate << ",\n";
    os << "    \"prof_on_rate\": " << g.profOnRate << ",\n";
    os << "    \"prof_off_overhead_pct\": " << g.profOffOverheadPct
       << ",\n";
    os << "    \"prof_on_overhead_pct\": " << g.profOnOverheadPct
       << ",\n";
    os << "    \"decoded_rate\": " << g.currDecodedRate << ",\n";
    os << "    \"prev_decoded_rate\": " << g.prevDecodedRate << ",\n";
    os << "    \"vs_prev_pct\": " << g.vsPrevPct << ",\n";
    os << "    \"gate_within_1pct\": "
       << (g.withinGate ? "true" : "false") << "\n";
    os << "  }\n";
    return os.str();
}

/** Ledger-write overhead gate plus live schema validation. */
struct LedgerGate
{
    double offSec = 0; ///< Best ledger-off matrix wall.
    double onSec = 0;  ///< Best ledger-on matrix wall.
    double overheadPct = 0;
    size_t pairs = 0;       ///< Interleaved off/on reps measured.
    size_t records = 0;     ///< Records the on-reps wrote.
    size_t matrixRecords = 0;
    std::string firstInvalid; ///< "" = every record schema-valid.
    bool withinGate = true; ///< Overhead <= 1% and all records valid.
};

/**
 * Measure what BITSPEC_LEDGER costs: the same all-cache-hit matrix is
 * run with the global writer detached and attached, interleaved
 * (interference can only inflate a best-of delta, never hide a real
 * overhead — same reasoning as measureObservability), and the best
 * rep of each series is compared. Detail mode stays off, exactly like
 * the production default the 1% contract covers. Every record the
 * on-reps wrote is then schema-validated (validateLedgerRecord checks
 * provenance completeness and that the energy breakdown sums
 * exactly), so this doubles as a live end-to-end selfcheck.
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

    auto rep = [&] {
        auto t0 = Clock::now();
        runner.run(cells);
        return seconds(t0, Clock::now());
    };
    auto rep_on = [&] {
        LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(path));
        double s = rep();
        LedgerWriter::setGlobal(nullptr);
        return s;
    };
    constexpr unsigned kMaxPairs = 12;
    for (unsigned pair = 0; pair < kMaxPairs; ++pair) {
        // Alternate order across pairs so slow machine drift
        // (thermal, background load) cancels out of both minima.
        double off, on;
        if (pair % 2 == 0) {
            off = rep();
            on = rep_on();
        } else {
            on = rep_on();
            off = rep();
        }
        if (pair == 0 || off < g.offSec)
            g.offSec = off;
        if (pair == 0 || on < g.onSec)
            g.onSec = on;
        g.pairs = pair + 1;
        g.overheadPct = g.offSec > 0
                            ? 100.0 * (g.onSec - g.offSec) / g.offSec
                            : 0;
        if (pair >= 3 && g.overheadPct <= 1.0)
            break;
    }
    LedgerWriter::setGlobal(nullptr);

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

std::string
ledgerSection(const LedgerGate &g)
{
    std::ostringstream os;
    os << "  \"run_ledger\": {\n";
    os << "    \"off_sec\": " << g.offSec << ",\n";
    os << "    \"on_sec\": " << g.onSec << ",\n";
    os << "    \"overhead_pct\": " << g.overheadPct << ",\n";
    os << "    \"pairs\": " << g.pairs << ",\n";
    os << "    \"records\": " << g.records << ",\n";
    os << "    \"matrix_records\": " << g.matrixRecords << ",\n";
    os << "    \"schema_valid\": "
       << (g.firstInvalid.empty() ? "true" : "false") << ",\n";
    os << "    \"gate_within_1pct\": "
       << (g.withinGate ? "true" : "false") << "\n";
    os << "  }\n";
    return os.str();
}

/**
 * bitspec-diff mode: regression forensics between two run ledgers.
 * See obs/diff.h for the classification and localization rules.
 */
int
runBitspecDiff(int argc, char **argv)
{
    auto diff_usage = [&] {
        std::fprintf(stderr,
                     "usage: %s bitspec-diff <A.jsonl> <B.jsonl> "
                     "[--abs-tol X] [--rel-tol-pct X] [--verbose] "
                     "[--json <path>]\n",
                     argv[0]);
        return 2;
    };
    std::string path_a, path_b, json_out;
    DiffOptions opts;
    bool verbose = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--abs-tol" && i + 1 < argc)
            opts.absTol = std::strtod(argv[++i], nullptr);
        else if (arg == "--rel-tol-pct" && i + 1 < argc)
            opts.relTolPct = std::strtod(argv[++i], nullptr);
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--json" && i + 1 < argc)
            json_out = argv[++i];
        else if (path_a.empty())
            path_a = arg;
        else if (path_b.empty())
            path_b = arg;
        else
            return diff_usage();
    }
    if (path_a.empty() || path_b.empty())
        return diff_usage();

    std::vector<LedgerRecord> a = loadLedger(path_a);
    std::vector<LedgerRecord> b = loadLedger(path_b);
    if (a.empty() || b.empty()) {
        std::fprintf(stderr,
                     "bitspec-diff: no ledger records in %s\n",
                     a.empty() ? path_a.c_str() : path_b.c_str());
        return 2;
    }

    LedgerDiff diff = diffLedgers(a, b, opts);
    std::printf("bitspec-diff: %s (%zu records) vs %s (%zu records)\n",
                path_a.c_str(), a.size(), path_b.c_str(), b.size());
    std::printf("%s", formatLedgerDiff(diff, verbose).c_str());
    if (!json_out.empty()) {
        std::ofstream of(json_out);
        if (!of) {
            std::fprintf(stderr, "bitspec-diff: cannot write %s\n",
                         json_out.c_str());
            return 2;
        }
        of << ledgerDiffToJson(diff) << "\n";
        std::printf("verdict -> %s\n", json_out.c_str());
    }
    return diff.clean() ? 0 : 1;
}

/** Splice the section into the google-benchmark JSON by inserting it
 *  before the final closing brace. */
bool
appendToJson(const std::string &path, const std::string &section)
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
    std::string out = text.substr(0, end + 1) + ",\n" + section + "}\n";
    std::ofstream of(path, std::ios::trunc);
    if (!of)
        return false;
    of << out;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "bitspec-report")
        return printBitspecReport() ? 0 : 1;
    if (argc > 1 && std::string(argv[1]) == "bitspec-heat")
        return printBitspecHeat(argc > 2 ? argv[2] : "") ? 0 : 1;
    if (argc > 1 && std::string(argv[1]) == "bitspec-diff")
        return runBitspecDiff(argc, argv);

    std::printf("\n==== %s ====\n%s\n\n", "Experiment-engine smoke",
                "Serial (fresh System per cell) vs ExperimentRunner "
                "(pooled + memoized System cache); results verified "
                "bit-identical.");

    std::vector<GridTiming> grids;
    grids.push_back(measure("fig08_matrix", fig08Cells()));
    grids.push_back(measure("fig16_grid_8x8", fig16Cells(8)));

    unsigned threads = ThreadPool::defaultThreadCount();
    bool all_identical = true;
    for (const GridTiming &g : grids) {
        all_identical = all_identical && g.identical;
        std::printf("%-16s cells=%-4zu builds=%-3llu hits=%-4llu "
                    "inflight=%-3llu serial=%.3fs parallel=%.3fs "
                    "speedup=%.2fx identical=%s\n",
                    g.name.c_str(), g.cells,
                    static_cast<unsigned long long>(g.systemsBuilt),
                    static_cast<unsigned long long>(g.cacheHits),
                    static_cast<unsigned long long>(g.inflightWaits),
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
    std::vector<StaticLintRow> lint_rows;
    for (const char *name :
         {"CRC32", "bitcount", "dijkstra", "rijndael"}) {
        lint_rows.push_back(measureStaticLint(name));
        const StaticLintRow &r = lint_rows.back();
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
    ObservabilityGate gate =
        measureObservability(argc > 1 ? argv[1] : "");
    std::printf("\nobservability gate: disabled=%.3g ir-instrs/s "
                "enabled=%.3g (tracing on costs %+.2f%%)\n",
                gate.disabledRate, gate.enabledRate,
                gate.enabledOverheadPct);
    std::printf("block profile: off=%.3g on=%.3g ir-instrs/s "
                "(off costs %+.2f%%, on costs %+.2f%% informational; "
                "gate %s)\n",
                gate.profOffRate, gate.profOnRate,
                gate.profOffOverheadPct, gate.profOnOverheadPct,
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

    if (argc > 1) {
        bool ok = appendToJson(argv[1], jsonSection(grids, threads)) &&
                  appendToJson(argv[1], staticLintSection(lint_rows)) &&
                  appendToJson(argv[1], observabilitySection(gate)) &&
                  appendToJson(argv[1], ledgerSection(ledger_gate));
        if (ok)
            std::printf("appended experiment_engine + static_lint + "
                        "observability + run_ledger sections to %s\n",
                        argv[1]);
        else
            std::printf(
                "could not update %s; sections follow:\n%s%s%s%s",
                argv[1], jsonSection(grids, threads).c_str(),
                staticLintSection(lint_rows).c_str(),
                observabilitySection(gate).c_str(),
                ledgerSection(ledger_gate).c_str());
    }
    return all_identical && gate.withinGate && ledger_gate.withinGate
               ? 0
               : 1;
}
