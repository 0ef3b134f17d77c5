#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/ledger.h"
#include "obs/trajectory.h"
#include "support/json.h"

namespace bitspec
{
namespace
{

/** A history record as bench_gate writes it (a valid `trajectory`
 *  ledger record). */
LedgerRecord
makeRecord(double decoded_rate, bool debug = false)
{
    LedgerRecord rec;
    rec.kind = "trajectory";
    rec.flavour = debug ? "abc1234-Debug" : "abc1234-Release";
    rec.bench = "bench_gate";
    rec.setField("record.debug_build", debug);
    rec.setField("record.unix_time", 1767225600); // 2026-01-01.
    rec.setField("rate.interp_decoded_ir_per_s", decoded_rate);
    rec.setField("speedup.fig08_matrix", 3.5);
    rec.setField("obs.trace_overhead_pct", 0.4);
    return rec;
}

/** makeRecord() from a host of @p cpus CPUs. */
LedgerRecord
makeRecordOn(unsigned cpus, double decoded_rate)
{
    LedgerRecord rec = makeRecord(decoded_rate);
    rec.setField("record.host_cpus", cpus);
    return rec;
}

/** Fields of @p rec the gate lists: all but the `record.` ones. */
size_t
seriesCount(const LedgerRecord &rec)
{
    return std::count_if(rec.fields.begin(), rec.fields.end(),
                         [](const LedgerField &f) {
                             return f.name.rfind("record.", 0) != 0;
                         });
}

/** Temp history file removed at scope exit. */
struct TempHistory
{
    TempHistory()
    {
        path = (std::filesystem::temp_directory_path() /
                ("bitspec_hist_" +
                 std::to_string(
                     static_cast<unsigned long long>(
                         reinterpret_cast<uintptr_t>(this))) +
                 ".jsonl"))
                   .string();
    }
    ~TempHistory() { std::remove(path.c_str()); }
    std::string path;
};

TEST(Trajectory, TornFinalLineIsTheOnlyToleratedCorruption)
{
    const std::string rec = toJsonLine(makeRecord(1e8));
    TempHistory h;
    SkippedLines skipped;
    {
        std::ofstream of(h.path);
        of << rec << "\n" << rec << "\n" << rec.substr(0, 40) << "\n\n";
    }
    EXPECT_EQ(loadLedger(h.path, &skipped).size(), 2u);
    EXPECT_EQ(skipped.corrupt, (std::vector<size_t>{3}));
    EXPECT_EQ(skipped.firstCorruptBeforeLast(), 0u); // Crash residue.

    // The same torn bytes with a record after them lost a record.
    {
        std::ofstream of(h.path, std::ios::app);
        of << rec << "\n";
    }
    skipped = {};
    EXPECT_EQ(loadLedger(h.path, &skipped).size(), 3u);
    EXPECT_EQ(skipped.firstCorruptBeforeLast(), 3u);

    skipped = {};
    EXPECT_TRUE(loadLedger(h.path + ".missing", &skipped).empty());
    EXPECT_EQ(skipped.corrupt, std::vector<size_t>{});
    EXPECT_EQ(skipped.newer, std::vector<size_t>{});
}

TEST(Trajectory, CommittedHistorySkipsNothing)
{
    SkippedLines skipped;
    const std::vector<LedgerRecord> history =
        loadLedger(BITSPEC_HISTORY_PATH, &skipped);
    EXPECT_GE(history.size(), 6u);
    EXPECT_EQ(skipped.corrupt, std::vector<size_t>{});
    EXPECT_EQ(skipped.newer, std::vector<size_t>{});
    for (const LedgerRecord &rec : history) {
        EXPECT_EQ(rec.kind, "trajectory") << rec.flavour;
        EXPECT_EQ(validateLedgerRecord(rec), "") << rec.flavour;
    }
}

TEST(Trajectory, CommittedHistoryLinesReadBackByteForByte)
{
    // Every line bench_gate has appended reads as a record that the
    // ledger writer writes back as the same bytes.
    std::ifstream in(BITSPEC_HISTORY_PATH);
    ASSERT_TRUE(in) << BITSPEC_HISTORY_PATH;
    size_t lines = 0;
    for (std::string line; std::getline(in, line); ++lines) {
        auto rec = parseLedgerLine(line);
        ASSERT_TRUE(rec.has_value()) << "line " << lines + 1;
        EXPECT_EQ(toJsonLine(*rec), line) << "line " << lines + 1;
    }
    EXPECT_GE(lines, 6u);
    EXPECT_EQ(loadLedger(BITSPEC_HISTORY_PATH).size(), lines);
}

TEST(Trajectory, OtherLedgerKindsAreNoHistory)
{
    // A history file is a ledger: cell, matrix and smoke records in
    // it are no baseline, whatever their fields say.
    std::vector<LedgerRecord> history;
    for (const char *kind : {"cell", "matrix", "smoke"}) {
        history.push_back(makeRecord(9e8));
        history.back().kind = kind;
    }
    GateResult r = checkAgainstHistory(makeRecord(1e8), history);
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);

    history.push_back(makeRecord(9e8));
    GateResult r2 = checkAgainstHistory(makeRecord(1e8), history);
    EXPECT_FALSE(r2.pass);
    EXPECT_EQ(r2.baselineRuns, 1u);
}

TEST(Trajectory, RecordFieldsAreNeitherListedNorGated)
{
    // The record's own facts ride along: the table lists the series
    // alone, in the record's order.
    GateResult r = checkAgainstHistory(makeRecordOn(4, 1e8),
                                       {makeRecordOn(4, 1e8)});
    std::vector<std::string> names;
    for (const SeriesVerdict &v : r.verdicts)
        names.push_back(v.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "rate.interp_decoded_ir_per_s",
                         "speedup.fig08_matrix",
                         "obs.trace_overhead_pct"}));
    EXPECT_EQ(formatGateResult(r).find("record."), std::string::npos);
}

TEST(Trajectory, GatePassesOnEmptyHistory)
{
    GateResult r = checkAgainstHistory(makeRecord(1e8), {});
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);
    for (const SeriesVerdict &v : r.verdicts)
        EXPECT_TRUE(v.pass) << v.name;
}

TEST(Trajectory, EmptyWindowSaysRecordingOnly)
{
    // With no comparable baseline the rendered table must say so
    // explicitly instead of printing "baseline runs considered: 0".
    GateResult r = checkAgainstHistory(makeRecord(1e8), {});
    std::string table = formatGateResult(r);
    EXPECT_NE(table.find("no baseline, recording only"),
              std::string::npos);
    EXPECT_NE(table.find("gate PASS"), std::string::npos);
    EXPECT_EQ(table.find("baseline runs considered"),
              std::string::npos);
    // Gated series with no baseline are flagged per-row too.
    EXPECT_NE(table.find("no-baseline"), std::string::npos);

    // A debug run over a release-only history is the same situation.
    std::vector<LedgerRecord> release_only;
    release_only.push_back(makeRecord(2e8, /*debug=*/false));
    GateResult r2 = checkAgainstHistory(
        makeRecord(1e6, /*debug=*/true), release_only);
    EXPECT_NE(formatGateResult(r2).find("no baseline, recording only"),
              std::string::npos);

    // Once a baseline exists the explicit count comes back.
    std::vector<LedgerRecord> history;
    history.push_back(makeRecord(1e8));
    GateResult r3 = checkAgainstHistory(makeRecord(1e8), history);
    std::string table3 = formatGateResult(r3);
    EXPECT_NE(table3.find("baseline runs considered: 1"),
              std::string::npos);
    EXPECT_EQ(table3.find("recording only"), std::string::npos);
}

TEST(Trajectory, FirstRecordPathStartsTheHistory)
{
    // The very first bench_smoke on a branch: no history file at all.
    TempHistory h;
    EXPECT_TRUE(loadLedger(h.path).empty());

    // The gate passes (recording only) and the append creates the
    // file with exactly that one record.
    LedgerRecord first = makeRecord(1e8);
    GateResult r = checkAgainstHistory(first, loadLedger(h.path));
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);
    ASSERT_TRUE(LedgerWriter(h.path).append(first));

    auto history = loadLedger(h.path);
    ASSERT_EQ(history.size(), 1u);
    EXPECT_DOUBLE_EQ(
        history[0].field("rate.interp_decoded_ir_per_s").value(), 1e8);

    // The second run gates against that first record.
    GateResult r2 = checkAgainstHistory(makeRecord(1.05e8), history);
    EXPECT_TRUE(r2.pass);
    EXPECT_EQ(r2.baselineRuns, 1u);
}

TEST(Trajectory, RecordFromBenchJsonCoreEngineAB)
{
    // Older BENCH_micro.json files carry a legacy/fast engine A/B
    // pair. The core rate comes from BM_CoreThroughput/fast alone:
    // entries of the removed second engines produce no series, and a
    // bare BM_CoreThroughput is not read as the core rate either.
    const std::string json = R"({
  "benchmarks": [
    { "name": "BM_InterpreterThroughput/legacy",
      "ir_instrs_per_s": 2.5e7 },
    { "name": "BM_CoreThroughput/legacy",
      "machine_instrs_per_s": 3.5e6 },
    { "name": "BM_CoreThroughput/fast",
      "machine_instrs_per_s": 7.0e7 }
  ]
})";
    LedgerRecord rec = recordFromBenchJson(json);
    EXPECT_DOUBLE_EQ(rec.field("rate.core_fast_machine_per_s").value(),
                     7.0e7);
    EXPECT_TRUE(isGatedSeries("rate.core_fast_machine_per_s"));
    EXPECT_EQ(seriesCount(rec), 1u);
    EXPECT_FALSE(rec.field("rate.core_machine_per_s").has_value());
    EXPECT_FALSE(rec.field("rate.interp_legacy_ir_per_s").has_value());
    EXPECT_FALSE(
        rec.field("speedup.core_fast_vs_legacy").has_value());

    LedgerRecord bare = recordFromBenchJson(R"({
  "benchmarks": [
    { "name": "BM_CoreThroughput", "machine_instrs_per_s": 6.7e7 }
  ]
})");
    EXPECT_EQ(seriesCount(bare), 0u);
}

TEST(Trajectory, GateFailsOnInjectedRegression)
{
    // Synthetic history whose decoded rate is far above the current
    // run: the gate must fail on the drop.
    std::vector<LedgerRecord> history;
    history.push_back(makeRecord(2e8));
    history.push_back(makeRecord(2.1e8));

    LedgerRecord slow = makeRecord(1e8); // > 25% below 2.1e8.
    GateResult r = checkAgainstHistory(slow, history);
    EXPECT_FALSE(r.pass);
    EXPECT_EQ(r.baselineRuns, 2u);
    bool found = false;
    for (const SeriesVerdict &v : r.verdicts) {
        if (v.name != "rate.interp_decoded_ir_per_s")
            continue;
        found = true;
        EXPECT_FALSE(v.pass);
        EXPECT_TRUE(v.gated);
        EXPECT_DOUBLE_EQ(v.baseline, 2.1e8);
        EXPECT_LT(v.deltaPct, -25.0);
    }
    EXPECT_TRUE(found);
    // The rendered table names the failure.
    std::string table = formatGateResult(r);
    EXPECT_NE(table.find("FAIL"), std::string::npos);

    // A small wobble within the threshold passes.
    GateResult ok = checkAgainstHistory(makeRecord(1.9e8), history);
    EXPECT_TRUE(ok.pass);
}

TEST(Trajectory, UngatedSeriesNeverFail)
{
    std::vector<LedgerRecord> history;
    history.push_back(makeRecord(1e8));
    LedgerRecord cur = makeRecord(1e8);
    // Blow up the informational overhead series; the gate ignores it.
    cur.setField("obs.trace_overhead_pct", 50.0);
    GateResult r = checkAgainstHistory(cur, history);
    EXPECT_TRUE(r.pass);
}

TEST(Trajectory, DebugAndReleaseBaselinesAreSeparate)
{
    // A fast release history must not gate a slow debug run.
    std::vector<LedgerRecord> history;
    history.push_back(makeRecord(2e8, /*debug=*/false));
    history.push_back(makeRecord(2e8, /*debug=*/false));

    LedgerRecord debug_run = makeRecord(1e7, /*debug=*/true);
    GateResult r = checkAgainstHistory(debug_run, history);
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);

    // And a debug baseline does gate the next debug run.
    history.push_back(makeRecord(1e7, /*debug=*/true));
    GateResult r2 =
        checkAgainstHistory(makeRecord(1e6, /*debug=*/true), history);
    EXPECT_FALSE(r2.pass);
    EXPECT_EQ(r2.baselineRuns, 1u);
}

TEST(Trajectory, WindowAndPerSeriesThresholds)
{
    // Six records; the window of 5 must ignore the oldest (fastest).
    std::vector<LedgerRecord> history;
    history.push_back(makeRecord(9e8));
    for (int i = 0; i < 5; ++i)
        history.push_back(makeRecord(1e8));

    GateOptions opts;
    opts.window = 5;
    GateResult r = checkAgainstHistory(makeRecord(0.9e8), history, opts);
    EXPECT_TRUE(r.pass) << "9e8 outside the window must not gate";

    // Per-series override tightens the default 25% threshold.
    opts.perSeriesDropPct["rate.interp_decoded_ir_per_s"] = 5.0;
    GateResult tight =
        checkAgainstHistory(makeRecord(0.9e8), history, opts);
    EXPECT_FALSE(tight.pass);
}

TEST(Trajectory, RecordFromBenchJsonExtractsSeries)
{
    const std::string json = R"({
  "context": {
    "date": "2026-08-08T00:00:00+00:00"
  },
  "benchmarks": [
    {
      "name": "BM_InterpreterThroughput/decoded",
      "ir_instrs_per_s": 1.23e8
    },
    {
      "name": "BM_InterpreterProfiledThroughput/decoded",
      "ir_instrs_per_s": 4.5e7
    },
    {
      "name": "BM_CoreThroughput/fast",
      "machine_instrs_per_s": 6.7e7
    }
  ],
  "smoke": {"schema_version":1,"kind":"smoke","fields":{
    "grid.fig08_matrix.serial_sec":0.46,"speedup.fig08_matrix":3.2,
    "rate.obs_disabled_ir_per_s":1.2e8,"obs.trace_overhead_pct":0.5,
    "obs.gate_within_1pct":1}}
})";
    LedgerRecord rec =
        recordFromBenchJson(json, BuildInfo{"RelWithDebInfo", true});
    EXPECT_EQ(rec.kind, "trajectory");
    EXPECT_EQ(rec.field("record.debug_build"), 0);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.interp_decoded_ir_per_s").value(), 1.23e8);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.interp_profiled_ir_per_s").value(), 4.5e7);
    EXPECT_DOUBLE_EQ(rec.field("rate.core_fast_machine_per_s").value(),
                     6.7e7);
    EXPECT_DOUBLE_EQ(rec.field("speedup.fig08_matrix").value(), 3.2);
    EXPECT_DOUBLE_EQ(rec.field("rate.obs_disabled_ir_per_s").value(),
                     1.2e8);
    EXPECT_DOUBLE_EQ(rec.field("obs.trace_overhead_pct").value(), 0.5);
    // The smoke record's other numbers stay in BENCH_micro.json.
    EXPECT_FALSE(rec.field("grid.fig08_matrix.serial_sec").has_value());
    EXPECT_FALSE(rec.field("obs.gate_within_1pct").has_value());
    EXPECT_FALSE(rec.field("rate.no_such_series").has_value());
    EXPECT_EQ(seriesCount(rec), 6u);

    LedgerRecord dbg =
        recordFromBenchJson("{}", BuildInfo{"Debug", false});
    EXPECT_EQ(dbg.field("record.debug_build"), 1);
}

TEST(Trajectory, RecordFromBenchJsonReadsOnlyEachEntrysOwnCounters)
{
    // An entry without the counter gives no series: an errored
    // workload run must not take a later benchmark's items_per_second,
    // nor a core entry the gated core rate of a later entry. A brace
    // inside a string does not end the entry early.
    const std::string json = R"({
  "benchmarks": [
    {
      "name": "BM_CoreWorkload/qsort",
      "run_name": "BM_CoreWorkload/qsort",
      "error_occurred": true,
      "error_message": "fatal: } in \"main\" {"
    },
    {
      "name": "BM_CompileBaseline",
      "run_name": "BM_CompileBaseline",
      "items_per_second": 1500
    },
    {
      "name": "BM_CoreThroughput/fast",
      "run_name": "BM_CoreThroughput/fast",
      "real_time": 12.5
    },
    {
      "name": "BM_CoreWorkload/susan-edges",
      "run_name": "BM_CoreWorkload/susan-edges",
      "items_per_second": 2.4e8,
      "machine_instrs_per_s": 9.9e9
    }
  ]
})";
    LedgerRecord rec = recordFromBenchJson(json);
    EXPECT_FALSE(rec.field("rate.core_workload_qsort_per_s").has_value());
    EXPECT_FALSE(rec.field("rate.core_fast_machine_per_s").has_value());
    EXPECT_DOUBLE_EQ(
        rec.field("rate.core_workload_susan_edges_per_s").value(), 2.4e8);
    EXPECT_EQ(seriesCount(rec), 1u);
}

TEST(Trajectory, RecordFromBenchJsonReadsEachSectionByStructure)
{
    // The smoke series come from the `smoke` member's fields alone: the
    // sections older files carried, and members of the same name
    // elsewhere, are not theirs. A rate or speedup counts only when it
    // is > 0; the tracing overhead counts whatever its sign.
    const std::string json = R"({
  "benchmarks": [],
  "experiment_engine": {
    "threads": 4,
    "grids": [
      { "name": "fig16_grid_8x8", "speedup": 3.2 }
    ]
  },
  "observability": {
    "disabled_rate": 7e8,
    "enabled_overhead_pct": 0.5
  },
  "smoke": {"schema_version":1,"kind":"smoke",
    "speedup.fig08_matrix":9.5,
    "fields":{"obs.trace_overhead_pct":-0.25,"speedup.fig08_matrix":2.5,
      "speedup.fig16_grid_8x8":0,"rate.obs_disabled_ir_per_s":-1,
      "speedup.lint":4}}
})";
    LedgerRecord rec =
        recordFromBenchJson(json, BuildInfo{"RelWithDebInfo", true});
    EXPECT_DOUBLE_EQ(rec.field("obs.trace_overhead_pct").value(), -0.25);
    EXPECT_DOUBLE_EQ(rec.field("speedup.fig08_matrix").value(), 2.5);
    EXPECT_FALSE(rec.field("speedup.fig16_grid_8x8").has_value());
    EXPECT_FALSE(rec.field("rate.obs_disabled_ir_per_s").has_value());
    EXPECT_FALSE(rec.field("speedup.lint").has_value());
    EXPECT_EQ(seriesCount(rec), 2u);

    // Older files' sections alone give no smoke series.
    LedgerRecord old = recordFromBenchJson(
        R"({"experiment_engine": {"grids": [{"name": "fig08_matrix",)"
        R"( "speedup": 3.2}]}, "observability": {"disabled_rate": 7e8}})");
    EXPECT_EQ(seriesCount(old), 0u);
}

TEST(Trajectory, MalformedBenchJsonThrowsNamingTheOffset)
{
    const std::string torn =
        R"({"benchmarks": [{"name": "BM_CoreThroughput/fast", )"
        R"("machine_instrs_per_s": 2.2e8})";
    try {
        recordFromBenchJson(torn);
        ADD_FAILURE() << "a torn BENCH file was read";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.offset(), torn.size());
    }
    EXPECT_THROW(benchCounter(torn, "BM_CoreThroughput/fast",
                              "machine_instrs_per_s"),
                 JsonError);
    EXPECT_THROW(recordFromBenchJson(R"({"context": {"num_cpus": 4x}})"),
                 JsonError);

    // A smoke member that is no ledger record, or one from a newer
    // schema, is named rather than read as no series.
    for (const std::string smoke :
         {R"({"schema_version":1})", R"({"fields":{}})",
          R"({"schema_version":2,"fields":{}})",
          R"({"schema_version":1,"fields":{"speedup.x":"3"}})"}) {
        const std::string json = R"({"benchmarks": [], "smoke": )" +
                                 smoke + "}";
        try {
            recordFromBenchJson(json);
            ADD_FAILURE() << "read " << smoke;
        } catch (const JsonError &e) {
            EXPECT_GE(e.offset(), json.find("\"smoke\"")) << smoke;
        }
    }
}

TEST(Trajectory, BenchCounterIsAbsentWhenTheNamedEntryLacksIt)
{
    // `bitspec-paper smoke` reads the decoded interpreter rate with
    // benchCounter too: an errored decoded run must read as absent,
    // not as the profiled entry's rate that follows it.
    const std::string json = R"({
  "benchmarks": [
    {
      "name": "BM_InterpreterThroughput/decoded",
      "run_name": "BM_InterpreterThroughput/decoded",
      "error_occurred": true
    },
    {
      "name": "BM_InterpreterProfiledThroughput/decoded",
      "run_name": "BM_InterpreterProfiledThroughput/decoded",
      "ir_instrs_per_s": 1.25e8
    }
  ]
})";
    EXPECT_FALSE(benchCounter(json, "BM_InterpreterThroughput/decoded",
                              "ir_instrs_per_s")
                     .has_value());
    EXPECT_DOUBLE_EQ(
        benchCounter(json, "BM_InterpreterProfiledThroughput/decoded",
                     "ir_instrs_per_s")
            .value(),
        1.25e8);
    EXPECT_FALSE(benchCounter(json, "BM_NoSuchBenchmark",
                              "ir_instrs_per_s")
                     .has_value());
}

TEST(Trajectory, RecordFromBenchJsonPerWorkloadCoreRates)
{
    // BM_CoreWorkload/<workload> entries become ungated
    // rate.core_workload_<workload>_per_s series ('-' spelled '_'),
    // read from each entry's own items_per_second.
    const std::string json = R"({
  "benchmarks": [
    {
      "name": "BM_CoreThroughput/fast",
      "run_name": "BM_CoreThroughput/fast",
      "machine_instrs_per_s": 2.2e8
    },
    {
      "name": "BM_CoreWorkload/susan-edges",
      "run_name": "BM_CoreWorkload/susan-edges",
      "items_per_second": 2.4e8
    },
    {
      "name": "BM_CoreWorkload/stringsearch",
      "run_name": "BM_CoreWorkload/stringsearch",
      "items_per_second": 2.1e8
    },
    {
      "name": "BM_CoreWorkload/qsort",
      "run_name": "BM_CoreWorkload/qsort",
      "items_per_second": 8.3e7
    },
    {
      "name": "BM_CoreWorkload/susan-edges-min",
      "run_name": "BM_CoreWorkload/susan-edges-min",
      "items_per_second": 1.9e8
    }
  ]
})";
    LedgerRecord rec = recordFromBenchJson(json);
    EXPECT_EQ(seriesCount(rec), 5u);
    EXPECT_DOUBLE_EQ(rec.field("rate.core_fast_machine_per_s").value(),
                     2.2e8);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.core_workload_susan_edges_per_s").value(), 2.4e8);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.core_workload_stringsearch_per_s").value(),
        2.1e8);
    EXPECT_DOUBLE_EQ(rec.field("rate.core_workload_qsort_per_s").value(),
                     8.3e7);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.core_workload_susan_edges_min_per_s").value(),
        1.9e8);
    EXPECT_TRUE(isGatedSeries("rate.core_fast_machine_per_s"));
    EXPECT_FALSE(isGatedSeries("rate.core_workload_qsort_per_s"));
    EXPECT_FALSE(
        isGatedSeries("rate.core_workload_susan_edges_min_per_s"));

    // Recorded, never gated: a collapse of a workload rate passes.
    std::vector<LedgerRecord> history = {rec};
    LedgerRecord slow = rec;
    for (LedgerField &s : slow.fields)
        if (s.name.rfind("rate.core_workload_", 0) == 0)
            s.value /= 10;
    GateResult r = checkAgainstHistory(slow, history);
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 1u);
}

TEST(Trajectory, RecordFromBenchJsonPerWorkloadSqueezeRates)
{
    // BM_SqueezeWorkload/<workload> entries become ungated
    // rate.squeeze_workload_<workload>_per_s series, each read from
    // its own entry: an errored entry gives none, and the core
    // workload entries keep their own series.
    const std::string json = R"({
  "benchmarks": [
    {
      "name": "BM_CoreWorkload/qsort",
      "run_name": "BM_CoreWorkload/qsort",
      "items_per_second": 8.3e7
    },
    {
      "name": "BM_SqueezeWorkload/qsort",
      "run_name": "BM_SqueezeWorkload/qsort",
      "items_per_second": 2.1e6
    },
    {
      "name": "BM_SqueezeWorkload/rijndael",
      "run_name": "BM_SqueezeWorkload/rijndael",
      "error_occurred": true
    },
    {
      "name": "BM_SqueezeWorkload/susan-edges",
      "run_name": "BM_SqueezeWorkload/susan-edges",
      "items_per_second": 3.5e6
    }
  ]
})";
    LedgerRecord rec = recordFromBenchJson(json);
    EXPECT_EQ(seriesCount(rec), 3u);
    EXPECT_DOUBLE_EQ(rec.field("rate.core_workload_qsort_per_s").value(),
                     8.3e7);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.squeeze_workload_qsort_per_s").value(), 2.1e6);
    EXPECT_FALSE(
        rec.field("rate.squeeze_workload_rijndael_per_s").has_value());
    EXPECT_DOUBLE_EQ(
        rec.field("rate.squeeze_workload_susan_edges_per_s").value(),
        3.5e6);
    EXPECT_FALSE(isGatedSeries("rate.squeeze_workload_qsort_per_s"));

    // Recorded, never gated: a collapse of a squeeze rate passes.
    std::vector<LedgerRecord> history = {rec};
    LedgerRecord slow = rec;
    for (LedgerField &s : slow.fields)
        if (s.name.rfind("rate.", 0) == 0)
            s.value /= 10;
    EXPECT_TRUE(checkAgainstHistory(slow, history).pass);
}

TEST(Trajectory, RecordFromBenchJsonPerWorkloadBackendRates)
{
    // BM_BackendWorkload/<workload> entries become ungated
    // rate.backend_workload_<workload>_per_s series, each read from
    // its own entry: an errored entry gives none, and the squeeze
    // workload entries keep their own series.
    const std::string json = R"({
  "benchmarks": [
    {
      "name": "BM_SqueezeWorkload/qsort",
      "run_name": "BM_SqueezeWorkload/qsort",
      "items_per_second": 2.1e6
    },
    {
      "name": "BM_BackendWorkload/qsort",
      "run_name": "BM_BackendWorkload/qsort",
      "items_per_second": 1.4e6
    },
    {
      "name": "BM_BackendWorkload/rijndael",
      "run_name": "BM_BackendWorkload/rijndael",
      "error_occurred": true
    },
    {
      "name": "BM_BackendWorkload/stringsearch",
      "run_name": "BM_BackendWorkload/stringsearch",
      "items_per_second": 1.5e6
    }
  ]
})";
    LedgerRecord rec = recordFromBenchJson(json);
    EXPECT_EQ(seriesCount(rec), 3u);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.squeeze_workload_qsort_per_s").value(), 2.1e6);
    EXPECT_DOUBLE_EQ(
        rec.field("rate.backend_workload_qsort_per_s").value(), 1.4e6);
    EXPECT_FALSE(
        rec.field("rate.backend_workload_rijndael_per_s").has_value());
    EXPECT_DOUBLE_EQ(
        rec.field("rate.backend_workload_stringsearch_per_s").value(),
        1.5e6);
    EXPECT_FALSE(isGatedSeries("rate.backend_workload_qsort_per_s"));

    // Recorded, never gated: a collapse of a backend rate passes.
    std::vector<LedgerRecord> history = {rec};
    LedgerRecord slow = rec;
    for (LedgerField &s : slow.fields)
        if (s.name.rfind("rate.", 0) == 0)
            s.value /= 10;
    EXPECT_TRUE(checkAgainstHistory(slow, history).pass);
}

TEST(Trajectory, BuildFlavourIsThisBuildNotLibbenchmarks)
{
    // google-benchmark's library_build_type describes how libbenchmark
    // was built; it must not label the measured code either way.
    LedgerRecord opt = recordFromBenchJson(
        R"({"context": {"library_build_type": "debug"}})",
        BuildInfo{"RelWithDebInfo", true});
    EXPECT_EQ(opt.field("record.debug_build"), 0);
    LedgerRecord asserts = recordFromBenchJson(
        R"({"context": {"library_build_type": "release"}})",
        BuildInfo{"RelWithDebInfo", false});
    EXPECT_EQ(asserts.field("record.debug_build"), 1)
        << "assertions on is a debug run";

    // By default the record carries the flag baked into this build,
    // whose flavour ends in its build type.
    const BuildInfo &self = thisBuild();
    EXPECT_FALSE(self.buildType.empty());
#ifdef NDEBUG
    EXPECT_TRUE(self.ndebug);
#else
    EXPECT_FALSE(self.ndebug);
#endif
    LedgerRecord rec = recordFromBenchJson(
        R"({"context": {"library_build_type": "debug"}})");
    EXPECT_EQ(rec.field("record.debug_build"), self.debug() ? 1 : 0);
    const std::string suffix = "-" + self.buildType;
    ASSERT_GT(buildFlavour().size(), suffix.size());
    EXPECT_EQ(buildFlavour().substr(buildFlavour().size() -
                                    suffix.size()),
              suffix);
}

TEST(Trajectory, HostCpusRoundTripsAndComesFromTheContext)
{
    LedgerRecord fromJson = recordFromBenchJson(
        R"({"context": {"num_cpus": 8, "mhz_per_cpu": 2100}})",
        BuildInfo{"RelWithDebInfo", true});
    EXPECT_EQ(fromJson.field("record.host_cpus"), 8);
    EXPECT_FALSE(recordFromBenchJson("{}", BuildInfo{"Release", true})
                     .field("record.host_cpus")
                     .has_value());
    EXPECT_FALSE(recordFromBenchJson(R"({"context": {"num_cpus": 0}})",
                                     BuildInfo{"Release", true})
                     .field("record.host_cpus")
                     .has_value());

    auto back = parseLedgerLine(toJsonLine(makeRecordOn(4, 1.5e8)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->field("record.host_cpus"), 4);
    EXPECT_DOUBLE_EQ(
        back->field("rate.interp_decoded_ir_per_s").value(), 1.5e8);
}

TEST(Trajectory, LinesWithoutHostCpusParseAsUnknown)
{
    // A line converted from one written before the field existed.
    const std::string old_line =
        R"({"schema_version":1,"kind":"trajectory",)"
        R"("flavour":"323851f-debug","bench":"bench_gate",)"
        R"("fields":{"rate.interp_decoded_ir_per_s":2.5e7,)"
        R"("record.debug_build":1,"record.unix_time":1786200564}})";
    auto rec = parseLedgerLine(old_line);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(validateLedgerRecord(*rec), "");
    EXPECT_FALSE(rec->field("record.host_cpus").has_value());
    EXPECT_EQ(rec->field("record.debug_build"), 1);
    EXPECT_DOUBLE_EQ(rec->field("rate.interp_decoded_ir_per_s").value(),
                     2.5e7);
    // Unknown stays unknown on the way out: no field is invented.
    EXPECT_EQ(toJsonLine(*rec).find("host_cpus"), std::string::npos);
}

TEST(Trajectory, OtherCpuCountsAreNoBaseline)
{
    // A fast 8-CPU history must not gate a 4-CPU run: parallel
    // speedups scale with the core count.
    std::vector<LedgerRecord> history = {
        makeRecordOn(8, 2e8), makeRecordOn(8, 2e8), makeRecord(2e8)};
    GateResult r = checkAgainstHistory(makeRecordOn(4, 1e7), history);
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);

    // The same count does gate; unknown gates only unknown.
    GateResult eight =
        checkAgainstHistory(makeRecordOn(8, 1e7), history);
    EXPECT_FALSE(eight.pass);
    EXPECT_EQ(eight.baselineRuns, 2u);
    GateResult unknown = checkAgainstHistory(makeRecord(1e7), history);
    EXPECT_FALSE(unknown.pass);
    EXPECT_EQ(unknown.baselineRuns, 1u);
}

} // namespace
} // namespace bitspec
