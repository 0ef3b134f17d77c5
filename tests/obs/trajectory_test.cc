#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "obs/trajectory.h"
#include "support/json.h"

namespace bitspec
{
namespace
{

TrajectoryRecord
makeRecord(double decoded_rate, bool debug = false)
{
    TrajectoryRecord rec;
    rec.gitSha = "abc1234";
    rec.buildType = debug ? "debug" : "release";
    rec.timestamp = "2026-01-01T00:00:00Z";
    rec.debugBuild = debug;
    rec.series.push_back(
        {"rate.interp_decoded_ir_per_s", decoded_rate});
    rec.series.push_back({"speedup.fig08_matrix", 3.5});
    rec.series.push_back({"obs.trace_overhead_pct", 0.4});
    return rec;
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

TEST(Trajectory, JsonLineRoundTrips)
{
    TrajectoryRecord rec = makeRecord(1.5e8);
    std::string line = toJsonLine(rec);
    auto back = parseJsonLine(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->schemaVersion, kTrajectorySchemaVersion);
    EXPECT_EQ(back->gitSha, "abc1234");
    EXPECT_EQ(back->buildType, "release");
    EXPECT_EQ(back->timestamp, "2026-01-01T00:00:00Z");
    EXPECT_FALSE(back->debugBuild);
    ASSERT_EQ(back->series.size(), rec.series.size());
    EXPECT_DOUBLE_EQ(
        back->value("rate.interp_decoded_ir_per_s").value(), 1.5e8);
    EXPECT_DOUBLE_EQ(back->value("speedup.fig08_matrix").value(), 3.5);

    TrajectoryRecord dbg = makeRecord(1e6, /*debug=*/true);
    auto dbg_back = parseJsonLine(toJsonLine(dbg));
    ASSERT_TRUE(dbg_back.has_value());
    EXPECT_TRUE(dbg_back->debugBuild);
}

TEST(Trajectory, CorruptAndNewerSchemaLinesAreSkipped)
{
    EXPECT_FALSE(parseJsonLine("").has_value());
    EXPECT_FALSE(parseJsonLine("   \t ").has_value());
    EXPECT_FALSE(parseJsonLine("not json at all").has_value());
    EXPECT_FALSE(parseJsonLine("{\"schema_version\":999,"
                               "\"series\":{\"rate.x\":1}}")
                     .has_value());
    // Truncated write: series value cut off mid-number is dropped.
    EXPECT_FALSE(
        parseJsonLine("{\"schema_version\":1,\"series\":{\"rate.x\":")
            .has_value());

    TempHistory h;
    {
        std::ofstream of(h.path);
        of << toJsonLine(makeRecord(1e8)) << "\n";
        of << "garbage line\n";
        of << toJsonLine(makeRecord(2e8)) << "\n";
    }
    auto history = loadHistory(h.path);
    ASSERT_EQ(history.size(), 2u);
    EXPECT_DOUBLE_EQ(
        history[1].value("rate.interp_decoded_ir_per_s").value(), 2e8);
}

TEST(Trajectory, LoaderSkipsTornFinalLine)
{
    // A crash mid-append can tear the last line at any byte. No strict
    // prefix of a record loads, not even one cut between series.
    TrajectoryRecord rec = makeRecord(1.5e8);
    rec.hostCpus = 4;
    const std::string full = toJsonLine(rec);
    TempHistory h;
    size_t loaded = 0, first = full.size();
    for (size_t cut = 0; cut < full.size(); ++cut) {
        {
            std::ofstream of(h.path, std::ios::trunc);
            of << full << "\n" << full << "\n" << full.substr(0, cut);
        }
        if (loadHistory(h.path).size() != 2) {
            ++loaded;
            first = std::min(first, cut);
        }
    }
    EXPECT_EQ(loaded, 0u) << loaded << " of " << full.size()
                          << " strict prefixes loaded, first the "
                          << first << "-byte one";
    auto history = loadHistory(h.path);
    ASSERT_EQ(history.size(), 2u);
    EXPECT_EQ(toJsonLine(history[1]), full);
}

TEST(Trajectory, TrailingBytesAndMalformedValuesAreSkipped)
{
    const std::string full = toJsonLine(makeRecord(1500));
    ASSERT_TRUE(parseJsonLine(full).has_value());
    EXPECT_FALSE(parseJsonLine(full + " garbage").has_value());
    EXPECT_FALSE(parseJsonLine(full + "}").has_value());
    for (const auto &[good, bad] :
         {std::pair<std::string, std::string>{
              "\"rate.interp_decoded_ir_per_s\":1500",
              "\"rate.interp_decoded_ir_per_s\":1500x"},
          {"\"debug_build\":false", "\"debug_build\":0"}}) {
        std::string line = full;
        ASSERT_NE(line.find(good), std::string::npos) << good;
        line.replace(line.find(good), good.size(), bad);
        EXPECT_FALSE(parseJsonLine(line).has_value()) << bad;
    }
}

TEST(Trajectory, SeriesNamesWithQuotesAndBackslashesRoundTrip)
{
    TrajectoryRecord rec = makeRecord(1e8);
    rec.series.push_back({"rate.\"quoted\"\\name", 2.5});
    auto back = parseJsonLine(toJsonLine(rec));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->series.size(), rec.series.size());
    EXPECT_EQ(back->value("rate.\"quoted\"\\name"), 2.5);
    EXPECT_EQ(toJsonLine(*back), toJsonLine(rec));
}

TEST(Trajectory, CommittedHistoryLinesReadBackByteForByte)
{
    // Every line bench_gate has appended reads as a record that
    // writes back the same bytes.
    std::ifstream in(BITSPEC_HISTORY_PATH);
    ASSERT_TRUE(in) << BITSPEC_HISTORY_PATH;
    size_t lines = 0;
    for (std::string line; std::getline(in, line); ++lines) {
        auto rec = parseJsonLine(line);
        ASSERT_TRUE(rec.has_value()) << "line " << lines + 1;
        EXPECT_EQ(toJsonLine(*rec), line) << "line " << lines + 1;
    }
    EXPECT_GE(lines, 6u);
    EXPECT_EQ(loadHistory(BITSPEC_HISTORY_PATH).size(), lines);
}

TEST(Trajectory, AppendCreatesFileAndParentDirs)
{
    TempHistory h;
    h.path += ".nested/deeper/hist.jsonl";
    ASSERT_TRUE(appendHistory(h.path, makeRecord(1e8)));
    ASSERT_TRUE(appendHistory(h.path, makeRecord(1.1e8)));
    auto history = loadHistory(h.path);
    EXPECT_EQ(history.size(), 2u);
    std::filesystem::remove_all(
        std::filesystem::path(h.path).parent_path().parent_path());
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
    std::vector<TrajectoryRecord> release_only;
    release_only.push_back(makeRecord(2e8, /*debug=*/false));
    GateResult r2 = checkAgainstHistory(
        makeRecord(1e6, /*debug=*/true), release_only);
    EXPECT_NE(formatGateResult(r2).find("no baseline, recording only"),
              std::string::npos);

    // Once a baseline exists the explicit count comes back.
    std::vector<TrajectoryRecord> history;
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
    EXPECT_TRUE(loadHistory(h.path).empty());

    // The gate passes (recording only) and the append creates the
    // file with exactly that one record.
    TrajectoryRecord first = makeRecord(1e8);
    GateResult r = checkAgainstHistory(first, loadHistory(h.path));
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);
    ASSERT_TRUE(appendHistory(h.path, first));

    auto history = loadHistory(h.path);
    ASSERT_EQ(history.size(), 1u);
    EXPECT_DOUBLE_EQ(
        history[0].value("rate.interp_decoded_ir_per_s").value(), 1e8);

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
    TrajectoryRecord rec = recordFromBenchJson(json);
    EXPECT_DOUBLE_EQ(rec.value("rate.core_fast_machine_per_s").value(),
                     7.0e7);
    EXPECT_TRUE(isGatedSeries("rate.core_fast_machine_per_s"));
    EXPECT_EQ(rec.series.size(), 1u);
    EXPECT_FALSE(rec.value("rate.core_machine_per_s").has_value());
    EXPECT_FALSE(rec.value("rate.interp_legacy_ir_per_s").has_value());
    EXPECT_FALSE(
        rec.value("speedup.core_fast_vs_legacy").has_value());

    TrajectoryRecord bare = recordFromBenchJson(R"({
  "benchmarks": [
    { "name": "BM_CoreThroughput", "machine_instrs_per_s": 6.7e7 }
  ]
})");
    EXPECT_TRUE(bare.series.empty());
}

TEST(Trajectory, GateFailsOnInjectedRegression)
{
    // Synthetic history whose decoded rate is far above the current
    // run: the gate must fail on the drop.
    std::vector<TrajectoryRecord> history;
    history.push_back(makeRecord(2e8));
    history.push_back(makeRecord(2.1e8));

    TrajectoryRecord slow = makeRecord(1e8); // > 25% below 2.1e8.
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
    std::vector<TrajectoryRecord> history;
    history.push_back(makeRecord(1e8));
    TrajectoryRecord cur = makeRecord(1e8);
    // Blow up the informational overhead series; the gate ignores it.
    for (TrajectorySeries &s : cur.series)
        if (s.name == "obs.trace_overhead_pct")
            s.value = 50.0;
    GateResult r = checkAgainstHistory(cur, history);
    EXPECT_TRUE(r.pass);
}

TEST(Trajectory, DebugAndReleaseBaselinesAreSeparate)
{
    // A fast release history must not gate a slow debug run.
    std::vector<TrajectoryRecord> history;
    history.push_back(makeRecord(2e8, /*debug=*/false));
    history.push_back(makeRecord(2e8, /*debug=*/false));

    TrajectoryRecord debug_run = makeRecord(1e7, /*debug=*/true);
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
    std::vector<TrajectoryRecord> history;
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
  "experiment_engine": {
    "grids": [
      { "name": "fig08_matrix", "speedup": 3.2 }
    ]
  },
  "observability": {
    "disabled_rate": 1.2e8,
    "enabled_overhead_pct": 0.5,
    "prof_off_rate": 1.19e8,
    "gate_within_1pct": true
  }
})";
    TrajectoryRecord rec =
        recordFromBenchJson(json, BuildInfo{"RelWithDebInfo", true});
    EXPECT_EQ(rec.buildType, "RelWithDebInfo");
    EXPECT_FALSE(rec.debugBuild);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.interp_decoded_ir_per_s").value(), 1.23e8);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.interp_profiled_ir_per_s").value(), 4.5e7);
    EXPECT_DOUBLE_EQ(rec.value("rate.core_fast_machine_per_s").value(),
                     6.7e7);
    EXPECT_DOUBLE_EQ(rec.value("speedup.fig08_matrix").value(), 3.2);
    EXPECT_DOUBLE_EQ(rec.value("rate.obs_disabled_ir_per_s").value(),
                     1.2e8);
    EXPECT_DOUBLE_EQ(rec.value("rate.obs_prof_off_ir_per_s").value(),
                     1.19e8);
    EXPECT_DOUBLE_EQ(rec.value("obs.trace_overhead_pct").value(), 0.5);
    EXPECT_FALSE(rec.value("rate.no_such_series").has_value());

    TrajectoryRecord dbg =
        recordFromBenchJson("{}", BuildInfo{"Debug", false});
    EXPECT_EQ(dbg.buildType, "Debug");
    EXPECT_TRUE(dbg.debugBuild);
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
    TrajectoryRecord rec = recordFromBenchJson(json);
    EXPECT_FALSE(rec.value("rate.core_workload_qsort_per_s").has_value());
    EXPECT_FALSE(rec.value("rate.core_fast_machine_per_s").has_value());
    EXPECT_DOUBLE_EQ(
        rec.value("rate.core_workload_susan_edges_per_s").value(), 2.4e8);
    EXPECT_EQ(rec.series.size(), 1u);
}

TEST(Trajectory, RecordFromBenchJsonReadsEachSectionByStructure)
{
    // Observability rates come from the observability object alone,
    // and speedups from experiment_engine.grids alone: a later
    // section's members of the same name are not theirs.
    const std::string json = R"({
  "benchmarks": [],
  "experiment_engine": {
    "threads": 4,
    "grids": [
      { "name": "fig08_matrix", "speedup": 3.2 }
    ]
  },
  "static_lint": [
    { "name": "CRC32", "speedup": 9.5 }
  ],
  "observability": {
    "enabled_overhead_pct": 0.5,
    "prof_off_rate": 1.19e8
  },
  "run_ledger": {
    "disabled_rate": 7e8,
    "overhead_pct": 0.6
  }
})";
    TrajectoryRecord rec =
        recordFromBenchJson(json, BuildInfo{"RelWithDebInfo", true});
    EXPECT_FALSE(rec.value("rate.obs_disabled_ir_per_s").has_value());
    EXPECT_DOUBLE_EQ(rec.value("rate.obs_prof_off_ir_per_s").value(),
                     1.19e8);
    EXPECT_DOUBLE_EQ(rec.value("obs.trace_overhead_pct").value(), 0.5);
    EXPECT_DOUBLE_EQ(rec.value("speedup.fig08_matrix").value(), 3.2);
    EXPECT_FALSE(rec.value("speedup.CRC32").has_value());
    EXPECT_EQ(rec.series.size(), 3u);
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
}

TEST(Trajectory, BenchCounterIsAbsentWhenTheNamedEntryLacksIt)
{
    // experiment_smoke reads the decoded interpreter rate with
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
    TrajectoryRecord rec = recordFromBenchJson(json);
    EXPECT_EQ(rec.series.size(), 5u);
    EXPECT_DOUBLE_EQ(rec.value("rate.core_fast_machine_per_s").value(),
                     2.2e8);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.core_workload_susan_edges_per_s").value(), 2.4e8);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.core_workload_stringsearch_per_s").value(),
        2.1e8);
    EXPECT_DOUBLE_EQ(rec.value("rate.core_workload_qsort_per_s").value(),
                     8.3e7);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.core_workload_susan_edges_min_per_s").value(),
        1.9e8);
    EXPECT_TRUE(isGatedSeries("rate.core_fast_machine_per_s"));
    EXPECT_FALSE(isGatedSeries("rate.core_workload_qsort_per_s"));
    EXPECT_FALSE(
        isGatedSeries("rate.core_workload_susan_edges_min_per_s"));

    // Recorded, never gated: a collapse of a workload rate passes.
    std::vector<TrajectoryRecord> history = {rec};
    TrajectoryRecord slow = rec;
    for (TrajectorySeries &s : slow.series)
        if (s.name != "rate.core_fast_machine_per_s")
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
    TrajectoryRecord rec = recordFromBenchJson(json);
    EXPECT_EQ(rec.series.size(), 3u);
    EXPECT_DOUBLE_EQ(rec.value("rate.core_workload_qsort_per_s").value(),
                     8.3e7);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.squeeze_workload_qsort_per_s").value(), 2.1e6);
    EXPECT_FALSE(
        rec.value("rate.squeeze_workload_rijndael_per_s").has_value());
    EXPECT_DOUBLE_EQ(
        rec.value("rate.squeeze_workload_susan_edges_per_s").value(),
        3.5e6);
    EXPECT_FALSE(isGatedSeries("rate.squeeze_workload_qsort_per_s"));

    // Recorded, never gated: a collapse of a squeeze rate passes.
    std::vector<TrajectoryRecord> history = {rec};
    TrajectoryRecord slow = rec;
    for (TrajectorySeries &s : slow.series)
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
    TrajectoryRecord rec = recordFromBenchJson(json);
    EXPECT_EQ(rec.series.size(), 3u);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.squeeze_workload_qsort_per_s").value(), 2.1e6);
    EXPECT_DOUBLE_EQ(
        rec.value("rate.backend_workload_qsort_per_s").value(), 1.4e6);
    EXPECT_FALSE(
        rec.value("rate.backend_workload_rijndael_per_s").has_value());
    EXPECT_DOUBLE_EQ(
        rec.value("rate.backend_workload_stringsearch_per_s").value(),
        1.5e6);
    EXPECT_FALSE(isGatedSeries("rate.backend_workload_qsort_per_s"));

    // Recorded, never gated: a collapse of a backend rate passes.
    std::vector<TrajectoryRecord> history = {rec};
    TrajectoryRecord slow = rec;
    for (TrajectorySeries &s : slow.series)
        s.value /= 10;
    EXPECT_TRUE(checkAgainstHistory(slow, history).pass);
}

TEST(Trajectory, BuildFlavourIsThisBuildNotLibbenchmarks)
{
    // google-benchmark's library_build_type describes how libbenchmark
    // was built; it must not label the measured code either way.
    TrajectoryRecord opt = recordFromBenchJson(
        R"({"context": {"library_build_type": "debug"}})",
        BuildInfo{"RelWithDebInfo", true});
    EXPECT_EQ(opt.buildType, "RelWithDebInfo");
    EXPECT_FALSE(opt.debugBuild);
    TrajectoryRecord asserts = recordFromBenchJson(
        R"({"context": {"library_build_type": "release"}})",
        BuildInfo{"RelWithDebInfo", false});
    EXPECT_TRUE(asserts.debugBuild) << "assertions on is a debug run";

    // By default the record carries the flavour baked into this build.
    const BuildInfo &self = thisBuild();
    EXPECT_FALSE(self.buildType.empty());
#ifdef NDEBUG
    EXPECT_TRUE(self.ndebug);
#else
    EXPECT_FALSE(self.ndebug);
#endif
    TrajectoryRecord rec = recordFromBenchJson(
        R"({"context": {"library_build_type": "debug"}})");
    EXPECT_EQ(rec.buildType, self.buildType);
    EXPECT_EQ(rec.debugBuild, self.debug());
}

TEST(Trajectory, HostCpusRoundTripsAndComesFromTheContext)
{
    TrajectoryRecord rec = makeRecord(1.5e8);
    rec.hostCpus = 4;
    auto back = parseJsonLine(toJsonLine(rec));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->hostCpus, 4u);
    EXPECT_DOUBLE_EQ(
        back->value("rate.interp_decoded_ir_per_s").value(), 1.5e8);

    TrajectoryRecord fromJson = recordFromBenchJson(
        R"({"context": {"num_cpus": 8, "mhz_per_cpu": 2100}})",
        BuildInfo{"RelWithDebInfo", true});
    EXPECT_EQ(fromJson.hostCpus, 8u);
    EXPECT_EQ(recordFromBenchJson("{}", BuildInfo{"Release", true})
                  .hostCpus,
              0u);
}

TEST(Trajectory, LinesWithoutHostCpusParseAsUnknown)
{
    // A line as written before the field existed.
    const std::string old_line =
        R"({"schema_version":1,"git_sha":"323851f","build_type":"debug",)"
        R"("timestamp":"2026-08-08T14:49:24Z","debug_build":true,)"
        R"("series":{"rate.interp_decoded_ir_per_s":2.5e7}})";
    auto rec = parseJsonLine(old_line);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->hostCpus, 0u);
    EXPECT_TRUE(rec->debugBuild);
    EXPECT_DOUBLE_EQ(rec->value("rate.interp_decoded_ir_per_s").value(),
                     2.5e7);
    // Unknown stays unknown on the way out: no field is invented.
    EXPECT_EQ(toJsonLine(*rec).find("host_cpus"), std::string::npos);
}

TEST(Trajectory, OtherCpuCountsAreNoBaseline)
{
    // A fast 8-CPU history must not gate a 4-CPU run: parallel
    // speedups scale with the core count.
    std::vector<TrajectoryRecord> history;
    for (unsigned cpus : {8u, 8u, 0u}) {
        history.push_back(makeRecord(2e8));
        history.back().hostCpus = cpus;
    }
    TrajectoryRecord four = makeRecord(1e7);
    four.hostCpus = 4;
    GateResult r = checkAgainstHistory(four, history);
    EXPECT_TRUE(r.pass);
    EXPECT_EQ(r.baselineRuns, 0u);

    // The same count does gate; unknown gates only unknown.
    GateResult eight = checkAgainstHistory(
        [] {
            TrajectoryRecord rec = makeRecord(1e7);
            rec.hostCpus = 8;
            return rec;
        }(),
        history);
    EXPECT_FALSE(eight.pass);
    EXPECT_EQ(eight.baselineRuns, 2u);
    GateResult unknown = checkAgainstHistory(makeRecord(1e7), history);
    EXPECT_FALSE(unknown.pass);
    EXPECT_EQ(unknown.baselineRuns, 1u);
}

} // namespace
} // namespace bitspec
