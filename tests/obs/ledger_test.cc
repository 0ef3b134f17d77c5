#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/ledger.h"

namespace bitspec
{
namespace
{

/** Temp ledger file removed at scope exit. */
struct TempLedger
{
    TempLedger()
    {
        path = (std::filesystem::temp_directory_path() /
                ("bitspec_ledger_" +
                 std::to_string(static_cast<unsigned long long>(
                     reinterpret_cast<uintptr_t>(this))) +
                 ".jsonl"))
                   .string();
        std::remove(path.c_str());
    }
    ~TempLedger() { std::remove(path.c_str()); }
    std::string path;
};

/** A cell record that passes validateLedgerRecord: full provenance
 *  plus every required telemetry field, with an exactly-summing
 *  energy breakdown (addition order matches EnergyBreakdown::total:
 *  alu + regfile + dcache + icache + pipeline). */
LedgerRecord
makeValidCell()
{
    LedgerRecord rec;
    rec.kind = "cell";
    rec.flavour = "abc1234-release-0123456789abcdef";
    rec.bench = "test_ledger";
    rec.workload = "CRC32";
    rec.cellKey = "CRC32;src=1;rseed=2";
    rec.systemKey = "CRC32;src=1;flavour=abc";
    rec.artifactKey = "0123456789abcdef0123456789abcdef";
    rec.cacheSource = "compile";
    rec.engine = "fast";
    rec.policy = "hardware";
    rec.profileSeed = 0;
    rec.runSeed = 1;
    rec.policySeed = 0x5eed;
    rec.outputChecksum = "00000000deadbeef";
    rec.env = {{"BITSPEC_LOG", "warn"}};

    rec.setField("counters.instructions", 1000);
    rec.setField("counters.cycles", 1500);
    rec.setField("counters.misspeculations", 3);
    rec.setField("cache.l1i.accesses", 1000);
    rec.setField("cache.l1d.accesses", 200);
    rec.setField("cache.l2.accesses", 20);
    rec.setField("dram.reads", 2);
    rec.setField("dram.writes", 1);
    const double alu = 1.25, regfile = 2.5, dcache = 0.125,
                 icache = 3.0, pipeline = 4.75;
    rec.setField("energy.alu_pj", alu);
    rec.setField("energy.regfile_pj", regfile);
    rec.setField("energy.dcache_pj", dcache);
    rec.setField("energy.icache_pj", icache);
    rec.setField("energy.pipeline_pj", pipeline);
    rec.setField("energy.model_pj",
                 alu + regfile + dcache + icache + pipeline);
    rec.setField("energy.total_pj", 12.0);
    rec.setField("energy.epi_pj", 0.012);
    rec.setField("run.return", 42);
    rec.setField("run.wall_sec", 0.001);
    return rec;
}

TEST(Ledger, GoldenSerialization)
{
    LedgerRecord rec;
    rec.kind = "cell";
    rec.flavour = "f";
    rec.bench = "b";
    rec.workload = "w";
    rec.cellKey = "ck";
    rec.systemKey = "sk";
    rec.artifactKey = "ak";
    rec.cacheSource = "compile";
    rec.engine = "fast";
    rec.policy = "hardware";
    rec.profileSeed = 1;
    rec.runSeed = 2;
    rec.policySeed = 3;
    rec.outputChecksum = "00000000deadbeef";
    rec.env = {{"BITSPEC_LOG", "debug"}};
    rec.setField("counters.cycles", 8);
    rec.setField("a.b", 1.5);
    LedgerRegionRow region;
    region.function = "main";
    region.regionId = 2;
    region.srcLine = 10;
    region.entries = 5;
    region.misspecs = 1;
    region.specInsts = 7;
    region.handlerInsts = 3;
    region.handlerCycles = 4;
    rec.regions.push_back(region);
    LedgerHeatRow heat;
    heat.function = "main";
    heat.block = "bb3";
    heat.regionId = 2;
    heat.srcLine = 10;
    heat.entries = 5;
    heat.insts = 6;
    heat.cycles = 7;
    heat.misspecs = 1;
    rec.heat.push_back(heat);

    // Pinned schema: any change here is a schema change and must bump
    // kLedgerSchemaVersion. Fields and env serialize sorted by name.
    EXPECT_EQ(
        toJsonLine(rec),
        "{\"schema_version\":1,\"kind\":\"cell\",\"flavour\":\"f\","
        "\"bench\":\"b\",\"workload\":\"w\",\"cell_key\":\"ck\","
        "\"system_key\":\"sk\",\"artifact_key\":\"ak\","
        "\"cache_source\":\"compile\",\"engine\":\"fast\","
        "\"policy\":\"hardware\",\"profile_seed\":1,\"run_seed\":2,"
        "\"policy_seed\":3,\"output_checksum\":\"00000000deadbeef\","
        "\"env\":{\"BITSPEC_LOG\":\"debug\"},"
        "\"fields\":{\"a.b\":1.5,\"counters.cycles\":8},"
        "\"regions\":[{\"function\":\"main\",\"region\":2,"
        "\"line\":10,\"entries\":5,\"misspecs\":1,\"spec_insts\":7,"
        "\"handler_insts\":3,\"handler_cycles\":4}],"
        "\"heat\":[{\"function\":\"main\",\"block\":\"bb3\","
        "\"region\":2,\"line\":10,\"entries\":5,\"insts\":6,"
        "\"cycles\":7,\"misspecs\":1}]}");
}

TEST(Ledger, JsonLineRoundTrips)
{
    LedgerRecord rec = makeValidCell();
    // Stress the encoder: 64-bit seeds beyond double precision,
    // values needing all 17 significant digits, escapable text.
    rec.profileSeed = 0xDEADBEEFDEADBEEFULL;
    rec.runSeed = 0xFFFFFFFFFFFFFFFFULL;
    rec.policySeed = (1ULL << 53) + 1;
    rec.env.push_back({"BITSPEC_QUOTE", "say \"hi\" \\ there"});
    rec.setField("run.wall_sec", 0.1); // Not exactly representable.
    rec.setField("energy.epi_pj", 1.0 / 3.0);
    LedgerRegionRow region;
    region.function = "crc32";
    region.regionId = 7;
    region.srcLine = 123;
    region.entries = 9;
    region.misspecs = 2;
    region.specInsts = 40;
    region.handlerInsts = 8;
    region.handlerCycles = 12;
    rec.regions.push_back(region);
    LedgerHeatRow heat;
    heat.function = "crc32";
    heat.block = "bb7";
    heat.regionId = 7;
    heat.srcLine = 123;
    heat.entries = 9;
    heat.insts = 400;
    heat.cycles = 600;
    heat.misspecs = 2;
    rec.heat.push_back(heat);

    auto back = parseLedgerLine(toJsonLine(rec));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->schemaVersion, rec.schemaVersion);
    EXPECT_EQ(back->kind, rec.kind);
    EXPECT_EQ(back->flavour, rec.flavour);
    EXPECT_EQ(back->bench, rec.bench);
    EXPECT_EQ(back->workload, rec.workload);
    EXPECT_EQ(back->cellKey, rec.cellKey);
    EXPECT_EQ(back->systemKey, rec.systemKey);
    EXPECT_EQ(back->artifactKey, rec.artifactKey);
    EXPECT_EQ(back->cacheSource, rec.cacheSource);
    EXPECT_EQ(back->engine, rec.engine);
    EXPECT_EQ(back->policy, rec.policy);
    EXPECT_EQ(back->profileSeed, rec.profileSeed);
    EXPECT_EQ(back->runSeed, rec.runSeed);
    EXPECT_EQ(back->policySeed, rec.policySeed);
    EXPECT_EQ(back->outputChecksum, rec.outputChecksum);

    // env round-trips sorted (the serializer sorts; ours was).
    ASSERT_EQ(back->env.size(), rec.env.size());
    EXPECT_EQ(back->env[1].first, "BITSPEC_QUOTE");
    EXPECT_EQ(back->env[1].second, "say \"hi\" \\ there");

    ASSERT_EQ(back->fields.size(), rec.fields.size());
    for (const LedgerField &f : rec.fields) {
        auto v = back->field(f.name);
        ASSERT_TRUE(v.has_value()) << f.name;
        // Bit-exact: %.17g round-trips every double.
        EXPECT_EQ(*v, f.value) << f.name;
    }

    ASSERT_EQ(back->regions.size(), 1u);
    EXPECT_EQ(back->regions[0].function, "crc32");
    EXPECT_EQ(back->regions[0].regionId, 7);
    EXPECT_EQ(back->regions[0].srcLine, 123);
    EXPECT_EQ(back->regions[0].entries, 9u);
    EXPECT_EQ(back->regions[0].misspecs, 2u);
    EXPECT_EQ(back->regions[0].specInsts, 40u);
    EXPECT_EQ(back->regions[0].handlerInsts, 8u);
    EXPECT_EQ(back->regions[0].handlerCycles, 12u);

    ASSERT_EQ(back->heat.size(), 1u);
    EXPECT_EQ(back->heat[0].function, "crc32");
    EXPECT_EQ(back->heat[0].block, "bb7");
    EXPECT_EQ(back->heat[0].insts, 400u);
    EXPECT_EQ(back->heat[0].cycles, 600u);
}

TEST(Ledger, ValidatorAcceptsWellFormedCell)
{
    EXPECT_EQ(validateLedgerRecord(makeValidCell()), "");

    // A line written while the runner had an on-disk tier: cache
    // source "disk", and a flavour of git describe, build type and
    // snapshot schema hash. Still schema 1, still readable.
    std::string line = toJsonLine(makeValidCell());
    const std::string compile = "\"cache_source\":\"compile\"";
    ASSERT_NE(line.find(compile), std::string::npos);
    line.replace(line.find(compile), compile.size(),
                 "\"cache_source\":\"disk\"");
    ASSERT_NE(line.find("\"flavour\":\"abc1234-release-"
                        "0123456789abcdef\""),
              std::string::npos);
    std::optional<LedgerRecord> old = parseLedgerLine(line);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->schemaVersion, 1);
    EXPECT_EQ(old->cacheSource, "disk");
    EXPECT_EQ(old->flavour, "abc1234-release-0123456789abcdef");
    EXPECT_EQ(validateLedgerRecord(*old), "");
}

TEST(Ledger, SimSourceIsWrittenOnlyWhenSet)
{
    // Records from before the simulation tier carry no sim_source and
    // still validate; the member is written only when set.
    const LedgerRecord plain = makeValidCell();
    EXPECT_EQ(toJsonLine(plain).find("sim_source"), std::string::npos);
    EXPECT_EQ(validateLedgerRecord(plain), "");

    for (const char *source : {"simulate", "memory"}) {
        LedgerRecord rec = makeValidCell();
        rec.simSource = source;
        const std::string line = toJsonLine(rec);
        EXPECT_NE(line.find("\"cache_source\":\"compile\",\"sim_source\":\"" +
                            std::string(source) + "\",\"engine\""),
                  std::string::npos)
            << line;
        std::optional<LedgerRecord> back = parseLedgerLine(line);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->simSource, source);
        EXPECT_EQ(toJsonLine(*back), line);
        EXPECT_EQ(validateLedgerRecord(*back), "");
    }

    LedgerRecord bad = makeValidCell();
    bad.simSource = "compile";
    EXPECT_NE(validateLedgerRecord(bad), "");
}

TEST(Ledger, ValidatorCatchesViolations)
{
    {
        LedgerRecord rec = makeValidCell();
        rec.cacheSource = "network";
        EXPECT_NE(validateLedgerRecord(rec), "");
    }
    {
        LedgerRecord rec = makeValidCell();
        rec.outputChecksum = "beef"; // Not 16 hex digits.
        EXPECT_NE(validateLedgerRecord(rec), "");
    }
    {
        LedgerRecord rec = makeValidCell();
        rec.fields.erase(rec.fields.begin()); // Drop a required field.
        EXPECT_NE(validateLedgerRecord(rec), "");
    }
    {
        LedgerRecord rec = makeValidCell();
        rec.setField("energy.model_pj",
                     *rec.field("energy.model_pj") + 1e-9);
        EXPECT_NE(validateLedgerRecord(rec), "");
    }
    {
        LedgerRecord rec = makeValidCell();
        rec.schemaVersion = kLedgerSchemaVersion + 1;
        EXPECT_NE(validateLedgerRecord(rec), "");
    }
}

TEST(Ledger, ValidatorChecksMatrixKind)
{
    LedgerRecord rec;
    rec.kind = "matrix";
    rec.flavour = "f";
    rec.bench = "b";
    EXPECT_NE(validateLedgerRecord(rec), ""); // Missing percentiles.
    rec.setField("matrix.cells", 4);
    rec.setField("wall.p50_sec", 0.1);
    rec.setField("wall.p95_sec", 0.2);
    rec.setField("wall.p99_sec", 0.3);
    EXPECT_EQ(validateLedgerRecord(rec), "");
}

TEST(Ledger, ValidatorChecksTrajectoryAndSmokeKinds)
{
    // A perf history line: the debug flag and the time are required,
    // the host's CPU count is not (older lines lack it).
    LedgerRecord trajectory;
    trajectory.kind = "trajectory";
    trajectory.flavour = "abc1234-Release";
    trajectory.bench = "bench_gate";
    trajectory.setField("rate.interp_decoded_ir_per_s", 2.4e8);
    EXPECT_NE(validateLedgerRecord(trajectory), "");
    trajectory.setField("record.debug_build", 0);
    trajectory.setField("record.unix_time", 1767225600);
    EXPECT_EQ(validateLedgerRecord(trajectory), "");

    // `bitspec-paper smoke`'s record: both overhead gates' verdicts.
    LedgerRecord smoke;
    smoke.kind = "smoke";
    smoke.flavour = "abc1234-Release";
    smoke.bench = "bitspec-paper/smoke";
    smoke.setField("obs.trace_overhead_pct", 0.1);
    smoke.setField("obs.gate_within_1pct", 1);
    smoke.setField("ledger.overhead_pct", 0.2);
    EXPECT_EQ(validateLedgerRecord(smoke),
              "smoke record missing ledger.gate_within_1pct");
    smoke.setField("ledger.gate_within_1pct", 1);
    EXPECT_EQ(validateLedgerRecord(smoke), "");
    smoke.bench.clear();
    EXPECT_EQ(validateLedgerRecord(smoke), "missing bench");

    smoke.kind = "trajectories";
    EXPECT_EQ(validateLedgerRecord(smoke),
              "unknown kind \"trajectories\"");
}

/** makeValidCell() with a region row and a heat row, reconciled:
 *  a record with every part a torn write could cut. */
LedgerRecord
makeDetailCell()
{
    LedgerRecord rec = makeValidCell();
    LedgerRegionRow region;
    region.function = "crc32";
    region.regionId = 7;
    region.srcLine = 123;
    region.entries = 9;
    region.misspecs = 2;
    region.specInsts = 40;
    region.handlerInsts = 8;
    region.handlerCycles = 12;
    rec.regions.push_back(region);
    LedgerHeatRow heat;
    heat.function = "crc32";
    heat.block = "bb7";
    heat.regionId = 7;
    heat.srcLine = 123;
    heat.entries = 9;
    heat.insts = 400;
    heat.cycles = 600;
    heat.misspecs = 2;
    rec.heat.push_back(heat);
    rec.setField("regions.unattributed_misspecs", 1);
    rec.setField("heat.total_insts", 1000);
    rec.setField("heat.total_cycles", 1500);
    rec.setField("heat.total_misspecs", 3);
    return rec;
}

TEST(Ledger, LoaderSkipsTornFinalLine)
{
    // A crash mid-append can tear the last line at any byte. No strict
    // prefix of a record loads, not even one cut between rows.
    TempLedger tmp;
    const std::string full = toJsonLine(makeDetailCell());
    size_t loaded = 0, first = full.size();
    for (size_t cut = 0; cut < full.size(); ++cut) {
        {
            std::ofstream of(tmp.path, std::ios::trunc);
            of << full << "\n" << full << "\n" << full.substr(0, cut);
        }
        if (loadLedger(tmp.path).size() != 2) {
            ++loaded;
            first = std::min(first, cut);
        }
    }
    EXPECT_EQ(loaded, 0u) << loaded << " of " << full.size()
                          << " strict prefixes loaded, first the "
                          << first << "-byte one";

    std::vector<LedgerRecord> recs = loadLedger(tmp.path);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(validateLedgerRecord(recs[0]), "");
    EXPECT_EQ(validateLedgerRecord(recs[1]), "");
    EXPECT_EQ(toJsonLine(recs[1]), full);
}

TEST(Ledger, LoaderNamesTheLinesItSkips)
{
    const std::string full = toJsonLine(makeValidCell());
    std::string newer = full;
    const std::string version =
        "\"schema_version\":" + std::to_string(kLedgerSchemaVersion);
    ASSERT_NE(newer.find(version), std::string::npos);
    newer.replace(newer.find(version), version.size(),
                  "\"schema_version\":" +
                      std::to_string(kLedgerSchemaVersion + 1));
    TempLedger tmp;
    {
        std::ofstream of(tmp.path);
        of << full << "\n"
           << newer << "\n"
           << full.substr(0, full.size() - 1) << "\n" // Corrupt.
           << full << "\n"
           << full.substr(0, 20); // Torn final line.
    }
    SkippedLines skipped;
    std::vector<LedgerRecord> recs = loadLedger(tmp.path, &skipped);
    EXPECT_EQ(recs.size(), 2u);
    EXPECT_EQ(skipped.corrupt, (std::vector<size_t>{3, 5}));
    EXPECT_EQ(skipped.newer, (std::vector<size_t>{2}));
    EXPECT_EQ(skipped.firstCorruptBeforeLast(), 3u);
    const std::vector<std::string> messages = skipped.messages(tmp.path);
    ASSERT_EQ(messages.size(), 3u);
    EXPECT_EQ(messages[0].rfind(tmp.path + ":3: ", 0), 0u)
        << messages[0];
    EXPECT_EQ(messages[2].rfind(tmp.path + ":2: ", 0), 0u)
        << messages[2];
}

TEST(Ledger, TrailingBytesAndMalformedValuesAreSkipped)
{
    const std::string full = toJsonLine(makeValidCell());
    ASSERT_TRUE(parseLedgerLine(full).has_value());
    EXPECT_FALSE(parseLedgerLine(full + "garbage").has_value());
    EXPECT_FALSE(parseLedgerLine(full + "}").has_value());

    // A field value with junk after its digits, and a seed that is not
    // an integer, drop the record instead of reading a prefix.
    for (const auto &[good, bad] :
         {std::pair<std::string, std::string>{"\"counters.cycles\":1500",
                                              "\"counters.cycles\":1500x"},
          {"\"run_seed\":1,", "\"run_seed\":1.5,"},
          {"\"engine\":\"fast\"", "\"engine\":7"}}) {
        std::string line = full;
        ASSERT_NE(line.find(good), std::string::npos) << good;
        line.replace(line.find(good), good.size(), bad);
        EXPECT_FALSE(parseLedgerLine(line).has_value()) << bad;
    }
}

TEST(Ledger, WriterAppendsAndReloads)
{
    TempLedger tmp;
    const std::filesystem::path root = tmp.path + ".nested";
    std::filesystem::remove_all(root);
    tmp.path = (root / "deeper" / "run.jsonl").string(); // Parents too.
    {
        LedgerWriter writer(tmp.path);
        ASSERT_TRUE(writer.ok());
        EXPECT_TRUE(writer.append(makeValidCell()));
        EXPECT_TRUE(writer.append(makeValidCell()));
        EXPECT_EQ(writer.recordsWritten(), 2u);
    }
    {
        // A second writer on the same path appends, never truncates.
        LedgerWriter writer(tmp.path);
        ASSERT_TRUE(writer.ok());
        EXPECT_TRUE(writer.append(makeValidCell()));
    }
    EXPECT_EQ(loadLedger(tmp.path).size(), 3u);
    std::filesystem::remove_all(root);
}

TEST(Ledger, ControlCharactersInStringsRoundTrip)
{
    // A BITSPEC_* value may hold any byte: the record must stay one
    // line, and every string must load back unchanged.
    LedgerRecord rec = makeValidCell();
    rec.env = {{"BITSPEC_NOTE", "run\nA\tB\x01\"q\"\\"}};
    rec.workload = "line\r\nbreak";
    rec.setField("rate.\"quoted\"\\name", 2.5);
    const std::string line = toJsonLine(rec);
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_EQ(line.find('\x01'), std::string::npos) << line;
    EXPECT_NE(line.find("run\\nA\\tB\\u0001"), std::string::npos)
        << line;

    TempLedger tmp;
    {
        LedgerWriter writer(tmp.path);
        ASSERT_TRUE(writer.ok());
        EXPECT_TRUE(writer.append(rec));
    }
    std::vector<LedgerRecord> recs = loadLedger(tmp.path);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].env, rec.env);
    EXPECT_EQ(recs[0].workload, rec.workload);
    EXPECT_EQ(recs[0].field("rate.\"quoted\"\\name"), 2.5);
    EXPECT_EQ(toJsonLine(recs[0]), line);
}

TEST(Ledger, CaptureBitspecEnvSeesKnobs)
{
    ::setenv("BITSPEC_LEDGER_TEST_KNOB", "on", 1);
    auto env = captureBitspecEnv();
    ::unsetenv("BITSPEC_LEDGER_TEST_KNOB");
    bool found = false;
    for (size_t i = 0; i < env.size(); ++i) {
        if (env[i].first == "BITSPEC_LEDGER_TEST_KNOB") {
            found = true;
            EXPECT_EQ(env[i].second, "on");
        }
        if (i > 0) { // Sorted by name.
            EXPECT_LE(env[i - 1].first, env[i].first);
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace bitspec
