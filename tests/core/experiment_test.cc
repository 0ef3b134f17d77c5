#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** Field-by-field equality over everything the benches print. */
void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.returnValue, b.returnValue) << what;
    EXPECT_EQ(a.outputChecksum, b.outputChecksum) << what;
    EXPECT_EQ(a.counters.instructions, b.counters.instructions) << what;
    EXPECT_EQ(a.counters.cycles, b.counters.cycles) << what;
    EXPECT_EQ(a.counters.loads, b.counters.loads) << what;
    EXPECT_EQ(a.counters.stores, b.counters.stores) << what;
    EXPECT_EQ(a.counters.misspeculations, b.counters.misspeculations)
        << what;
    EXPECT_EQ(a.counters.rfRead8, b.counters.rfRead8) << what;
    EXPECT_EQ(a.counters.rfWrite8, b.counters.rfWrite8) << what;
    EXPECT_EQ(a.totalEnergy, b.totalEnergy) << what;
    EXPECT_EQ(a.epi, b.epi) << what;
    EXPECT_EQ(a.meanVoltage, b.meanVoltage) << what;
}

/** Uncached serial reference: fresh System per cell. */
RunResult
serialReference(const ExperimentCell &c)
{
    const Workload &w = *c.workload;
    uint64_t pseed = c.profileSeed;
    System sys(w.source, c.config,
               [&w, pseed](Module &m) { w.setInput(m, pseed); });
    uint64_t rseed = c.runSeed;
    return sys.run([&w, rseed](Module &m) { w.setInput(m, rseed); });
}

/** One cell through @p runner's cache. */
RunResult
runOne(ExperimentRunner &runner, const Workload &w, const SystemConfig &c,
       uint64_t profile_seed = 0, uint64_t run_seed = 0)
{
    return runner.run({ExperimentCell(&w, c, profile_seed, run_seed)})
        .front();
}

std::vector<ExperimentCell>
smallMatrix()
{
    std::vector<ExperimentCell> cells;
    for (const char *name : {"CRC32", "dijkstra"}) {
        const Workload &w = getWorkload(name);
        for (uint64_t run_seed : {0ull, 1ull}) {
            cells.push_back(
                {&w, SystemConfig::baseline(), 0, run_seed});
            cells.push_back(
                {&w, SystemConfig::bitspec(), 0, run_seed});
        }
    }
    return cells;
}

TEST(ExperimentRunner, BitIdenticalToSerialAcrossThreadCounts)
{
    std::vector<ExperimentCell> cells = smallMatrix();

    std::vector<RunResult> ref;
    ref.reserve(cells.size());
    for (const ExperimentCell &c : cells)
        ref.push_back(serialReference(c));

    for (unsigned threads : {1u, 4u}) {
        ExperimentRunner runner(threads);
        std::vector<RunResult> got = runner.run(cells);
        ASSERT_EQ(got.size(), cells.size());
        for (size_t i = 0; i < cells.size(); ++i)
            expectSameResult(
                ref[i], got[i],
                "cell " + std::to_string(i) + " with " +
                    std::to_string(threads) + " threads");
    }
}

TEST(ExperimentRunner, CachesSystemAcrossRunSeeds)
{
    const Workload &w = getWorkload("CRC32");
    std::vector<ExperimentCell> cells;
    for (uint64_t run_seed = 0; run_seed < 5; ++run_seed)
        cells.push_back({&w, SystemConfig::bitspec(), 0, run_seed});

    ExperimentRunner runner(2);
    runner.run(cells);
    EXPECT_EQ(runner.stats().cells, 5u);
    EXPECT_EQ(runner.stats().systemsBuilt, 1u);
    EXPECT_EQ(runner.stats().cacheHits, 4u);

    // A different profile seed is a different System.
    runOne(runner, w, SystemConfig::bitspec(), /*profile_seed=*/1);
    EXPECT_EQ(runner.stats().systemsBuilt, 2u);

    // A different config is a different System even for the same
    // seeds.
    runOne(runner, w, SystemConfig::baseline());
    EXPECT_EQ(runner.stats().systemsBuilt, 3u);

    runner.clearCache();
    runOne(runner, w, SystemConfig::bitspec());
    EXPECT_EQ(runner.stats().systemsBuilt, 4u);
}

TEST(ExperimentRunner, CachedRunsAreOrderIndependent)
{
    // Run seeds out of order against one cached System; every result
    // must equal a fresh build's (the global-data snapshot restore).
    const Workload &w = getWorkload("sha");
    ExperimentRunner runner(1);
    for (uint64_t run_seed : {2ull, 0ull, 2ull, 1ull, 0ull}) {
        RunResult got =
            runOne(runner, w, SystemConfig::bitspec(), 0, run_seed);
        RunResult ref = serialReference(
            {&w, SystemConfig::bitspec(), 0, run_seed});
        expectSameResult(ref, got,
                         "run seed " + std::to_string(run_seed));
    }
    EXPECT_EQ(runner.stats().systemsBuilt, 1u);
}

TEST(ExperimentRunner, SystemKeySeparatesConfigs)
{
    const Workload &w = getWorkload("CRC32");
    std::string base =
        ExperimentRunner::systemKey(w, SystemConfig::baseline(), 0);
    std::string spec =
        ExperimentRunner::systemKey(w, SystemConfig::bitspec(), 0);
    EXPECT_NE(base, spec);
    EXPECT_EQ(base, ExperimentRunner::systemKey(
                        w, SystemConfig::baseline(), 0));
    EXPECT_NE(base, ExperimentRunner::systemKey(
                        w, SystemConfig::baseline(), 1));

    // Energy and DTS are evaluated per cell after the run: configs
    // that differ only there share a System key, and the cell key
    // tells them apart.
    SystemConfig tweaked = SystemConfig::baseline();
    tweaked.energy.rfRead32 += 0.125;
    EXPECT_EQ(base, ExperimentRunner::systemKey(w, tweaked, 0));
    EXPECT_EQ(base, ExperimentRunner::systemKey(
                        w, SystemConfig::dtsOnly(), 0));
    std::set<std::string> cell_keys;
    for (const SystemConfig &c :
         {SystemConfig::baseline(), tweaked, SystemConfig::dtsOnly()})
        cell_keys.insert(ExperimentRunner::cellKey({&w, c}));
    EXPECT_EQ(cell_keys.size(), 3u);
}

TEST(ExperimentRunner, SystemKeyHashMirrorsCanonicalKey)
{
    // The 128-bit hash (the cache key) is the hash of the canonical
    // string key, so it separates and equates exactly as the key
    // does.
    const Workload &w = getWorkload("CRC32");
    const Workload &w2 = getWorkload("dijkstra");
    Hash128 base = ExperimentRunner::systemKeyHash(
        w, SystemConfig::baseline(), 0);
    EXPECT_EQ(base, ExperimentRunner::systemKeyHash(
                        w, SystemConfig::baseline(), 0));

    std::vector<Hash128> keys = {base};
    auto expectFresh = [&keys](Hash128 k) {
        for (const Hash128 &seen : keys)
            EXPECT_FALSE(k == seen) << k.hex();
        keys.push_back(k);
    };
    expectFresh(
        ExperimentRunner::systemKeyHash(w, SystemConfig::bitspec(), 0));
    expectFresh(ExperimentRunner::systemKeyHash(
        w, SystemConfig::baseline(), 1));
    expectFresh(ExperimentRunner::systemKeyHash(
        w2, SystemConfig::baseline(), 0));
    SystemConfig nospec = SystemConfig::noSpeculation();
    expectFresh(ExperimentRunner::systemKeyHash(w, nospec, 0));

    SystemConfig tweaked = SystemConfig::baseline();
    tweaked.energy.rfRead32 += 0.125;
    EXPECT_EQ(base, ExperimentRunner::systemKeyHash(w, tweaked, 0));
    EXPECT_EQ(base, ExperimentRunner::systemKeyHash(
                        w, SystemConfig::dtsOnly(), 0));
    for (const SystemConfig &c :
         {SystemConfig::baseline(), SystemConfig::dtsPlusBitspec(),
          nospec}) {
        Hash128Builder h;
        h.update(ExperimentRunner::systemKey(w, c, 3));
        EXPECT_EQ(h.digest(), ExperimentRunner::systemKeyHash(w, c, 3));
    }
}

/** CRC32's dtsOnly cell at profile and run seed 0, as ledgers
 *  recorded it while the System key still held every energy and DTS
 *  field. */
constexpr const char *kDtsOnlyCellKey =
    "CRC32;src=17484535273190096986;isa=0;squeeze=0;heuristic=0;"
    "speculate=1;cmpElim=1;bitmask=1;staticKb=1;unroll=4;"
    "maxFn=2000;maxLoop=60;expand=1;dts=1;vNom=1.2;"
    "vTh=0.34999999999999998;alpha=1.3;vMin=0.69999999999999996;"
    "fLogic=0.62;fAddSub=0.78000000000000003;fMulDiv=1;"
    "fMem=0.94999999999999996;fBranch=0.69999999999999996;"
    "widthAware=0;fAddSub8=0.55000000000000004;fLogic8=0.5;"
    "errRate=0.0001;recE=60;eAlu32=3;eAlu8=0.75;eMulDiv=9;"
    "eRfR32=1.2;eRfW32=1.8;eRfR8=0.29999999999999999;"
    "eRfW8=0.45000000000000001;eIc=6;eDc=8;eL2=30;eDram=1500;"
    "ePipe=5;eMisspec=20;pseed=0;rseed=0;engine=default;"
    "policy=hardware;polseed=24301";

TEST(ExperimentRunner, EvaluationSettingsShareOneSystem)
{
    // Fig. 17's configurations: DTS, and its width-aware estimator,
    // change only what is evaluated after a run. Four cells compile
    // two Systems (baseline and bitspec code), and each cell returns
    // what a System built for its own config alone returns, although
    // the width-aware cell runs on a System built for the other DTS
    // cell.
    const Workload &w = getWorkload("CRC32");
    SystemConfig aware = SystemConfig::dtsPlusBitspec();
    aware.dtsParams.widthAware = true;
    std::vector<ExperimentCell> cells;
    for (const SystemConfig &c :
         {SystemConfig::baseline(), SystemConfig::dtsOnly(),
          SystemConfig::dtsPlusBitspec(), aware})
        cells.push_back({&w, c, 0, 0});

    ExperimentRunner runner(2);
    const std::vector<RunResult> got = runner.run(cells);
    EXPECT_EQ(runner.stats().systemsBuilt, 2u);
    EXPECT_EQ(runner.stats().cacheHits, 2u);
    EXPECT_EQ(runner.stats().trainings, 1u);
    ASSERT_EQ(got.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const RunResult ref = serialReference(cells[i]);
        const std::string what = "cell " + std::to_string(i);
        EXPECT_TRUE(got[i] == ref) << what;
        expectSameResult(ref, got[i], what);
    }
    // Each shared System's cells differ in energy alone.
    EXPECT_NE(got[0].totalEnergy, got[1].totalEnergy);
    EXPECT_NE(got[2].totalEnergy, got[3].totalEnergy);
    EXPECT_EQ(got[2].counters.cycles, got[3].counters.cycles);

    // The cell key keeps the bytes it had when the System key held
    // every energy and DTS field, so older ledgers still join.
    EXPECT_EQ(ExperimentRunner::cellKey(cells[1]), kDtsOnlyCellKey);
}

TEST(ExperimentRunner, WorkerExceptionPropagatesAndRunnerSurvives)
{
    Workload bad;
    bad.name = "bad-source";
    bad.source = "u32 main( { this does not parse";
    bad.setInput = [](Module &, uint64_t) {};

    const Workload &good = getWorkload("CRC32");
    ExperimentRunner runner(2);
    std::vector<ExperimentCell> cells = {
        {&good, SystemConfig::baseline(), 0, 0},
        {&bad, SystemConfig::baseline(), 0, 0},
        {&good, SystemConfig::bitspec(), 0, 0},
    };
    EXPECT_THROW(runner.run(cells), FatalError);

    // The failed build must not poison the runner or the cache.
    RunResult after = runOne(runner, good, SystemConfig::baseline());
    RunResult ref =
        serialReference({&good, SystemConfig::baseline(), 0, 0});
    expectSameResult(ref, after, "post-exception run");
}

/** The five compile-heavy configurations of one training key. */
std::vector<ExperimentCell>
fiveConfigs(const Workload &w, uint64_t profile_seed = 0)
{
    std::vector<ExperimentCell> cells;
    for (const SystemConfig &c :
         {SystemConfig::baseline(), SystemConfig::bitspec(Heuristic::Max),
          SystemConfig::bitspec(Heuristic::Avg),
          SystemConfig::bitspec(Heuristic::Min),
          SystemConfig::noSpeculation()})
        cells.push_back({&w, c, profile_seed, 0});
    return cells;
}

TEST(ExperimentRunner, TrainsOncePerTrainingKey)
{
    const Workload &w = getWorkload("CRC32");
    const std::vector<ExperimentCell> cells = fiveConfigs(w);
    std::vector<RunResult> ref;
    for (const ExperimentCell &c : cells)
        ref.push_back(serialReference(c));

    for (unsigned threads : {1u, 4u}) {
        const std::string what = std::to_string(threads) + " threads";
        trace::reset();
        trace::setEnabled(true);
        ExperimentRunner runner(threads);
        std::vector<RunResult> got = runner.run(cells);
        trace::setEnabled(false);

        const ExperimentStats st = runner.stats();
        EXPECT_EQ(st.systemsBuilt, 5u) << what;
        EXPECT_EQ(st.trainings, 1u) << what;
        EXPECT_EQ(st.trainingHits, 4u) << what;
        std::map<std::string, int> instants;
        for (const trace::Event &e : trace::snapshot())
            if (e.phase == 'i')
                ++instants[e.name];
        trace::reset();
        EXPECT_EQ(instants["train.miss"], 1) << what;
        EXPECT_EQ(instants["train.hit"], 4) << what;

        // A shared training compiles what a System's own does.
        ASSERT_EQ(got.size(), ref.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(got[i] == ref[i])
                << what << ", config " << i;
    }
}

TEST(ExperimentRunner, EachProfileSeedTrainsOnce)
{
    const Workload &w = getWorkload("CRC32");
    ExperimentRunner runner(2);
    std::vector<ExperimentCell> cells;
    for (uint64_t pseed : {0ull, 1ull}) {
        cells.push_back({&w, SystemConfig::baseline(), pseed, 0});
        cells.push_back({&w, SystemConfig::bitspec(), pseed, 0});
    }
    runner.run(cells);
    EXPECT_EQ(runner.stats().trainings, 2u);
    EXPECT_EQ(runner.stats().trainingHits, 2u);

    // Run seeds are not part of the training key either.
    runOne(runner, w, SystemConfig::noSpeculation(), 1, 5);
    EXPECT_EQ(runner.stats().trainings, 2u);
    EXPECT_EQ(runner.stats().trainingHits, 3u);

    // Other ExpanderOptions are another training.
    SystemConfig flat = SystemConfig::bitspec();
    flat.expander.enabled = false;
    runOne(runner, w, flat);
    EXPECT_EQ(runner.stats().trainings, 3u);
}

TEST(ExperimentRunner, FailedTrainingFailsEverySharer)
{
    std::atomic<int> inputs{0};
    Workload bad;
    bad.name = "bad-training";
    bad.source = getWorkload("CRC32").source;
    bad.setInput = [&inputs](Module &, uint64_t) {
        ++inputs;
        fatal("training input unavailable");
    };

    const Workload &good = getWorkload("CRC32");
    ExperimentRunner runner(4);
    EXPECT_THROW(runner.run(fiveConfigs(bad)), FatalError);
    EXPECT_EQ(inputs.load(), 1);
    EXPECT_EQ(runner.stats().trainings, 1u);
    EXPECT_EQ(runner.stats().trainingHits, 4u);

    // Every config sharing the key fails without training again,
    // including one whose System was never requested before.
    SystemConfig other = SystemConfig::bitspec();
    other.squeezeOpts.compareElimination = false;
    for (const SystemConfig &c :
         {SystemConfig::baseline(), SystemConfig::bitspec(), other})
        EXPECT_THROW(runOne(runner, bad, c), FatalError);
    EXPECT_EQ(inputs.load(), 1);
    EXPECT_EQ(runner.stats().trainings, 1u);

    // Other keys are unaffected.
    RunResult after = runOne(runner, good, SystemConfig::bitspec());
    EXPECT_TRUE(after ==
                serialReference({&good, SystemConfig::bitspec(), 0, 0}));

    // clearCache() forgets the failure: the next request retrains.
    runner.clearCache();
    EXPECT_THROW(runOne(runner, bad, SystemConfig::baseline()),
                 FatalError);
    EXPECT_EQ(inputs.load(), 2);
}

/** Two workloads x three configurations x three run seeds, run seed
 *  innermost: a System key's cells, and a training's keys, are
 *  adjacent, so one task per cell in matrix order would have several
 *  workers ask for one key (or training) at once. */
std::vector<ExperimentCell>
stagingMatrix()
{
    std::vector<ExperimentCell> cells;
    for (const char *name : {"CRC32", "dijkstra"}) {
        for (const SystemConfig &c :
             {SystemConfig::baseline(),
              SystemConfig::bitspec(Heuristic::Max),
              SystemConfig::bitspec(Heuristic::Min)}) {
            for (uint64_t run_seed : {0ull, 1ull, 2ull})
                cells.push_back({&getWorkload(name), c, 0, run_seed});
        }
    }
    return cells;
}

/** What one run() of a fresh runner returns and leaves behind: its
 *  results and stats, and its cache.* and train.* trace instants with
 *  their arguments (workload, inflight), sorted. */
struct RunFootprint
{
    std::vector<RunResult> results;
    ExperimentStats stats;
    std::vector<std::string> instants;
};

RunFootprint
footprintOf(unsigned threads, const std::vector<ExperimentCell> &cells)
{
    RunFootprint fp;
    trace::reset();
    trace::setEnabled(true);
    ExperimentRunner runner(threads);
    fp.results = runner.run(cells);
    trace::setEnabled(false);
    fp.stats = runner.stats();
    for (const trace::Event &e : trace::snapshot()) {
        if (e.phase != 'i' || (e.name.rfind("cache.", 0) != 0 &&
                               e.name.rfind("train.", 0) != 0))
            continue;
        std::string line = e.name;
        for (const auto &[key, value] : e.args)
            line += " " + key + "=" + value;
        fp.instants.push_back(line);
    }
    trace::reset();
    std::sort(fp.instants.begin(), fp.instants.end());
    return fp;
}

TEST(ExperimentRunner, StagedMatrixNeverWaitsAndCountsAsOneThreadDoes)
{
    const std::vector<ExperimentCell> cells = stagingMatrix();
    const RunFootprint serial = footprintOf(1, cells);
    const RunFootprint staged = footprintOf(4, cells);

    // Every key is built before a cell runs on it, so no lookup meets
    // a build in flight; each cell looks its key up exactly once.
    const ExperimentStats &st = staged.stats;
    EXPECT_EQ(st.cells, cells.size());
    EXPECT_EQ(st.inflightWaits, 0u);
    EXPECT_EQ(st.systemsBuilt + st.cacheHits, st.cells);
    EXPECT_EQ(st.trainings + st.trainingHits, st.systemsBuilt);
    EXPECT_EQ(st.systemsBuilt, 6u);
    EXPECT_EQ(st.trainings, 2u);

    const ExperimentStats &one = serial.stats;
    EXPECT_EQ(st.cells, one.cells);
    EXPECT_EQ(st.systemsBuilt, one.systemsBuilt);
    EXPECT_EQ(st.cacheHits, one.cacheHits);
    EXPECT_EQ(st.inflightWaits, one.inflightWaits);
    EXPECT_EQ(st.trainings, one.trainings);
    EXPECT_EQ(st.trainingHits, one.trainingHits);
    EXPECT_EQ(staged.instants, serial.instants);

    ASSERT_EQ(staged.results.size(), cells.size());
    ASSERT_EQ(serial.results.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(staged.results[i] == serial.results[i])
            << "cell " << i;
    }
}

/** Installs a ledger writer on a fresh file for one scope; detaches
 *  it and removes the file on exit. */
class ScopedLedger
{
  public:
    explicit ScopedLedger(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
        LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(path_));
    }

    ~ScopedLedger()
    {
        LedgerWriter::setGlobal(nullptr);
        std::remove(path_.c_str());
    }

    /** Every cell record so far, in file order. Closes the writer
     *  (the flush point) and opens a fresh one. */
    std::vector<LedgerRecord>
    takeCells()
    {
        LedgerWriter::setGlobal(nullptr);
        std::vector<LedgerRecord> out;
        for (LedgerRecord &r : loadLedger(path_))
            if (r.kind == "cell")
                out.push_back(std::move(r));
        std::remove(path_.c_str());
        LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(path_));
        return out;
    }

    /** cache_source of every cell record so far, by cell key. */
    std::map<std::string, std::string>
    takeCacheSources()
    {
        std::map<std::string, std::string> out;
        for (const LedgerRecord &r : takeCells())
            EXPECT_TRUE(out.emplace(r.cellKey, r.cacheSource).second)
                << "two records for " << r.cellKey;
        return out;
    }

  private:
    std::string path_;
};

TEST(ExperimentRunner, LedgerNamesEachKeysFirstCellItsCompile)
{
    ScopedLedger ledger("experiment_staging_ledger.jsonl");
    const std::vector<ExperimentCell> cells = stagingMatrix();
    ExperimentRunner runner(4);
    runner.run(cells);
    const std::map<std::string, std::string> first =
        ledger.takeCacheSources();

    // Exactly one "compile" per built key, on the key's first cell in
    // submission order, whichever worker finished first.
    size_t compiles = 0;
    std::set<std::string> seen;
    for (const ExperimentCell &c : cells) {
        const bool built =
            seen.insert(ExperimentRunner::systemKey(*c.workload, c.config,
                                                    c.profileSeed))
                .second;
        const std::string key = ExperimentRunner::cellKey(c);
        const auto it = first.find(key);
        ASSERT_NE(it, first.end()) << key;
        EXPECT_EQ(it->second, built ? "compile" : "memory") << key;
        compiles += it->second == "compile";
    }
    EXPECT_EQ(first.size(), cells.size());
    EXPECT_EQ(compiles, runner.stats().systemsBuilt);

    // A key cached before the run compiles nowhere.
    runner.run(cells);
    const std::map<std::string, std::string> again =
        ledger.takeCacheSources();
    EXPECT_EQ(again.size(), cells.size());
    for (const auto &[key, source] : again)
        EXPECT_EQ(source, "memory") << key;
    EXPECT_EQ(runner.stats().systemsBuilt, compiles);
}

TEST(ExperimentRunner, ClearCacheDropsTrainings)
{
    const Workload &w = getWorkload("CRC32");
    ExperimentRunner runner(1);
    runOne(runner, w, SystemConfig::bitspec());
    runOne(runner, w, SystemConfig::baseline());
    EXPECT_EQ(runner.stats().trainings, 1u);
    EXPECT_EQ(runner.stats().trainingHits, 1u);

    runner.clearCache();
    runOne(runner, w, SystemConfig::noSpeculation());
    EXPECT_EQ(runner.stats().trainings, 2u);
    EXPECT_EQ(runner.stats().trainingHits, 1u);
}

/** The code key of the System @p runner holds for (@p w, @p c) at
 *  profile seed 0. */
Hash128
codeKeyOf(ExperimentRunner &runner, const Workload &w,
          const SystemConfig &c)
{
    Hash128 key;
    runner.withSystem(w, c, 0,
                      [&key](const System &sys) { key = sys.codeKey(); });
    return key;
}

TEST(SimulationTier, SystemsOfOneCodeShareASimulation)
{
    // blowfish's bitspec-max and bitspec-avg Systems (profile seed 0)
    // have different keys but compile to identical code, so their
    // cells at one run seed share one simulation; each still returns
    // what a System built for it alone returns.
    const Workload &w = getWorkload("blowfish");
    const SystemConfig max = SystemConfig::bitspec(Heuristic::Max);
    const SystemConfig avg = SystemConfig::bitspec(Heuristic::Avg);
    ASSERT_NE(ExperimentRunner::systemKey(w, max, 0),
              ExperimentRunner::systemKey(w, avg, 0));
    std::vector<ExperimentCell> cells;
    for (uint64_t run_seed : {0ull, 1ull})
        for (const SystemConfig &c : {max, avg})
            cells.push_back({&w, c, 0, run_seed});

    ExperimentRunner runner(2);
    const std::vector<RunResult> got = runner.run(cells);
    const ExperimentStats st = runner.stats();
    EXPECT_EQ(st.systemsBuilt, 2u);
    EXPECT_EQ(st.simulations, 2u);
    EXPECT_EQ(st.simulationHits, 2u);
    EXPECT_EQ(codeKeyOf(runner, w, max), codeKeyOf(runner, w, avg));
    EXPECT_NE(codeKeyOf(runner, w, max),
              codeKeyOf(runner, w, SystemConfig::baseline()));
    ASSERT_EQ(got.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        EXPECT_TRUE(got[i] == serialReference(cells[i])) << "cell " << i;
}

TEST(SimulationTier, ServedDtsCellMatchesItsOwnSystem)
{
    // The DTS cell is served the bitspec-max cell's simulation (one
    // code, one run seed) and evaluates its own energy and DTS, with
    // its own System's compile stats.
    const Workload &w = getWorkload("blowfish");
    const std::vector<ExperimentCell> cells = {
        {&w, SystemConfig::bitspec(Heuristic::Max), 0, 1},
        {&w, SystemConfig::dtsPlusBitspec(Heuristic::Avg), 0, 1},
    };
    ExperimentRunner runner(1);
    const std::vector<RunResult> got = runner.run(cells);
    EXPECT_EQ(runner.stats().simulations, 1u);
    EXPECT_EQ(runner.stats().simulationHits, 1u);
    const RunResult ref = serialReference(cells[1]);
    EXPECT_TRUE(got[1] == ref);
    expectSameResult(ref, got[1], "served DTS cell");
    EXPECT_EQ(got[0].counters.cycles, got[1].counters.cycles);
    EXPECT_NE(got[0].totalEnergy, got[1].totalEnergy);
}

TEST(SimulationTier, RunSeedsAndRandomPolicySeedsDoNotShare)
{
    // Run seeds differ only in the data image; Random's policy seeds
    // only in the draws. Neither may share a simulation.
    const Workload &w = getWorkload("blowfish");
    std::vector<ExperimentCell> cells;
    for (uint64_t run_seed : {0ull, 1ull, 2ull})
        cells.push_back({&w, SystemConfig::bitspec(), 0, run_seed});
    ExperimentRunner runner(2);
    std::vector<RunResult> got = runner.run(cells);
    EXPECT_EQ(runner.stats().simulations, 3u);
    EXPECT_EQ(runner.stats().simulationHits, 0u);
    for (size_t i = 0; i < cells.size(); ++i)
        EXPECT_TRUE(got[i] == serialReference(cells[i])) << "cell " << i;

    std::vector<ExperimentCell> random;
    for (uint64_t policy_seed : {1ull, 2ull}) {
        ExperimentCell c(&w, SystemConfig::bitspec(), 0, 0);
        c.policy = MisspecPolicy::Random;
        c.policySeed = policy_seed;
        random.push_back(c);
    }
    got = runner.run(random);
    EXPECT_EQ(runner.stats().simulations, 5u);
    EXPECT_EQ(runner.stats().simulationHits, 0u);
    for (size_t i = 0; i < random.size(); ++i) {
        RunResult ref;
        runner.withSystem(w, random[i].config, 0, [&](const System &sys) {
            ref = sys.run([&w](Module &m) { w.setInput(m, 0); }, {},
                          MisspecPolicy::Random, random[i].policySeed);
        });
        EXPECT_TRUE(got[i] == ref) << "policy seed " << random[i].policySeed;
    }

    // A later call is served; clearCache() drops the tier too.
    runner.run(cells);
    EXPECT_EQ(runner.stats().simulations, 5u);
    EXPECT_EQ(runner.stats().simulationHits, 3u);
    runner.clearCache();
    runner.run({cells[0]});
    EXPECT_EQ(runner.stats().simulations, 6u);
}

TEST(SimulationTier, DetailCellsAndWithSystemSimulateEveryTime)
{
    const Workload &w = getWorkload("CRC32");
    const ExperimentCell cell(&w, SystemConfig::bitspec(), 0, 1);
    ScopedLedger ledger("experiment_sim_ledger.jsonl");
    ExperimentRunner runner(1);

    // The block sink observes the run, so detail cells bypass the
    // tier.
    LedgerWriter::setDetail(true);
    const RunResult detail = runner.run({cell}).front();
    runner.run({cell});
    LedgerWriter::setDetail(false);
    EXPECT_EQ(runner.stats().simulations, 0u);
    EXPECT_EQ(runner.stats().simulationHits, 0u);
    std::vector<LedgerRecord> recs = ledger.takeCells();
    ASSERT_EQ(recs.size(), 2u);
    for (const LedgerRecord &r : recs)
        EXPECT_EQ(r.simSource, "simulate");

    // Plain cells: the second is served, and its record says so.
    runner.run({cell});
    const RunResult served = runner.run({cell}).front();
    EXPECT_EQ(runner.stats().simulations, 1u);
    EXPECT_EQ(runner.stats().simulationHits, 1u);
    recs = ledger.takeCells();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].simSource, "simulate");
    EXPECT_EQ(recs[1].simSource, "memory");
    for (const LedgerRecord &r : recs)
        EXPECT_EQ(validateLedgerRecord(r), "");
    EXPECT_TRUE(served == detail);

    // A run on withSystem's System simulates, outside the tier.
    CoreRunStats core;
    RunObservers observers;
    observers.core = &core;
    RunResult direct;
    runner.withSystem(w, cell.config, 0, [&](const System &sys) {
        direct = sys.run([&w](Module &m) { w.setInput(m, 1); },
                         observers);
    });
    EXPECT_GT(core.replayedRuns + core.slowInsts, 0u);
    EXPECT_EQ(runner.stats().simulations, 1u);
    EXPECT_EQ(runner.stats().simulationHits, 1u);
    EXPECT_TRUE(direct == served);
}

} // namespace
} // namespace bitspec
