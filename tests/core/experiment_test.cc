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
#include "obs/metrics.h"
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
    runner.evaluate(w, SystemConfig::bitspec(), /*profile_seed=*/1);
    EXPECT_EQ(runner.stats().systemsBuilt, 2u);

    // A different config is a different System even for the same
    // seeds.
    runner.evaluate(w, SystemConfig::baseline());
    EXPECT_EQ(runner.stats().systemsBuilt, 3u);

    runner.clearCache();
    runner.evaluate(w, SystemConfig::bitspec());
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
            runner.evaluate(w, SystemConfig::bitspec(), 0, run_seed);
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

    SystemConfig tweaked = SystemConfig::baseline();
    tweaked.energy.rfRead32 += 0.125;
    EXPECT_NE(base,
              ExperimentRunner::systemKey(w, tweaked, 0));
}

TEST(ExperimentRunner, SystemKeyHashMirrorsCanonicalKey)
{
    // The 128-bit hash (the cache key) must separate
    // and equate exactly as the canonical string key does.
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
    SystemConfig tweaked = SystemConfig::baseline();
    tweaked.energy.rfRead32 += 0.125;
    expectFresh(ExperimentRunner::systemKeyHash(w, tweaked, 0));
    SystemConfig nospec = SystemConfig::noSpeculation();
    expectFresh(ExperimentRunner::systemKeyHash(w, nospec, 0));
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
    RunResult after = runner.evaluate(good, SystemConfig::baseline());
    RunResult ref =
        serialReference({&good, SystemConfig::baseline(), 0, 0});
    expectSameResult(ref, after, "post-exception evaluate");
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

uint64_t
trainCounter(const char *name, const Workload &w)
{
    return MetricsRegistry::global()
        .counter(name, {{"workload", w.name}})
        .value();
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
        const uint64_t misses0 =
            trainCounter("experiment.train.misses", w);
        const uint64_t hits0 = trainCounter("experiment.train.hits", w);
        trace::reset();
        trace::setEnabled(true);
        ExperimentRunner runner(threads);
        std::vector<RunResult> got = runner.run(cells);
        trace::setEnabled(false);

        const ExperimentStats st = runner.stats();
        EXPECT_EQ(st.systemsBuilt, 5u) << what;
        EXPECT_EQ(st.trainings, 1u) << what;
        EXPECT_EQ(st.trainingHits, 4u) << what;
        EXPECT_EQ(trainCounter("experiment.train.misses", w) - misses0,
                  1u)
            << what;
        EXPECT_EQ(trainCounter("experiment.train.hits", w) - hits0, 4u)
            << what;
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
    runner.evaluate(w, SystemConfig::noSpeculation(), 1, 5);
    EXPECT_EQ(runner.stats().trainings, 2u);
    EXPECT_EQ(runner.stats().trainingHits, 3u);

    // Other ExpanderOptions are another training.
    SystemConfig flat = SystemConfig::bitspec();
    flat.expander.enabled = false;
    runner.evaluate(w, flat);
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
        EXPECT_THROW(runner.evaluate(bad, c), FatalError);
    EXPECT_EQ(inputs.load(), 1);
    EXPECT_EQ(runner.stats().trainings, 1u);

    // Other keys are unaffected.
    RunResult after = runner.evaluate(good, SystemConfig::bitspec());
    EXPECT_TRUE(after ==
                serialReference({&good, SystemConfig::bitspec(), 0, 0}));

    // clearCache() forgets the failure: the next request retrains.
    runner.clearCache();
    EXPECT_THROW(runner.evaluate(bad, SystemConfig::baseline()),
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
 *  results and stats, its experiment.cache.* and experiment.train.*
 *  counter deltas, and its cache.* and train.* trace instants with
 *  their arguments, sorted. */
struct RunFootprint
{
    std::vector<RunResult> results;
    ExperimentStats stats;
    std::map<std::string, uint64_t> counters;
    std::vector<std::string> instants;
};

RunFootprint
footprintOf(unsigned threads, const std::vector<ExperimentCell> &cells)
{
    std::set<const Workload *> workloads;
    for (const ExperimentCell &c : cells)
        workloads.insert(c.workload);
    auto counters = [&workloads] {
        std::map<std::string, uint64_t> out;
        for (const char *name :
             {"experiment.cache.misses", "experiment.cache.hits",
              "experiment.cache.inflight_waits",
              "experiment.train.misses", "experiment.train.hits"}) {
            for (const Workload *w : workloads) {
                out[std::string(name) + "/" + w->name] =
                    trainCounter(name, *w);
            }
        }
        return out;
    };

    RunFootprint fp;
    const std::map<std::string, uint64_t> before = counters();
    trace::reset();
    trace::setEnabled(true);
    ExperimentRunner runner(threads);
    fp.results = runner.run(cells);
    trace::setEnabled(false);
    fp.stats = runner.stats();
    for (const auto &[name, value] : counters())
        fp.counters[name] = value - before.at(name);
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
    EXPECT_EQ(staged.counters, serial.counters);
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

    /** cache_source of every cell record so far, by cell key. Closes
     *  the writer (the flush point) and opens a fresh one. */
    std::map<std::string, std::string>
    takeCacheSources()
    {
        LedgerWriter::setGlobal(nullptr);
        std::map<std::string, std::string> out;
        for (const LedgerRecord &r : loadLedger(path_)) {
            if (r.kind == "cell") {
                EXPECT_TRUE(
                    out.emplace(r.cellKey, r.cacheSource).second)
                    << "two records for " << r.cellKey;
            }
        }
        std::remove(path_.c_str());
        LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(path_));
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
    runner.evaluate(w, SystemConfig::bitspec());
    runner.evaluate(w, SystemConfig::baseline());
    EXPECT_EQ(runner.stats().trainings, 1u);
    EXPECT_EQ(runner.stats().trainingHits, 1u);

    runner.clearCache();
    runner.evaluate(w, SystemConfig::noSpeculation());
    EXPECT_EQ(runner.stats().trainings, 2u);
    EXPECT_EQ(runner.stats().trainingHits, 1u);
}

} // namespace
} // namespace bitspec
