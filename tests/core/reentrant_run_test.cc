/**
 * @file
 * Re-entrant runs: System::run is const and builds all of its state
 * per call, so runs on one System may overlap — directly from several
 * threads, or as cells of one ExperimentRunner matrix — and each
 * returns exactly what a serial run returns. `ctest -L concurrency`
 * selects these with the other threaded suites (the TSan build runs
 * that label).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <vector>

#include "core/experiment.h"
#include "obs/profiler.h"
#include "support/error.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** Small enough for a sanitized build, and it misspeculates under
 *  the forcing policies at bitspec-max. */
const Workload &
smallWorkload()
{
    return getWorkload("blowfish");
}

/** n parties each arrive once and wait, up to 10 s, for the rest.
 *  A lock held across the arrivals makes the first party time out
 *  instead of hanging the test. */
class Rendezvous
{
  public:
    explicit Rendezvous(int n) : n_(n) {}

    /** True when all n parties arrived within the deadline. */
    bool
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (++arrived_ == n_)
            cv_.notify_all();
        return cv_.wait_for(lock, std::chrono::seconds(10),
                            [this] { return arrived_ >= n_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    const int n_;
    int arrived_ = 0;
};

TEST(ReentrantRun, RunsOnOneSystemOverlap)
{
    const Workload &w = smallWorkload();
    const System sys(w.source, SystemConfig::bitspec(),
                     [&w](Module &m) { w.setInput(m, 0); });
    const RunResult serial =
        sys.run([&w](Module &m) { w.setInput(m, 1); });

    Rendezvous meet(2);
    std::atomic<int> met{0};
    auto input = [&](Module &m) {
        w.setInput(m, 1);
        met += meet.arriveAndWait();
    };
    auto other =
        std::async(std::launch::async, [&] { return sys.run(input); });
    const RunResult mine = sys.run(input);
    const RunResult theirs = other.get();

    EXPECT_EQ(met.load(), 2) << "the two runs never overlapped";
    EXPECT_TRUE(mine == serial);
    EXPECT_TRUE(theirs == serial);
}

TEST(ReentrantRun, RunnerCellsOnOneSystemOverlap)
{
    // The training input (seed 0) passes straight through; each run
    // input (seeds 1 and 2) waits for the other cell's.
    const Workload &base = smallWorkload();
    Rendezvous meet(2);
    std::atomic<int> met{0};
    Workload gated = base;
    gated.name = base.name + "-gated";
    gated.setInput = [&](Module &m, uint64_t seed) {
        base.setInput(m, seed);
        if (seed != 0)
            met += meet.arriveAndWait();
    };

    ExperimentRunner runner(2);
    const std::vector<ExperimentCell> cells = {
        {&gated, SystemConfig::bitspec(), 0, 1},
        {&gated, SystemConfig::bitspec(), 0, 2},
    };
    runner.run(cells);

    EXPECT_EQ(met.load(), 2) << "cells on one System were serialized";
    EXPECT_EQ(runner.stats().systemsBuilt, 1u);
}

TEST(ReentrantRun, ConcurrentRunsMatchSerial)
{
    const Workload &w = smallWorkload();
    const System sys(w.source, SystemConfig::bitspec(),
                     [&w](Module &m) { w.setInput(m, 0); });
    struct Case
    {
        MisspecPolicy policy;
        uint64_t runSeed;
    };
    std::vector<Case> cases;
    for (MisspecPolicy p : {MisspecPolicy::Hardware,
                            MisspecPolicy::ForceFirst,
                            MisspecPolicy::Random})
        for (uint64_t seed : {0ull, 1ull, 2ull})
            cases.push_back({p, seed});

    auto runCase = [&](const Case &c, const RunObservers &obs) {
        const uint64_t seed = c.runSeed;
        return sys.run([&w, seed](Module &m) { w.setInput(m, seed); },
                       {}, obs, c.policy, 0xfeed + seed);
    };
    std::vector<RunResult> serial;
    for (const Case &c : cases)
        serial.push_back(runCase(c, {}));

    // Thread t starts at case t, so different cases overlap; thread 0
    // attaches the block profiler to every run.
    constexpr size_t kThreads = 4;
    const BlockMap bmap(sys.program());
    std::vector<std::vector<RunResult>> got(
        kThreads, std::vector<RunResult>(cases.size()));
    std::vector<uint64_t> heat_insts(cases.size());
    std::vector<std::future<void>> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.push_back(std::async(std::launch::async, [&, t] {
            for (size_t k = 0; k < cases.size(); ++k) {
                const size_t i = (t + k) % cases.size();
                if (t != 0) {
                    got[t][i] = runCase(cases[i], {});
                    continue;
                }
                BlockProfilerSink blocks(bmap);
                RunObservers obs;
                obs.blocks = &blocks;
                got[t][i] = runCase(cases[i], obs);
                heat_insts[i] = blocks.totalInsts();
            }
        }));
    }
    for (std::future<void> &th : threads)
        th.get();

    for (size_t i = 0; i < cases.size(); ++i) {
        const std::string what =
            std::string(misspecPolicyName(cases[i].policy)) + "/seed " +
            std::to_string(cases[i].runSeed);
        for (size_t t = 0; t < kThreads; ++t)
            EXPECT_TRUE(got[t][i] == serial[i])
                << what << " on thread " << t;
        EXPECT_EQ(heat_insts[i], serial[i].counters.instructions)
            << what;
    }
    // The forcing policies really took the misspeculation path
    // (cases[3] is ForceFirst at run seed 0).
    EXPECT_GT(serial[3].counters.misspeculations, 0u);
}

TEST(ReentrantRun, RunnerMixedPoliciesMatchAcrossJobs)
{
    const Workload &w = smallWorkload();
    std::vector<ExperimentCell> cells;
    for (uint64_t seed : {0ull, 1ull, 2ull, 3ull}) {
        for (MisspecPolicy p : {MisspecPolicy::Hardware,
                                MisspecPolicy::ForceFirst,
                                MisspecPolicy::Random}) {
            ExperimentCell cell(&w, SystemConfig::bitspec(), 0, seed);
            cell.policy = p;
            cell.policySeed = 0xfeed + seed;
            cells.push_back(std::move(cell));
        }
    }
    ExperimentRunner serial(1);
    ExperimentRunner parallel(4);
    const std::vector<RunResult> want = serial.run(cells);
    const std::vector<RunResult> got = parallel.run(cells);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == want[i])
            << "cell " << i << " ("
            << misspecPolicyName(cells[i].policy) << ", seed "
            << cells[i].runSeed << ")";
    EXPECT_EQ(parallel.stats().systemsBuilt, 1u);
}

/** Two matrices over the same keys of @p w, each with three cells
 *  per System key (more than the runner's two workers): bitspec-max
 *  and baseline share one training, and the second matrix reverses
 *  the configurations and overlaps the first's run seeds. */
std::vector<std::vector<ExperimentCell>>
sharedKeyMatrices(const Workload &w)
{
    std::vector<std::vector<ExperimentCell>> out(2);
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        out[0].push_back({&w, SystemConfig::bitspec(), 0, seed});
        out[0].push_back({&w, SystemConfig::baseline(), 0, seed});
    }
    for (uint64_t seed : {3ull, 4ull, 5ull}) {
        out[1].push_back({&w, SystemConfig::baseline(), 0, seed});
        out[1].push_back({&w, SystemConfig::bitspec(), 0, seed});
    }
    return out;
}

/** What one run() call returned, or the exception it threw. */
struct CallOutcome
{
    std::vector<RunResult> results;
    std::exception_ptr error;
};

/** Calls @p runner.run on every matrix at once, one thread each,
 *  released together. A deadlock hangs here: the ctest TIMEOUT of
 *  this binary turns it into a failure. */
std::vector<CallOutcome>
runConcurrently(ExperimentRunner &runner,
                const std::vector<std::vector<ExperimentCell>> &matrices)
{
    Rendezvous start(static_cast<int>(matrices.size()));
    std::vector<CallOutcome> out(matrices.size());
    std::vector<std::future<void>> callers;
    for (size_t m = 0; m < matrices.size(); ++m) {
        callers.push_back(std::async(std::launch::async, [&, m] {
            start.arriveAndWait();
            try {
                out[m].results = runner.run(matrices[m]);
            } catch (...) {
                out[m].error = std::current_exception();
            }
        }));
    }
    for (std::future<void> &c : callers)
        c.get();
    return out;
}

TEST(ReentrantRun, ConcurrentRunCallsShareKeysWithoutDeadlock)
{
    const Workload &w = smallWorkload();
    const std::vector<std::vector<ExperimentCell>> matrices =
        sharedKeyMatrices(w);
    ExperimentRunner serial(1);
    std::vector<std::vector<RunResult>> want;
    for (const std::vector<ExperimentCell> &cells : matrices)
        want.push_back(serial.run(cells));

    ExperimentRunner runner(2);
    const std::vector<CallOutcome> got = runConcurrently(runner, matrices);
    for (size_t m = 0; m < matrices.size(); ++m) {
        ASSERT_FALSE(got[m].error) << "call " << m << " threw";
        ASSERT_EQ(got[m].results.size(), want[m].size());
        for (size_t i = 0; i < want[m].size(); ++i) {
            EXPECT_TRUE(got[m].results[i] == want[m][i])
                << "call " << m << ", cell " << i;
        }
    }
    // Each key compiled and trained once across both calls, and every
    // cell looked its key up once.
    const ExperimentStats st = runner.stats();
    EXPECT_EQ(st.systemsBuilt, 2u);
    EXPECT_EQ(st.trainings, 1u);
    EXPECT_EQ(st.systemsBuilt + st.cacheHits, st.cells);
    EXPECT_EQ(st.cells, 12u);
}

TEST(ReentrantRun, ConcurrentRunCallsShareAFailedTraining)
{
    // The training input (seed 0) fails; run inputs would not. Each
    // workload counts the run inputs (seeds other than 0) it set.
    const Workload &base = smallWorkload();
    std::atomic<int> trainings{0}, bad_runs{0}, good_runs{0};
    Workload bad = base;
    bad.name = base.name + "-untrainable";
    bad.setInput = [&](Module &m, uint64_t seed) {
        if (seed == 0) {
            ++trainings;
            fatal("training input unavailable");
        }
        ++bad_runs;
        base.setInput(m, seed);
    };
    Workload good = base;
    good.setInput = [&](Module &m, uint64_t seed) {
        if (seed != 0)
            ++good_runs;
        base.setInput(m, seed);
    };
    std::vector<std::vector<ExperimentCell>> matrices =
        sharedKeyMatrices(bad);
    for (std::vector<ExperimentCell> &cells : matrices)
        cells.push_back({&good, SystemConfig::bitspec(), 0, 1});

    ExperimentRunner runner(2);
    const std::vector<CallOutcome> got = runConcurrently(runner, matrices);
    for (size_t m = 0; m < matrices.size(); ++m) {
        ASSERT_TRUE(got[m].error) << "call " << m << " did not throw";
        EXPECT_THROW(std::rethrow_exception(got[m].error), FatalError)
            << "call " << m;
    }
    // One failed training failed all twelve sharing cells; the good
    // cell of each call still ran.
    EXPECT_EQ(trainings.load(), 1);
    EXPECT_EQ(bad_runs.load(), 0);
    EXPECT_EQ(good_runs.load(), 2);
    const ExperimentStats st = runner.stats();
    EXPECT_EQ(st.trainings, 2u);
    EXPECT_EQ(st.cells, 14u);
}

} // namespace
} // namespace bitspec
