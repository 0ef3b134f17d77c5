/**
 * @file
 * The experiment engine: schedules (workload x SystemConfig x
 * profile_seed x run_seed) cells of a figure/table bench across a
 * thread pool and memoizes compiled Systems.
 *
 * Design rules (see DESIGN.md "Experiment engine"):
 *  - Cells are self-contained: each System owns its copy of an
 *    immutable shared TrainedModule and its pass pipeline, and each
 *    run owns its core. No shared mutable statics anywhere in the
 *    pipeline.
 *  - A training is train-once/squeeze-many. The training tier keys a
 *    TrainedModule by (workload name, FNV-1a of the source,
 *    ExpanderOptions, profile seed) — every input the front half
 *    reads — so all configurations of a workload and profile input
 *    share one parse, expansion and profiled run.
 *  - A System is compile-once/run-many. The cache keys a compiled
 *    System by (workload name, FNV-1a of the source, canonicalized
 *    config, profile seed); all run seeds, policies and series of a
 *    binary that share that key reuse one instance. A System is
 *    immutable once built and System::run is const: each run copies
 *    the global images, applies its input to the copy and simulates
 *    on a FastCore of its own, so cells of one System run
 *    concurrently, with no lock, and order-independently.
 *  - run() stages its matrix: one build task per distinct System key
 *    (the lookup of the key's first cell), the first key of each
 *    training queued ahead of every other key, then one run task per
 *    cell. The pool is FIFO, and a training or System key is claimed
 *    only by the worker that computes it, inline, so a run task that
 *    waits for its build, or a build that waits for a training,
 *    waits on a running worker, never on a queued task: concurrent
 *    run() callers sharing the pool cannot deadlock. One path serves
 *    every thread count.
 *  - Results come back in submission order and are bit-identical to
 *    the serial path regardless of thread count.
 *  - Worker exceptions (fatal()/bsAssert/...) propagate to the caller
 *    of run(); they never abort the process.
 */

#ifndef BITSPEC_CORE_EXPERIMENT_H_
#define BITSPEC_CORE_EXPERIMENT_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system.h"
#include "support/hash.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

namespace bitspec
{

/** One cell of an experiment matrix. */
struct ExperimentCell
{
    ExperimentCell() = default;
    ExperimentCell(const Workload *w, SystemConfig cfg,
                   uint64_t profile_seed = 0, uint64_t run_seed = 0)
        : workload(w), config(std::move(cfg)),
          profileSeed(profile_seed), runSeed(run_seed)
    {}

    /** Must outlive the ExperimentRunner::run() call. The workload's
     *  setInput must be a pure function of (module, seed). */
    const Workload *workload = nullptr;
    SystemConfig config;
    uint64_t profileSeed = 0;
    uint64_t runSeed = 0;

    /** @name Run-level knobs
     * Arguments of this cell's System::run only — deliberately absent
     * from the cache key (one compiled System serves every policy;
     * the differential fuzzer depends on that sharing). */
    /// @{
    MisspecPolicy policy = MisspecPolicy::Hardware;
    uint64_t policySeed = 0x5eed;
    /// @}
};

/** Cache / scheduling counters (bench_smoke records these). */
struct ExperimentStats
{
    uint64_t cells = 0;        ///< Cells executed.
    uint64_t systemsBuilt = 0; ///< Cache misses: Systems compiled.
    uint64_t cacheHits = 0;    ///< Cells served by a cached System.
    /** Cache hits that blocked on a build still in flight (the
     *  shared_future was not ready when the requester arrived). A
     *  run() builds each key before any cell runs on it, so only a
     *  concurrent caller building the same key causes one. */
    uint64_t inflightWaits = 0;

    /** Training tier: every compile starts from a shared
     *  TrainedModule. */
    uint64_t trainings = 0;    ///< Distinct training keys trained.
    uint64_t trainingHits = 0; ///< Compiles that reused a training.
};

/**
 * Runs experiment matrices over a worker pool with a keyed System
 * cache. run()/evaluate() may be called from several threads at once
 * (each call's results are call-local, the cache and stats are
 * mutex-guarded, and cached Systems are immutable, so concurrent
 * cells on one System run in parallel — the fuzzer fans whole
 * differentials out this way); the same runner can execute any
 * number of matrices, and the cache persists across them
 * (clearCache() drops it).
 */
class ExperimentRunner
{
  public:
    /** @param threads Worker count; 0 = BITSPEC_JOBS env override or
     *  hardware concurrency (ThreadPool::defaultThreadCount). */
    explicit ExperimentRunner(unsigned threads = 0);

    /**
     * Execute every cell, in parallel, returning results in
     * submission order. Builds come first: one task per distinct
     * System key, counted as the lookup of the key's first cell
     * (whose ledger record says "compile" when that task built it,
     * and whose matrix-record wall time includes the build), with
     * each training's first key ahead of the rest; then one task per
     * cell runs it on its key's System. Throws the first failing
     * cell's exception (after all cells finished or failed); a failed
     * build fails every cell of its key.
     */
    std::vector<RunResult> run(const std::vector<ExperimentCell> &cells);

    /** One-cell convenience; still goes through the System cache. */
    RunResult evaluate(const Workload &w, const SystemConfig &config,
                       uint64_t profile_seed = 0, uint64_t run_seed = 0);

    /**
     * Build (or fetch) the cell's System and run @p fn on it. Lets a
     * caller reuse the System's squeezed module directly — the
     * differential fuzzer interprets a cloneModule copy of it instead
     * of re-running the whole squeeze pipeline a second time. Other
     * cells may run the same System concurrently.
     */
    void withSystem(const Workload &w, const SystemConfig &config,
                    uint64_t profile_seed,
                    const std::function<void(const System &)> &fn);

    unsigned threadCount() const { return pool_.threadCount(); }
    ExperimentStats stats() const;
    /** Drop every cached System and training (failed ones too). */
    void clearCache();

    /** The `bench` name of the ledger records (cell and matrix) of
     *  subsequent runs; the process name until set. Call between
     *  runs, not while cells are in flight. */
    void setLedgerLabel(std::string label) { ledgerLabel_ = std::move(label); }

    /**
     * Canonical cache key of a cell's compiled System: workload name,
     * FNV-1a hash of the source text, every SystemConfig field (in
     * declaration order, doubles at full precision) and the profile
     * seed. Run seeds are deliberately absent. The build is not part
     * of it: the cache lives in one process, which is one build.
     */
    static std::string systemKey(const Workload &w,
                                 const SystemConfig &config,
                                 uint64_t profile_seed);

    /** 128-bit content hash of the same fields, computed without
     *  building the key string (the hot getOrBuild path). Equal
     *  canonical keys <=> equal hashes (modulo a 2^-128 collision). */
    static Hash128 systemKeyHash(const Workload &w,
                                 const SystemConfig &config,
                                 uint64_t profile_seed);

    /**
     * Canonical identity of a cell for the run ledger (obs/ledger.h):
     * the systemKey fields plus the run seed and the run-level knobs
     * (policy, policy seed). It names no build, so bitspec-diff joins
     * ledgers from two different commits on it.
     */
    static std::string cellKey(const ExperimentCell &cell);

  private:
    /** The System of @p key (= systemKeyHash of the other
     *  arguments), built inline by the first requester. @p origin
     *  (optional) receives this call's cache provenance: "compile"
     *  when this call built the System, "memory" when an
     *  already-cached instance served it. */
    std::shared_ptr<const System>
    getOrBuild(const Hash128 &key, const Workload &w,
               const SystemConfig &config, uint64_t profile_seed,
               const char **origin = nullptr);
    /** The shared training for (w, expander, profile_seed), trained
     *  on first request under the same once-per-key rule as the
     *  System cache. */
    std::shared_ptr<const TrainedModule>
    getOrTrain(const Workload &w, const ExpanderOptions &expander,
               uint64_t profile_seed);
    /** Run @p cell on @p sys, whose provenance is @p origin; with no
     *  @p sys, the cell looks up @p key itself. */
    RunResult runCell(const ExperimentCell &cell, const Hash128 &key,
                      std::shared_ptr<const System> sys = nullptr,
                      const char *origin = "memory");

    ThreadPool pool_;
    mutable std::mutex cacheMu_;
    /** Value is a shared_future so concurrent requesters of the same
     *  key block on one build instead of compiling twice. Keyed by
     *  the 128-bit content hash — no string building per lookup. */
    std::unordered_map<
        Hash128, std::shared_future<std::shared_ptr<const System>>,
        Hash128Hasher>
        cache_;
    /** Training tier under cache_, same rules, keyed by the training
     *  key (see getOrTrain). */
    std::unordered_map<Hash128,
                       std::shared_future<std::shared_ptr<const TrainedModule>>,
                       Hash128Hasher>
        trained_;
    ExperimentStats stats_;
    std::string ledgerLabel_;
};

} // namespace bitspec

#endif // BITSPEC_CORE_EXPERIMENT_H_
