/**
 * @file
 * The experiment engine: schedules (workload x SystemConfig x
 * profile_seed x run_seed) cells of a figure/table bench across a
 * thread pool and memoizes compiled Systems and core simulations.
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
 *    System by what its compile reads (systemKey); each cell
 *    evaluates its own energy and DTS after the run, so all run
 *    seeds, policies and energy or DTS settings that share a key
 *    reuse one instance. Every key is one canonical string, whose
 *    Hash128 is the map key. A System is immutable once built and
 *    System::run is const: each run copies the global images,
 *    applies its input to the copy and simulates on a FastCore of its
 *    own, so cells of one System run concurrently, with no lock, and
 *    order-independently.
 *  - Each distinct simulation runs once. The simulation tier keys a
 *    core run's outcome by everything FastCore reads: the System's
 *    code key (Systems of different configurations can compile to
 *    one code), the data image after the cell's run input, the run
 *    arguments, the policy and the policy seed. Every cell still
 *    applies its own input and evaluates its own energy and DTS; only
 *    the counters, cache stats, return value and checksum are shared.
 *    Cells with observers (ledger detail) bypass the tier, and so do
 *    withSystem and direct System::run callers.
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
     * Arguments of this cell's core run only — deliberately absent
     * from the System key (one compiled System serves every policy;
     * the differential fuzzer depends on that sharing), and part of
     * the simulation key. The config's energy and DTS fields are in
     * neither: they are evaluated on the finished run. */
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

    /** Simulation tier: cells whose core run repeats one already run
     *  (same code, data image, policy and policy seed) are served its
     *  outcome. Cells that bypass the tier count in neither. */
    uint64_t simulations = 0;    ///< Distinct simulations run.
    uint64_t simulationHits = 0; ///< Cells served a simulation.
};

/**
 * Runs experiment matrices over a worker pool with keyed System and
 * simulation caches. run() may be called from several threads at once
 * (each call's results are call-local, the caches and stats are
 * mutex-guarded, and cached Systems are immutable, so concurrent
 * cells on one System run in parallel — the fuzzer fans whole
 * differentials out this way); the same runner can execute any
 * number of matrices, and the caches persist across them
 * (clearCache() drops them).
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
     * cell runs it on its key's System, or is served an equal
     * simulation's outcome. Throws the first failing cell's exception
     * (after all cells finished or failed); a failed build fails
     * every cell of its key, and a failed simulation every cell that
     * shares it.
     */
    std::vector<RunResult> run(const std::vector<ExperimentCell> &cells);

    /**
     * Build (or fetch) the cell's System and run @p fn on it. Lets a
     * caller reuse the System's squeezed module directly — the
     * differential fuzzer interprets a cloneModule copy of it instead
     * of re-running the whole squeeze pipeline a second time. Other
     * cells may run the same System concurrently. It may have been
     * built for another energy or DTS setting of its key: evaluate a
     * run under @p config (evaluateEnergy) before reading its energy.
     * Runs on it simulate every time: the simulation tier serves only
     * run()'s cells.
     */
    void withSystem(const Workload &w, const SystemConfig &config,
                    uint64_t profile_seed,
                    const std::function<void(const System &)> &fn);

    unsigned threadCount() const { return pool_.threadCount(); }
    ExperimentStats stats() const;
    /** Drop every cached System, training and simulation (failed ones
     *  too). */
    void clearCache();
    /** Drop the cached simulations only, so the next cells simulate
     *  again on warm Systems (the run-ledger overhead gate times
     *  simulating cells). */
    void clearSimulations();

    /** The `bench` name of the ledger records (cell and matrix) of
     *  subsequent runs; the process name until set. Call between
     *  runs, not while cells are in flight. */
    void setLedgerLabel(std::string label) { ledgerLabel_ = std::move(label); }

    /**
     * Canonical cache key of a cell's compiled System, what its
     * compile reads: workload name, FNV-1a hash of the source text,
     * isa, squeeze, SqueezeOptions, ExpanderOptions and the profile
     * seed; no energy, DTS or run seed. The build is not part of it:
     * the cache lives in one process, which is one build.
     */
    static std::string systemKey(const Workload &w,
                                 const SystemConfig &config,
                                 uint64_t profile_seed);

    /** Hash128 of systemKey: the cache's map key. */
    static Hash128 systemKeyHash(const Workload &w,
                                 const SystemConfig &config,
                                 uint64_t profile_seed);

    /**
     * Canonical identity of a cell for the run ledger (obs/ledger.h):
     * the systemKey fields with every energy and DTS field before the
     * profile seed (the bytes it had when the System key held them),
     * then the run seed and the run-level knobs (policy, policy
     * seed). It names no build, so bitspec-diff joins ledgers from
     * two different commits on it.
     */
    static std::string cellKey(const ExperimentCell &cell);

  private:
    /** Concurrent requesters of a key block on one computation. */
    template <typename T>
    using Memo =
        std::unordered_map<Hash128,
                           std::shared_future<std::shared_ptr<const T>>,
                           Hash128Hasher>;

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
    /** Compiled Systems by System key. */
    Memo<System> cache_;
    /** Training tier under cache_, keyed by the training key (see
     *  getOrTrain). */
    Memo<TrainedModule> trained_;
    /** Simulation tier beside cache_: one core run's outcome (the
     *  RunResult System::simulate returned) by what the core read
     *  (see runCell). */
    Memo<RunResult> simulations_;
    ExperimentStats stats_;
    std::string ledgerLabel_;
};

} // namespace bitspec

#endif // BITSPEC_CORE_EXPERIMENT_H_
