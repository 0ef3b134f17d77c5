/**
 * @file
 * End-to-end BitSpec system facade: source -> expander -> profiler ->
 * squeezer -> backend -> core model -> energy, mirroring the paper's
 * experiment configurations (§A.7): architecture (baseline/bitspec),
 * compiler (baseline / bitwidth_speculation / no-speculation),
 * middle-end heuristic (2cfg-{max,avg,min}), expander on/off, and
 * DTS voltage scaling.
 *
 * A build splits at the profile. A TrainedModule is the front half:
 * parse, training input, expander and one profiled training run. A
 * System deep-copies a TrainedModule's module and runs the back half
 * on its copy: squeezer, backend, then any number of core runs. Every
 * configuration that shares a training key can start from one
 * TrainedModule (the experiment engine shares them).
 */

#ifndef BITSPEC_CORE_SYSTEM_H_
#define BITSPEC_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>

#include "backend/compiler.h"
#include "energy/dts.h"
#include "energy/model.h"
#include "profile/bitwidth_profile.h"
#include "transform/expander.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"

namespace bitspec
{

class BlockProfilerSink;

/** What the run's FastCore did besides the simulated work
 *  (observability/tests): every run builds its run memos afresh. */
struct CoreRunStats
{
    uint64_t memos = 0;        ///< Run memos built.
    uint64_t replayedRuns = 0; ///< Memo replays (one trace each).
    uint64_t slowInsts = 0;    ///< Instructions retired on the slow path.
};

/** What a run attaches to the core; all optional, and what is
 *  pointed to must outlive the run. `blocks` tallies every retire per
 *  block, skeleton slot and region (obs/profiler.h). `replay` false
 *  holds the run on FastCore's cycle-accurate slow path
 *  (FastCore::setReplay): the reference replay is checked against.
 *  `core`, when set, receives the run's CoreRunStats. */
struct RunObservers
{
    BlockProfilerSink *blocks = nullptr;
    bool replay = true;
    CoreRunStats *core = nullptr;
};

/** One experiment configuration (paper §A.7 YAML equivalent). A
 *  compile reads isa, squeeze, squeezeOpts and expander; energy, dts
 *  and dtsParams are read only after a run, by evaluateEnergy
 *  (§4.1), so configurations differing only there build one code. */
struct SystemConfig
{
    /** Architecture / ISA. */
    TargetISA isa = TargetISA::BitSpec;
    /** Apply the squeezer at all (false = baseline compiler). */
    bool squeeze = true;
    /** Squeezer options (speculate=false is the RQ2 variant). */
    SqueezeOptions squeezeOpts;
    /** Expander options (enabled=false is the RQ4 ablation). */
    ExpanderOptions expander;
    /** Apply the DTS voltage-scaling model (RQ8). */
    bool dts = false;
    DtsParams dtsParams;
    /** Energy model parameters. */
    EnergyParams energy;

    /** Canonical configurations. */
    static SystemConfig baseline();
    static SystemConfig bitspec(Heuristic h = Heuristic::Max);
    static SystemConfig noSpeculation();
    static SystemConfig dtsOnly();
    static SystemConfig dtsPlusBitspec(Heuristic h = Heuristic::Max);
};

/** All measurements from one compiled-and-simulated run. */
struct RunResult
{
    uint32_t returnValue = 0;
    uint64_t outputChecksum = 0;

    ActivityCounters counters;
    CacheStats l1i, l1d, l2;
    DramStats dram;

    EnergyBreakdown energy;
    double totalEnergy = 0;   ///< pJ; DTS-scaled when dts is on.
    double epi = 0;           ///< pJ per instruction.
    double meanVoltage = 0;   ///< Volts (1.2 without DTS).

    SqueezeStats squeezeStats;
    ExpandStats expandStats;
    BackendStats backendStats;

    bool operator==(const RunResult &) const = default;
};

/** Fill @p r's energy, totalEnergy, epi and meanVoltage from its
 *  counters and L1I/L1D/DRAM stats under @p config's energy model,
 *  DTS-scaled when config.dts. Reads only energy, dts, dtsParams. */
void evaluateEnergy(RunResult &r, const SystemConfig &config);

/**
 * The front half of a System build, shared by every configuration
 * with the same training key: the source compiled, @p train_input
 * applied to the globals, the expander run, and "main" run once
 * under the bitwidth profiler (paper §3.2.2). The profile records
 * MIN/AVG/MAX RequiredBits per variable, so the heuristic that picks
 * among them is left to each System.
 *
 * What it reads — the source, the training input and the
 * ExpanderOptions — is its whole identity; squeezer, ISA, DTS
 * and energy settings play no part. Immutable once constructed:
 * Systems only read it, from any number of threads at once. The
 * training Interpreter and its heap are gone when the constructor
 * returns.
 */
class TrainedModule
{
  public:
    TrainedModule(const std::string &source,
                  const ExpanderOptions &expander,
                  const std::function<void(Module &)> &train_input = {});

    /** The expanded module with the training input in its globals and
     *  their addresses laid out. */
    const Module &module() const { return *module_; }
    /** The training run's profile, keyed by module()'s
     *  instructions. */
    const BitwidthProfile &profile() const { return profile_; }
    const ExpanderOptions &expander() const { return expander_; }
    const ExpandStats &expandStats() const { return expandStats_; }
    /** Dynamic IR instructions of the training run. */
    uint64_t irSteps() const { return irSteps_; }

  private:
    std::unique_ptr<Module> module_;
    BitwidthProfile profile_;
    ExpanderOptions expander_;
    ExpandStats expandStats_;
    uint64_t irSteps_ = 0;
};

/**
 * A compiled system instance, reusable across inputs. Immutable once
 * constructed: run() is const and builds all of its state per call,
 * so any number of threads may run one System at once.
 */
class System
{
  public:
    /**
     * Build from C-subset source: train a TrainedModule under
     * config.expander, then build from it as below. @p train_input
     * (optional) mutates module globals before the profiling run.
     */
    System(const std::string &source, const SystemConfig &config,
           const std::function<void(Module &)> &train_input = {});

    /**
     * Build from a shared training: deep-copy @p trained's module
     * (cloneModule), then squeeze the copy under the training profile
     * re-keyed onto it, and compile. @p trained is only read and
     * must have been expanded under config.expander.
     */
    System(const TrainedModule &trained, const SystemConfig &config);

    /**
     * Run with fresh input: prepareImage(@p run_input), then
     * simulate() on that image with the other arguments. Nothing of
     * the System changes, so runs are independent of each other and
     * of their order — required for the experiment engine's
     * compile-once/run-many reuse.
     */
    RunResult run(const std::function<void(Module &)> &run_input = {},
                  const RunObservers &observers = {},
                  MisspecPolicy policy = MisspecPolicy::Hardware,
                  uint64_t policy_seed = 0x5eed) const;

    /** The first step of run(): a globals-only Module of the run's
     *  own, holding the post-profiling global images with
     *  @p run_input applied to them. */
    std::unique_ptr<Module>
    prepareImage(const std::function<void(Module &)> &run_input) const;

    /**
     * The second step of run(): execute from _start on a FastCore
     * that lives for this call only and loads its data from @p image
     * (a prepareImage result, only read), with @p observers attached
     * and under misspeculation policy @p policy (support/misspec.h),
     * Random's draws seeded by @p policy_seed. Energy is evaluated
     * under the config the System was built from. When tracing is
     * on, the finished run emits one sample to each of the core.ipc,
     * core.misspec_per_kinst and core.l1d_hit_pct counter lanes,
     * inside its system.run span.
     */
    RunResult simulate(const Module &image,
                       const RunObservers &observers,
                       MisspecPolicy policy, uint64_t policy_seed) const;

    /** The squeezed module. Interpret a cloneModule copy of it:
     *  interpreting needs a mutable module. */
    const Module &module() const { return *module_; }
    const MachProgram &program() const { return compiled_->program; }
    const SqueezeStats &squeezeStats() const { return squeezeStats_; }
    const ExpandStats &expandStats() const { return expandStats_; }
    const BackendStats &backendStats() const { return compiled_->stats; }
    /** All of the code simulate() reads (PredecodedProgram::codeKey):
     *  Systems of different configurations may compile to one. */
    const Hash128 &codeKey() const { return predecoded_->codeKey(); }

    /** Dynamic IR instructions of the training run (Fig. 3's
     *  IR-level series), baseline configurations included. */
    uint64_t profiledIrInstructions() const { return trainIrSteps_; }

  private:
    SystemConfig config_; ///< run() evaluates energy under it.
    /** This System's own copy of the trained module, squeezed in
     *  place. Its globals keep the post-profiling images every run
     *  starts from. */
    std::unique_ptr<Module> module_;
    /** Heap-held so its address survives a move of the System:
     *  predecoded_ refers to the program inside. */
    std::unique_ptr<const CompiledProgram> compiled_;
    /** The pre-decode table every run's FastCore executes; immutable,
     *  like everything else here. */
    std::unique_ptr<const PredecodedProgram> predecoded_;
    SqueezeStats squeezeStats_;
    ExpandStats expandStats_;
    uint64_t trainIrSteps_ = 0;
};

} // namespace bitspec

#endif // BITSPEC_CORE_SYSTEM_H_
