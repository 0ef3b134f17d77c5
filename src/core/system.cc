#include "core/system.h"

#include "analysis/pipeline.h"
#include "analysis/verifier.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "obs/trace.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

/** One sample per counter lane for the finished run @p r: IPC,
 *  misspeculations per kilo-instruction and the L1D hit rate. */
void
emitCounterSamples(const RunResult &r)
{
    const auto share = [](uint64_t part, uint64_t whole, double none) {
        return whole ? static_cast<double>(part) /
                           static_cast<double>(whole)
                     : none;
    };
    const ActivityCounters &c = r.counters;
    trace::counter("core.ipc", "counter",
                   share(c.instructions, c.cycles, 0.0));
    trace::counter("core.misspec_per_kinst", "counter",
                   1000.0 * share(c.misspeculations, c.instructions, 0.0));
    trace::counter("core.l1d_hit_pct", "counter",
                   100.0 * share(r.l1d.accesses - r.l1d.misses,
                                 r.l1d.accesses, 1.0));
}

} // namespace

SystemConfig
SystemConfig::baseline()
{
    SystemConfig c;
    c.isa = TargetISA::Baseline;
    c.squeeze = false;
    return c;
}

SystemConfig
SystemConfig::bitspec(Heuristic h)
{
    SystemConfig c;
    c.isa = TargetISA::BitSpec;
    c.squeeze = true;
    c.squeezeOpts.heuristic = h;
    return c;
}

SystemConfig
SystemConfig::noSpeculation()
{
    SystemConfig c;
    c.isa = TargetISA::BitSpec;
    c.squeeze = true;
    c.squeezeOpts.speculate = false;
    return c;
}

SystemConfig
SystemConfig::dtsOnly()
{
    SystemConfig c = baseline();
    c.dts = true;
    return c;
}

SystemConfig
SystemConfig::dtsPlusBitspec(Heuristic h)
{
    SystemConfig c = bitspec(h);
    c.dts = true;
    return c;
}

void
evaluateEnergy(RunResult &r, const SystemConfig &config)
{
    r.energy = computeEnergy(r.counters, r.l1i, r.l1d, r.dram,
                             config.energy);
    if (config.dts) {
        DtsResult d = applyDts(r.energy, r.counters, config.dtsParams);
        r.totalEnergy = d.scaledEnergy;
        r.meanVoltage = d.meanVoltage;
    } else {
        r.totalEnergy = r.energy.total();
        r.meanVoltage = config.dtsParams.vNominal;
    }
    r.epi = r.counters.instructions
                ? r.totalEnergy /
                      static_cast<double>(r.counters.instructions)
                : 0.0;
}

TrainedModule::TrainedModule(
    const std::string &source, const ExpanderOptions &expander,
    const std::function<void(Module &)> &train_input)
    : expander_(expander)
{
    trace::Span span("system.train", "compile");
    module_ = compileSource(source);
    if (train_input)
        train_input(*module_);
    pipelineCheckpoint(*module_, "frontend:irgen");

    expandStats_ = expandModule(*module_, expander_);
    pipelineCheckpoint(*module_, "transform:expander");

    // One profiled run yields both the bitwidth profile and the
    // dynamic IR step count, for baseline configurations too.
    Interpreter interp(*module_);
    // Differential soundness check (BITSPEC_VERIFY_EACH): every value
    // the training run observes must respect its known-bits ceiling.
    if (pipelineVerifyEnabled())
        interp.enableStaticBoundsCheck();
    profile_.profileRun(interp, "main");
    irSteps_ = interp.stats().steps;
}

System::System(const std::string &source, const SystemConfig &config,
               const std::function<void(Module &)> &train_input)
    : System(TrainedModule(source, config.expander, train_input), config)
{}

System::System(const TrainedModule &trained, const SystemConfig &config)
    : config_(config)
{
    trace::Span span("system.build", "compile");
    span.arg("squeeze", config_.squeeze ? "1" : "0");
    span.arg("isa", config_.isa == TargetISA::BitSpec ? "bitspec"
                                                      : "baseline");
    bsAssert(trained.expander() == config_.expander,
             "System: the training used other ExpanderOptions");
    ValueMap copy_of;
    module_ = cloneModule(trained.module(),
                          config_.squeeze ? &copy_of : nullptr);
    expandStats_ = trained.expandStats();
    trainIrSteps_ = trained.irSteps();

    if (config_.squeeze) {
        squeezeStats_ =
            squeezeModule(*module_, trained.profile().rekeyed(copy_of),
                          config_.squeezeOpts);
        pipelineCheckpoint(*module_, "transform:squeezer");
    }

    compiled_ = std::make_unique<const CompiledProgram>(
        compileModule(*module_, config_.isa));
    predecoded_ =
        std::make_unique<const PredecodedProgram>(compiled_->program);
}

RunResult
System::run(const std::function<void(Module &)> &run_input,
            const RunObservers &observers, MisspecPolicy policy,
            uint64_t policy_seed) const
{
    return simulate(*prepareImage(run_input), observers, policy,
                    policy_seed);
}

std::unique_ptr<Module>
System::prepareImage(const std::function<void(Module &)> &run_input) const
{
    // The run's own copy of the post-profiling globals: the input
    // lands there and the core loads from it, so the System itself is
    // never written.
    std::unique_ptr<Module> globals = cloneGlobals(*module_);
    if (run_input)
        run_input(*globals);
    return globals;
}

RunResult
System::simulate(const Module &image, const RunObservers &observers,
                 MisspecPolicy policy, uint64_t policy_seed) const
{
    trace::Span span("system.run", "execute");
    FastCore core(*predecoded_, image);
    core.setBlockProfiler(observers.blocks);
    core.setReplay(observers.replay);
    core.setMisspecPolicy(policy, policy_seed);

    RunResult out;
    out.returnValue = core.run();
    out.outputChecksum = core.outputChecksum();
    out.counters = core.counters();
    out.l1i = core.memory().l1i();
    out.l1d = core.memory().l1d();
    out.l2 = core.memory().l2();
    out.dram = core.memory().dram();
    evaluateEnergy(out, config_);

    out.squeezeStats = squeezeStats_;
    out.expandStats = expandStats_;
    out.backendStats = compiled_->stats;
    if (trace::enabled())
        emitCounterSamples(out);
    if (observers.core) {
        observers.core->memos = core.memoCount();
        observers.core->replayedRuns = core.replayedRuns();
        observers.core->slowInsts = core.slowInsts();
    }
    return out;
}

} // namespace bitspec
