#include "core/system.h"

#include "analysis/pipeline.h"
#include "analysis/verifier.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/error.h"

namespace bitspec
{

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

TrainedModule::TrainedModule(
    const std::string &source, const ExpanderOptions &expander,
    const std::function<void(Module &)> &train_input,
    const std::vector<uint64_t> &train_args)
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
    profile_.profileRun(interp, "main", train_args);
    irSteps_ = interp.stats().steps;
}

System::System(const std::string &source, const SystemConfig &config,
               const std::function<void(Module &)> &train_input,
               const std::vector<uint64_t> &train_args)
    : System(TrainedModule(source, config.expander, train_input,
                           train_args),
             config)
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
            const std::vector<uint32_t> &args,
            const RunObservers &observers, MisspecPolicy policy,
            uint64_t policy_seed) const
{
    trace::Span span("system.run", "execute");
    // The run's own copy of the post-profiling globals: the input
    // lands there and the core loads from it, so the System itself is
    // never written.
    std::unique_ptr<Module> globals = cloneGlobals(*module_);
    if (run_input)
        run_input(*globals);

    // Any traced run gets counter tracks alongside its spans unless
    // the caller brought its own emitter.
    CounterTrackEmitter traced_tracks;
    CounterTrackEmitter *tracks = observers.tracks;
    if (!tracks && trace::enabled())
        tracks = &traced_tracks;

    FastCore core(*predecoded_, *globals);
    core.setBlockProfiler(observers.blocks);
    core.setCounterTracks(tracks);
    core.setMisspecPolicy(policy, policy_seed);

    RunResult out;
    out.returnValue = core.run(args);
    out.outputChecksum = core.outputChecksum();
    out.counters = core.counters();
    out.l1i = core.memory().l1i();
    out.l1d = core.memory().l1d();
    out.l2 = core.memory().l2();
    out.dram = core.memory().dram();
    out.energy =
        computeEnergy(core.counters(), core.memory(), config_.energy);
    if (config_.dts) {
        DtsResult d =
            applyDts(out.energy, out.counters, config_.dtsParams);
        out.totalEnergy = d.scaledEnergy;
        out.meanVoltage = d.meanVoltage;
    } else {
        out.totalEnergy = out.energy.total();
        out.meanVoltage = config_.dtsParams.vNominal;
    }
    out.epi = out.counters.instructions
                  ? out.totalEnergy /
                        static_cast<double>(out.counters.instructions)
                  : 0.0;

    out.squeezeStats = squeezeStats_;
    out.expandStats = expandStats_;
    out.backendStats = compiled_->stats;
    if (observers.core) {
        observers.core->memos = core.memoCount();
        observers.core->replayedRuns = core.replayedRuns();
        observers.core->slowInsts = core.slowInsts();
    }
    return out;
}

} // namespace bitspec
