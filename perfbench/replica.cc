#include "replica.h"

#include <chrono>
#include <map>

#include "analysis/pipeline.h"
#include "backend/compiler.h"
#include "backend/layout.h"
#include "backend/mir_verifier.h"
#include "backend/regalloc.h"
#include "energy/dts.h"
#include "energy/model.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "transform/expander.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "uarch/predecode.h"
#include "workloads/workload.h"

namespace bitspec::perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Adds the scope's duration to a LayerProfile field. */
class StageTimer
{
  public:
    explicit StageTimer(double &acc) : acc_(acc), t0_(Clock::now()) {}
    ~StageTimer()
    {
        acc_ += std::chrono::duration<double>(Clock::now() - t0_).count();
    }
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    double &acc_;
    Clock::time_point t0_;
};

uint64_t
irInstructions(const Module &m)
{
    uint64_t n = 0;
    for (const auto &f : m.functions())
        n += f->instructionCount();
    return n;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

/** What System keeps between runs: the module, the training
 *  interpreter, the linked program and the lazily built fast core. */
struct Replica::Build
{
    SystemConfig config;
    std::unique_ptr<Module> module;
    std::unique_ptr<Interpreter> trainInterp;
    CompiledProgram compiled;
    SqueezeStats squeezeStats;
    ExpandStats expandStats;
    std::vector<std::pair<Global *, std::vector<uint8_t>>> globals;
    std::unique_ptr<PredecodedProgram> predecoded;
    std::unique_ptr<FastCore> core;
};

Replica::Replica() = default;
Replica::~Replica() = default;

std::vector<RunResult>
Replica::run(const std::vector<ExperimentCell> &cells)
{
    StageTimer wall(prof_.wallSec);
    std::vector<RunResult> out;
    out.reserve(cells.size());
    for (const ExperimentCell &c : cells)
        out.push_back(runCell(getOrBuild(c), c));
    prof_.memos = 0;
    for (const auto &[key, b] : cache_)
        if (b->core)
            prof_.memos += b->core->memoCount();
    return out;
}

Replica::Build &
Replica::getOrBuild(const ExperimentCell &cell)
{
    const Workload &w = *cell.workload;
    const Hash128 key = ExperimentRunner::systemKeyHash(
        w, cell.config, cell.profileSeed);
    std::unique_ptr<Build> &slot = cache_[key];
    if (slot)
        return *slot;
    slot = std::make_unique<Build>();
    Build &b = *slot;
    b.config = cell.config;

    {
        StageTimer t(prof_.frontendSec);
        b.module = compileSource(w.source);
    }
    Module &m = *b.module;
    prof_.frontendIrInsts += irInstructions(m);
    {
        StageTimer t(prof_.workloadsSec);
        w.setInput(m, cell.profileSeed);
    }
    {
        StageTimer t(prof_.frontendSec);
        pipelineCheckpoint(m, "frontend:irgen");
    }
    {
        StageTimer t(prof_.expanderSec);
        b.expandStats = expandModule(m, b.config.expander);
        pipelineCheckpoint(m, "transform:expander");
    }
    prof_.expanderIrInsts += irInstructions(m);
    prof_.inlinedCalls += b.expandStats.inlinedCalls;
    prof_.unrolledLoops += b.expandStats.unrolledLoops;

    if (b.config.squeeze) {
        BitwidthProfile profile;
        {
            StageTimer t(prof_.profileSec);
            b.trainInterp = std::make_unique<Interpreter>(m);
            if (pipelineVerifyEnabled())
                b.trainInterp->enableStaticBoundsCheck();
            profile.profileRun(*b.trainInterp, "main", {});
        }
        prof_.irSteps += b.trainInterp->stats().steps;
        {
            StageTimer t(prof_.squeezerSec);
            b.squeezeStats =
                squeezeModule(m, profile, b.config.squeezeOpts);
            b.trainInterp->invalidate();
            pipelineCheckpoint(m, "transform:squeezer");
        }
        prof_.squeezerIrInsts += irInstructions(m);
        prof_.narrowed += b.squeezeStats.narrowed;
        prof_.regions += b.squeezeStats.regions;
        prof_.checksDropped += b.squeezeStats.checksDropped;
    } else {
        StageTimer t(prof_.profileSec);
        b.trainInterp = std::make_unique<Interpreter>(m);
        if (pipelineVerifyEnabled())
            b.trainInterp->enableStaticBoundsCheck();
        b.trainInterp->run("main", {});
        prof_.irSteps += b.trainInterp->stats().steps;
    }

    // compileModule, one entry point at a time.
    std::map<const Function *, int> ids;
    Function *main_fn = nullptr;
    {
        StageTimer t(prof_.globalsSec);
        m.layoutGlobals();
        int next = 0;
        for (const auto &f : m.functions())
            ids[f.get()] = next++;
        main_fn = m.getFunction("main");
        if (!main_fn)
            fatal("compileModule: no main function");
        pipelineCheckpoint(m, "backend:pre_isel");
    }
    BackendStats &bs = b.compiled.stats;
    std::vector<MachFunction> funcs;
    for (const auto &f : m.functions()) {
        MachFunction mf = [&] {
            StageTimer t(prof_.iselSec);
            return selectFunction(*f, ids[f.get()], b.config.isa, ids);
        }();
        {
            StageTimer t(prof_.regallocSec);
            BackendStats fs = allocateRegisters(mf);
            bs.staticSpillLoads += fs.staticSpillLoads;
            bs.staticSpillStores += fs.staticSpillStores;
            bs.staticCopies += fs.staticCopies;
            bs.spilledVRegs += fs.spilledVRegs;
        }
        {
            StageTimer t(prof_.layoutSec);
            bs.skeletonInsts += layoutFunction(mf);
        }
        {
            StageTimer t(prof_.mirVerifySec);
            mirVerifyOrDie(mf, "after layout of " + mf.name);
        }
        funcs.push_back(std::move(mf));
    }
    {
        StageTimer t(prof_.linkSec);
        b.compiled.program = linkProgram(std::move(funcs), ids[main_fn]);
    }
    bs.staticInsts = static_cast<unsigned>(b.compiled.program.flat.size());
    prof_.staticInsts += bs.staticInsts;
    prof_.spilledVRegs += bs.spilledVRegs;
    prof_.skeletonInsts += bs.skeletonInsts;

    b.globals.reserve(m.globals().size());
    for (const auto &g : m.globals())
        b.globals.emplace_back(g.get(), g->data());
    return b;
}

RunResult
Replica::runCell(Build &b, const ExperimentCell &cell)
{
    {
        StageTimer t(prof_.workloadsSec);
        for (auto &[g, bytes] : b.globals)
            g->setData(bytes);
        cell.workload->setInput(*b.module, cell.runSeed);
    }
    if (!b.predecoded) {
        StageTimer t(prof_.predecodeSec);
        b.predecoded =
            std::make_unique<PredecodedProgram>(b.compiled.program);
    }

    RunResult out;
    uint64_t slow0 = 0;
    {
        StageTimer t(prof_.coreSec);
        if (!b.core) {
            b.core = std::make_unique<FastCore>(*b.predecoded, *b.module);
        } else {
            b.core->reset();
            slow0 = b.core->slowInsts();
        }
        FastCore &core = *b.core;
        core.setMisspecPolicy(cell.policy, cell.policySeed);
        out.returnValue = core.run({});
        out.outputChecksum = core.outputChecksum();
        out.counters = core.counters();
        out.l1i = core.memory().l1i();
        out.l1d = core.memory().l1d();
        out.l2 = core.memory().l2();
        out.dram = core.memory().dram();
    }
    prof_.simInstrs += out.counters.instructions;
    prof_.simCycles += out.counters.cycles;
    prof_.slowInsts += b.core->slowInsts() - slow0;

    {
        StageTimer t(prof_.energySec);
        out.energy = computeEnergy(out.counters, b.core->memory(),
                                   b.config.energy);
        if (b.config.dts) {
            DtsResult d =
                applyDts(out.energy, out.counters, b.config.dtsParams);
            out.totalEnergy = d.scaledEnergy;
            out.meanVoltage = d.meanVoltage;
        } else {
            out.totalEnergy = out.energy.total();
            out.meanVoltage = b.config.dtsParams.vNominal;
        }
        out.epi = out.counters.instructions
                      ? out.totalEnergy /
                            static_cast<double>(out.counters.instructions)
                      : 0.0;
    }
    out.squeezeStats = b.squeezeStats;
    out.expandStats = b.expandStats;
    out.backendStats = b.compiled.stats;
    return out;
}

std::vector<LayerMetric>
layerMetrics(const LayerProfile &p)
{
    const double compile = p.frontendSec + p.expanderSec + p.profileSec +
                           p.squeezerSec + p.globalsSec + p.iselSec +
                           p.regallocSec + p.layoutSec + p.mirVerifySec +
                           p.linkSec;
    const double layers = compile + p.workloadsSec + p.predecodeSec +
                          p.coreSec + p.energySec;
    const auto count = [](uint64_t v) { return static_cast<double>(v); };
    return {
        {"frontend.s", p.frontendSec, "s"},
        {"frontend.ir_insts", count(p.frontendIrInsts), "count"},
        {"workloads.s", p.workloadsSec, "s"},
        {"expander.s", p.expanderSec, "s"},
        {"expander.ir_insts", count(p.expanderIrInsts), "count"},
        {"expander.inlined_calls", count(p.inlinedCalls), "count"},
        {"expander.unrolled_loops", count(p.unrolledLoops), "count"},
        {"profile.s", p.profileSec, "s"},
        {"profile.ir_steps", count(p.irSteps), "count"},
        {"profile.ir_steps_per_s", ratio(count(p.irSteps), p.profileSec),
         "1/s"},
        {"squeezer.s", p.squeezerSec, "s"},
        {"squeezer.ir_insts", count(p.squeezerIrInsts), "count"},
        {"squeezer.narrowed", count(p.narrowed), "count"},
        {"squeezer.regions", count(p.regions), "count"},
        {"squeezer.checks_dropped", count(p.checksDropped), "count"},
        {"backend.globals_s", p.globalsSec, "s"},
        {"backend.isel_s", p.iselSec, "s"},
        {"backend.regalloc_s", p.regallocSec, "s"},
        {"backend.layout_s", p.layoutSec, "s"},
        {"backend.mir_verify_s", p.mirVerifySec, "s"},
        {"backend.link_s", p.linkSec, "s"},
        {"backend.static_insts", count(p.staticInsts), "count"},
        {"backend.spilled_vregs", count(p.spilledVRegs), "count"},
        {"backend.skeleton_insts", count(p.skeletonInsts), "count"},
        {"uarch.predecode_s", p.predecodeSec, "s"},
        {"uarch.core_s", p.coreSec, "s"},
        {"uarch.sim_instrs", count(p.simInstrs), "count"},
        {"uarch.sim_cycles", count(p.simCycles), "count"},
        {"uarch.minstr_per_s",
         ratio(count(p.simInstrs), p.coreSec) / 1e6, "MInstr/s"},
        {"uarch.memos", count(p.memos), "count"},
        {"uarch.replay_share",
         1.0 - ratio(count(p.slowInsts), count(p.simInstrs)), "ratio"},
        {"energy.s", p.energySec, "s"},
        {"core.other_s", p.wallSec - layers, "s"},
        {"compile.share", ratio(compile, p.wallSec), "ratio"},
        {"uarch.core_share", ratio(p.coreSec, p.wallSec), "ratio"},
        {"traced.wall_s", p.wallSec, "s"},
        {"traced.untraced_wall_s", p.untracedWallSec, "s"},
        {"traced.overhead_ratio", ratio(p.wallSec, p.untracedWallSec),
         "ratio"},
    };
}

} // namespace bitspec::perfbench
