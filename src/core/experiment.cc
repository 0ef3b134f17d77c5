#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <errno.h> // program_invocation_short_name (glibc).
#include <exception>
#include <optional>
#include <type_traits>
#include <unordered_set>

#include "obs/flightrec.h"
#include "obs/ledger.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/trajectory.h"
#include "support/error.h"
#include "support/log.h"
#include "support/stats.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = kFnv1aOffset;
    for (unsigned char c : s)
        h = fnv1aStep(h, c);
    return h;
}

/** Append `;name=value` to a key: integers and enums in decimal,
 *  bools as 0/1, doubles at %.17g (which round-trips). Every key is
 *  one such string after the workload's name. */
template <typename T>
void
field(std::string &key, const char *name, T v)
{
    if constexpr (std::is_floating_point_v<T>)
        key += strFormat(";%s=%.17g", name, v);
    else if constexpr (std::is_same_v<T, const char *>)
        key += strFormat(";%s=%s", name, v);
    else
        key += strFormat(";%s=%llu", name, static_cast<unsigned long long>(v));
}

/** The workload and every SystemConfig field a compile reads. */
std::string
codegenKey(const Workload &w, const SystemConfig &c)
{
    std::string key = w.name;
    field(key, "src", fnv1a(w.source));
    field(key, "isa", c.isa);
    field(key, "squeeze", c.squeeze);
    field(key, "heuristic", c.squeezeOpts.heuristic);
    field(key, "speculate", c.squeezeOpts.speculate);
    field(key, "cmpElim", c.squeezeOpts.compareElimination);
    field(key, "bitmask", c.squeezeOpts.bitmaskElision);
    field(key, "staticKb", c.squeezeOpts.staticAnalysis);
    field(key, "unroll", c.expander.unrollFactor);
    field(key, "maxFn", c.expander.maxFunctionSize);
    field(key, "maxLoop", c.expander.maxLoopSize);
    field(key, "expand", c.expander.enabled);
    return key;
}

/** The SystemConfig fields only evaluateEnergy reads. */
void
appendEvaluationFields(std::string &key, const SystemConfig &c)
{
    const DtsParams &d = c.dtsParams;
    field(key, "dts", c.dts);
    field(key, "vNom", d.vNominal);
    field(key, "vTh", d.vThreshold);
    field(key, "alpha", d.alpha);
    field(key, "vMin", d.vMin);
    field(key, "fLogic", d.fracLogic);
    field(key, "fAddSub", d.fracAddSub);
    field(key, "fMulDiv", d.fracMulDiv);
    field(key, "fMem", d.fracMem);
    field(key, "fBranch", d.fracBranch);
    field(key, "widthAware", d.widthAware);
    field(key, "fAddSub8", d.fracAddSub8);
    field(key, "fLogic8", d.fracLogic8);
    field(key, "errRate", d.errorRate);
    field(key, "recE", d.recoveryEnergy);
    const EnergyParams &e = c.energy;
    field(key, "eAlu32", e.alu32);
    field(key, "eAlu8", e.alu8);
    field(key, "eMulDiv", e.mulDiv);
    field(key, "eRfR32", e.rfRead32);
    field(key, "eRfW32", e.rfWrite32);
    field(key, "eRfR8", e.rfRead8);
    field(key, "eRfW8", e.rfWrite8);
    field(key, "eIc", e.icacheAccess);
    field(key, "eDc", e.dcacheAccess);
    field(key, "eL2", e.l2Access);
    field(key, "eDram", e.dramAccess);
    field(key, "ePipe", e.pipelinePerCycle);
    field(key, "eMisspec", e.misspecRecovery);
}

/** The training key: the System key of a configuration that keeps
 *  only @p e. A training reads the source and the training input
 *  (both named by the workload at @p profile_seed) and the expander
 *  options; the rest of SystemConfig only matters after the profile,
 *  so every configuration with equal ExpanderOptions shares it. */
Hash128
trainingKeyHash(const Workload &w, const ExpanderOptions &e,
                uint64_t profile_seed)
{
    SystemConfig only_expander;
    only_expander.expander = e;
    return ExperimentRunner::systemKeyHash(w, only_expander,
                                           profile_seed);
}

/** One memo tier's bookkeeping: the ExperimentStats counters and the
 *  trace instants of a lookup. */
struct MemoTier
{
    const char *missEvent;
    const char *hitEvent;
    uint64_t ExperimentStats::*misses;
    uint64_t ExperimentStats::*hits;
    /** Hits that found the value still being computed; null when the
     *  tier does not count them (its hit instants then name no
     *  "inflight"). */
    uint64_t ExperimentStats::*inflightWaits = nullptr;
};

constexpr MemoTier kSystemTier{"cache.miss", "cache.hit",
                               &ExperimentStats::systemsBuilt,
                               &ExperimentStats::cacheHits,
                               &ExperimentStats::inflightWaits};
constexpr MemoTier kTrainingTier{"train.miss", "train.hit",
                                 &ExperimentStats::trainings,
                                 &ExperimentStats::trainingHits};
constexpr MemoTier kSimulationTier{"sim.miss", "sim.hit",
                                   &ExperimentStats::simulations,
                                   &ExperimentStats::simulationHits};

/** The simulation key of a cell on @p sys with data image @p image:
 *  everything FastCore reads. That is the code (the System's code
 *  key, so configurations that compile to one code share it), every
 *  global's address and bytes after the run input, the policy and
 *  the policy seed. */
Hash128
simulationKeyHash(const System &sys, const Module &image,
                  const ExperimentCell &cell)
{
    WordHash128 h;
    h.add(sys.codeKey().hi);
    h.add(sys.codeKey().lo);
    for (const auto &g : image.globals()) {
        h.add(g->address());
        h.addBytes(g->data().data(), g->data().size());
    }
    h.add(static_cast<uint64_t>(cell.policy));
    h.add(cell.policySeed);
    return h.digest();
}

/**
 * The value of @p key in @p memo (guarded by @p mu, counted in
 * @p stats under @p tier). The first requester claims the key and
 * runs @p compute inline; every later one waits on its shared_future,
 * whose exception (a failed compute) it rethrows. @p claimed
 * (optional) receives whether this call computed the value.
 */
template <typename Memo, typename Compute,
          typename Value = std::invoke_result_t<const Compute &>>
Value
claimOrWait(std::mutex &mu, ExperimentStats &stats, Memo &memo,
            const Hash128 &key, const MemoTier &tier,
            const std::string &workload, const Compute &compute,
            bool *claimed = nullptr)
{
    std::promise<Value> promise;
    typename Memo::mapped_type fut;
    bool claim = false;
    bool inflight = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto [it, fresh] = memo.try_emplace(key);
        claim = fresh;
        if (claim) {
            it->second = promise.get_future().share();
            ++(stats.*tier.misses);
        } else {
            ++(stats.*tier.hits);
            inflight = it->second.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready;
            if (inflight && tier.inflightWaits)
                ++(stats.*tier.inflightWaits);
        }
        fut = it->second;
    }

    if (claim) {
        trace::instant(tier.missEvent, "experiment",
                       {{"workload", workload}});
        try {
            promise.set_value(compute());
        } catch (...) {
            // Every requester of this key sees the failure.
            promise.set_exception(std::current_exception());
        }
    } else if (tier.inflightWaits) {
        trace::instant(tier.hitEvent, "experiment",
                       {{"workload", workload},
                        {"inflight", inflight ? "1" : "0"}});
    } else {
        trace::instant(tier.hitEvent, "experiment",
                       {{"workload", workload}});
    }
    if (claimed)
        *claimed = claim;
    return fut.get();
}

} // namespace

std::string
ExperimentRunner::systemKey(const Workload &w, const SystemConfig &c,
                            uint64_t profile_seed)
{
    std::string key = codegenKey(w, c);
    field(key, "pseed", profile_seed);
    return key;
}

Hash128
ExperimentRunner::systemKeyHash(const Workload &w,
                                const SystemConfig &c,
                                uint64_t profile_seed)
{
    Hash128Builder h;
    h.update(systemKey(w, c, profile_seed));
    return h.digest();
}

std::string
ExperimentRunner::cellKey(const ExperimentCell &cell)
{
    bsAssert(cell.workload != nullptr, "cellKey on empty cell");
    // The evaluation fields sit before the profile seed, where they
    // were when the System key held them: ledgers written on either
    // side of that change join on these bytes.
    std::string key = codegenKey(*cell.workload, cell.config);
    appendEvaluationFields(key, cell.config);
    field(key, "pseed", cell.profileSeed);
    field(key, "rseed", cell.runSeed);
    // A fixed segment: ledgers written while the core had a second
    // engine carry it (as "default" for every cell without an
    // override), and bitspec-diff joins on the whole key.
    field(key, "engine", "default");
    field(key, "policy", misspecPolicyName(cell.policy));
    field(key, "polseed", cell.policySeed);
    return key;
}

ExperimentRunner::ExperimentRunner(unsigned threads)
    : pool_(threads), ledgerLabel_(program_invocation_short_name)
{}

std::shared_ptr<const System>
ExperimentRunner::getOrBuild(const Hash128 &key, const Workload &w,
                             const SystemConfig &config,
                             uint64_t profile_seed,
                             const char **origin)
{
    bool built = false;
    std::shared_ptr<const System> sys = claimOrWait(
        cacheMu_, stats_, cache_, key, kSystemTier, w.name,
        [&]() -> std::shared_ptr<const System> {
            std::shared_ptr<const TrainedModule> trained =
                getOrTrain(w, config.expander, profile_seed);
            return std::make_shared<const System>(*trained, config);
        },
        &built);
    if (origin)
        *origin = built ? "compile" : "memory";
    return sys;
}

std::shared_ptr<const TrainedModule>
ExperimentRunner::getOrTrain(const Workload &w,
                             const ExpanderOptions &expander,
                             uint64_t profile_seed)
{
    return claimOrWait(
        cacheMu_, stats_, trained_,
        trainingKeyHash(w, expander, profile_seed), kTrainingTier,
        w.name, [&]() -> std::shared_ptr<const TrainedModule> {
            return std::make_shared<const TrainedModule>(
                w.source, expander, [&w, profile_seed](Module &m) {
                    w.setInput(m, profile_seed);
                });
        });
}

RunResult
ExperimentRunner::runCell(const ExperimentCell &cell, const Hash128 &key,
                          std::shared_ptr<const System> sys,
                          const char *origin)
{
    bsAssert(cell.workload != nullptr, "experiment cell w/o workload");
    // Worker threads are owned by the support-layer pool, which cannot
    // depend on obs; name their trace lanes on first use instead.
    trace::nameThisThread("worker");
    trace::Span span("experiment.cell", "experiment");
    span.arg("workload", cell.workload->name);
    span.arg("squeeze", cell.config.squeeze ? "1" : "0");
    span.arg("run_seed", std::to_string(cell.runSeed));
    if (cell.policy != MisspecPolicy::Hardware)
        span.arg("policy", misspecPolicyName(cell.policy));
    if (!sys)
        sys = getOrBuild(key, *cell.workload, cell.config,
                         cell.profileSeed, &origin);
    const Workload &w = *cell.workload;
    uint64_t run_seed = cell.runSeed;

    LedgerWriter *ledger = LedgerWriter::global();
    // Detail capture attaches the block profiler, which also yields
    // the region rows. Replay, inline branch completion and chaining
    // stay on, but every replayed instruction is fed to the sink, so
    // detail runs are slower — the default ledger record is
    // deliberately cheap (BITSPEC_LEDGER alone must stay within
    // bench_smoke's 1% overhead gate).
    const bool detail = ledger && LedgerWriter::detailEnabled();
    LedgerRecord rec;
    uint64_t log_errors0 = 0, log_warns0 = 0;
    if (ledger) {
        rec.flavour = buildFlavour();
        rec.bench = ledgerLabel_;
        rec.workload = w.name;
        rec.cellKey = cellKey(cell);
        rec.systemKey = systemKey(w, cell.config, cell.profileSeed);
        rec.artifactKey = key.hex();
        rec.cacheSource = origin;
        rec.policy = misspecPolicyName(cell.policy);
        rec.profileSeed = cell.profileSeed;
        rec.runSeed = cell.runSeed;
        rec.policySeed = cell.policySeed;
        rec.env = captureBitspecEnv();
        log_errors0 = log::count(log::Level::Error);
        log_warns0 = log::count(log::Level::Warn);
        // Provenance-only snapshot for the flight recorder: if this
        // run dies, the post-mortem names the cell that was in
        // flight.
        if (flightrec::active())
            flightrec::setInflight(toJsonLine(rec).c_str());
    }

    std::optional<BlockMap> bmap;
    std::optional<BlockProfilerSink> bsink;
    // Schema-1 records carry an engine; FastCore keeps the name older
    // ledgers recorded for it, so they still compare.
    if (ledger)
        rec.engine = "fast";
    const Clock::time_point t0 = Clock::now();
    // One input per cell, served or not.
    const std::unique_ptr<Module> image = sys->prepareImage(
        [&w, run_seed](Module &m) { w.setInput(m, run_seed); });
    RunResult out;
    bool simulated = true;
    if (detail) {
        // Observed runs simulate every time: the sink needs the run.
        bmap.emplace(sys->program());
        bsink.emplace(*bmap);
        RunObservers observers;
        observers.blocks = &*bsink;
        out = sys->simulate(*image, observers, cell.policy,
                            cell.policySeed);
    } else {
        out = *claimOrWait(
            cacheMu_, stats_, simulations_,
            simulationKeyHash(*sys, *image, cell), kSimulationTier,
            w.name,
            [&]() -> std::shared_ptr<const RunResult> {
                return std::make_shared<const RunResult>(sys->simulate(
                    *image, {}, cell.policy, cell.policySeed));
            },
            &simulated);
        // The simulation may have run on another System of its code:
        // the compile's stats are this System's own.
        out.squeezeStats = sys->squeezeStats();
        out.expandStats = sys->expandStats();
        out.backendStats = sys->backendStats();
    }
    // The run may have been made for another cell: evaluate this
    // cell's own energy and DTS settings.
    evaluateEnergy(out, cell.config);
    const double wall_sec = secondsSince(t0);

    if (ledger) {
        rec.simSource = simulated ? "simulate" : "memory";
        fillRunTelemetry(rec, out.counters, out.l1i, out.l1d, out.l2,
                         out.dram, out.energy, out.totalEnergy,
                         out.epi, out.meanVoltage, out.returnValue,
                         out.outputChecksum, wall_sec);
        rec.setField("log.errors",
                     static_cast<double>(
                         log::count(log::Level::Error) - log_errors0));
        rec.setField("log.warns",
                     static_cast<double>(log::count(log::Level::Warn) -
                                         log_warns0));
        const SqueezeStats &sq = out.squeezeStats;
        rec.setField("squeeze.narrowed", sq.narrowed);
        rec.setField("squeeze.regions", sq.regions);
        rec.setField("squeeze.spec_truncs", sq.specTruncs);
        rec.setField("squeeze.compares_eliminated",
                     sq.comparesEliminated);
        rec.setField("squeeze.bitmasks_elided", sq.bitmasksElided);
        rec.setField("squeeze.static_narrowed", sq.staticNarrowed);
        rec.setField("squeeze.checks_dropped", sq.checksDropped);
        rec.setField("squeeze.regions_elided", sq.regionsElided);
        rec.setField("squeeze.lint_proven_safe", sq.lintProvenSafe);
        rec.setField("squeeze.lint_proven_unsafe",
                     sq.lintProvenUnsafe);
        rec.setField("squeeze.lint_speculative", sq.lintSpeculative);
        rec.setField("squeeze.lint_spec_leaks", sq.lintSpecLeaks);
        rec.setField("squeeze.lint_leaks_discharged",
                     sq.lintLeaksDischarged);
        rec.setField("expand.inlined_calls",
                     out.expandStats.inlinedCalls);
        rec.setField("expand.unrolled_loops",
                     out.expandStats.unrolledLoops);
        const BackendStats &be = out.backendStats;
        rec.setField("backend.static_spill_loads",
                     be.staticSpillLoads);
        rec.setField("backend.static_spill_stores",
                     be.staticSpillStores);
        rec.setField("backend.static_copies", be.staticCopies);
        rec.setField("backend.spilled_vregs", be.spilledVRegs);
        rec.setField("backend.static_insts", be.staticInsts);
        rec.setField("backend.skeleton_insts", be.skeletonInsts);

        if (detail) {
            const auto &regions = bmap->regions();
            const std::vector<RegionActivity> activity =
                bsink->regionActivity();
            for (size_t i = 0; i < regions.size(); ++i) {
                const RegionActivity &a = activity[i];
                if (a.entries == 0 && a.misspecs == 0 &&
                    a.handlerInsts == 0)
                    continue;
                LedgerRegionRow row;
                row.function = regions[i].function;
                row.regionId = regions[i].regionId;
                row.srcLine = regions[i].srcLine;
                row.entries = a.entries;
                row.misspecs = a.misspecs;
                row.specInsts = a.specInsts;
                row.handlerInsts = a.handlerInsts;
                row.handlerCycles = a.handlerCycles;
                rec.regions.push_back(std::move(row));
            }
            rec.setField(
                "regions.unattributed_misspecs",
                static_cast<double>(bsink->unattributedMisspecs()));

            // Top-K heat rows by cycles; the *_total fields carry the
            // exact whole-run sums so validation reconciles against
            // ActivityCounters even though most rows are dropped.
            const auto &bsites = bmap->sites();
            const auto &bact = bsink->activity();
            std::vector<size_t> order;
            for (size_t i = 0; i < bsites.size(); ++i)
                if (bact[i].insts > 0)
                    order.push_back(i);
            std::sort(order.begin(), order.end(),
                      [&bact](size_t x, size_t y) {
                          return bact[x].cycles > bact[y].cycles;
                      });
            constexpr size_t kTopK = 16;
            if (order.size() > kTopK)
                order.resize(kTopK);
            for (size_t i : order) {
                LedgerHeatRow row;
                row.function = bsites[i].function;
                row.block = bsites[i].block;
                row.regionId = bsites[i].regionId;
                row.srcLine = bsites[i].srcLine;
                row.entries = bact[i].entries;
                row.insts = bact[i].insts;
                row.cycles = bact[i].cycles;
                row.misspecs = bact[i].misspecs;
                rec.heat.push_back(std::move(row));
            }
            rec.setField("heat.total_insts",
                         static_cast<double>(bsink->totalInsts()));
            rec.setField("heat.total_cycles",
                         static_cast<double>(bsink->totalCycles()));
            rec.setField(
                "heat.total_misspecs",
                static_cast<double>(bsink->totalMisspecs()));
        }
        ledger->append(rec);
        if (flightrec::active())
            flightrec::clearInflight();
    }
    return out;
}

std::vector<RunResult>
ExperimentRunner::run(const std::vector<ExperimentCell> &cells)
{
    // Plan: one build per distinct System key, made for (and counted
    // as the lookup of) the key's first cell. The first key of each
    // training goes ahead of all others, so the workers train
    // different workloads side by side instead of waiting on one
    // training for its configurations.
    struct Build
    {
        size_t firstCell = 0;
        Hash128 key;
        std::shared_ptr<const System> system;
        const char *origin = "memory";
        std::exception_ptr error;
        double wallSec = 0;
    };
    std::vector<Build> builds;
    std::vector<size_t> buildOf(cells.size());
    std::vector<size_t> order; // Build indices in submission order.
    {
        std::unordered_map<Hash128, size_t, Hash128Hasher> byKey;
        std::unordered_set<Hash128, Hash128Hasher> trainings;
        std::vector<size_t> later;
        for (size_t i = 0; i < cells.size(); ++i) {
            const ExperimentCell &c = cells[i];
            bsAssert(c.workload != nullptr,
                     "experiment cell w/o workload");
            const Hash128 key =
                systemKeyHash(*c.workload, c.config, c.profileSeed);
            const auto [it, fresh] = byKey.emplace(key, builds.size());
            buildOf[i] = it->second;
            if (!fresh)
                continue;
            const bool trains =
                trainings
                    .insert(trainingKeyHash(*c.workload,
                                            c.config.expander,
                                            c.profileSeed))
                    .second;
            (trains ? order : later).push_back(builds.size());
            Build &bd = builds.emplace_back();
            bd.firstCell = i;
            bd.key = key;
        }
        order.insert(order.end(), later.begin(), later.end());
    }

    auto build = [this, &cells](Build &bd) {
        const ExperimentCell &c = cells[bd.firstCell];
        trace::nameThisThread("worker");
        trace::Span span("experiment.build", "experiment");
        span.arg("workload", c.workload->name);
        const Clock::time_point t0 = Clock::now();
        try {
            bd.system = getOrBuild(bd.key, *c.workload, c.config,
                                   c.profileSeed, &bd.origin);
        } catch (...) {
            bd.error = std::current_exception(); // The first cell's.
        }
        bd.wallSec = secondsSince(t0);
    };
    std::vector<std::shared_future<void>> built(builds.size());
    for (size_t b : order) {
        built[b] =
            pool_.submit([&build, &builds, b] { build(builds[b]); })
                .share();
    }

    std::vector<RunResult> results(cells.size());
    // Per-cell wall times (measured inside the worker, so parallelism
    // does not inflate them) feed the matrix-level ledger record's
    // percentile fields; a key's first cell also carries its build.
    std::vector<double> walls(cells.size(), 0.0);
    std::vector<std::future<void>> futs;
    futs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        futs.push_back(pool_.submit([this, &cells, &builds, &buildOf,
                                     &built, &results, &walls, i] {
            // The queue is FIFO and every build was queued before any
            // run, so the build left the queue first: this waits on a
            // running worker, if at all.
            built[buildOf[i]].wait();
            const Build &bd = builds[buildOf[i]];
            const Clock::time_point c0 = Clock::now();
            if (i != bd.firstCell) {
                results[i] = runCell(cells[i], bd.key);
                walls[i] = secondsSince(c0);
                return;
            }
            if (bd.error)
                std::rethrow_exception(bd.error);
            results[i] = runCell(cells[i], bd.key, bd.system, bd.origin);
            walls[i] = bd.wallSec + secondsSince(c0);
        }));
    }

    // Drain every future before unwinding: tasks reference this
    // frame's vectors (a build finishes before its first cell's run
    // task can), so no early rethrow. Report the first failure
    // (submission order), matching what the serial loop would throw.
    std::exception_ptr first;
    for (auto &f : futs) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    {
        std::lock_guard<std::mutex> lock(cacheMu_);
        stats_.cells += cells.size();
    }
    // One matrix-level record per run() call summarizing the cell
    // wall-time distribution; skipped on failure (a failed cell's wall
    // time is meaningless).
    LedgerWriter *ledger = LedgerWriter::global();
    if (!first && ledger && !cells.empty()) {
        Histogram h;
        for (double wsec : walls)
            h.add(wsec);
        LedgerRecord rec;
        rec.kind = "matrix";
        rec.flavour = buildFlavour();
        rec.bench = ledgerLabel_;
        rec.env = captureBitspecEnv();
        rec.setField("matrix.cells",
                     static_cast<double>(cells.size()));
        rec.setField("wall.total_sec", h.sum());
        rec.setField("wall.mean_sec", h.mean());
        rec.setField("wall.p50_sec", h.p50());
        rec.setField("wall.p95_sec", h.p95());
        rec.setField("wall.p99_sec", h.p99());
        ledger->append(rec);
    }
    if (first)
        std::rethrow_exception(first);
    return results;
}

void
ExperimentRunner::withSystem(
    const Workload &w, const SystemConfig &config,
    uint64_t profile_seed, const std::function<void(const System &)> &fn)
{
    fn(*getOrBuild(systemKeyHash(w, config, profile_seed), w, config,
                   profile_seed));
}

ExperimentStats
ExperimentRunner::stats() const
{
    std::lock_guard<std::mutex> lock(cacheMu_);
    return stats_;
}

void
ExperimentRunner::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMu_);
    cache_.clear();
    trained_.clear();
    simulations_.clear();
}

void
ExperimentRunner::clearSimulations()
{
    std::lock_guard<std::mutex> lock(cacheMu_);
    simulations_.clear();
}

} // namespace bitspec
