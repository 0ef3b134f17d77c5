#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <errno.h> // program_invocation_short_name (glibc).
#include <exception>
#include <optional>
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
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * The canonical key and its 128-bit hash are two renderings of the
 * same field sequence, kept in lockstep by folding through a sink:
 * StringKeySink builds the readable key (the ledger's system and cell
 * keys), HashKeySink digests the identical fields without any heap
 * allocation — the rendering getOrBuild uses per lookup.
 */
struct StringKeySink
{
    std::string key;

    void text(const std::string &s) { key += s; }

    void
    field(const char *name, double v)
    {
        key += strFormat(";%s=%.17g", name, v);
    }

    void
    field(const char *name, uint64_t v)
    {
        key += strFormat(";%s=%llu", name,
                         static_cast<unsigned long long>(v));
    }

    void
    field(const char *name, bool v)
    {
        key += strFormat(";%s=%d", name, v ? 1 : 0);
    }

    void
    field(const char *name, const std::string &v)
    {
        key += strFormat(";%s=%s", name, v.c_str());
    }
};

struct HashKeySink
{
    Hash128Builder h;

    void
    text(const std::string &s)
    {
        h.updateU64(s.size());
        h.update(s);
    }

    void
    name(const char *n)
    {
        h.update(n, std::strlen(n) + 1); // NUL delimits field names.
    }

    void
    field(const char *n, double v)
    {
        name(n);
        h.updateDouble(v); // Bit pattern <=> %.17g round-trip.
    }

    void
    field(const char *n, uint64_t v)
    {
        name(n);
        h.updateU64(v);
    }

    void
    field(const char *n, bool v)
    {
        name(n);
        h.updateU64(v ? 1 : 0);
    }

    void
    field(const char *n, const std::string &v)
    {
        name(n);
        text(v);
    }
};

template <typename Sink>
void
foldSystemKey(Sink &s, const Workload &w, const SystemConfig &c,
              uint64_t profile_seed)
{
    auto appendField = [&s](const char *n, auto v) { s.field(n, v); };
    s.text(w.name);
    appendField("src", fnv1a(w.source));
    appendField("isa", static_cast<uint64_t>(c.isa));
    appendField("squeeze", c.squeeze);
    appendField("heuristic",
                static_cast<uint64_t>(c.squeezeOpts.heuristic));
    appendField("speculate", c.squeezeOpts.speculate);
    appendField("cmpElim", c.squeezeOpts.compareElimination);
    appendField("bitmask", c.squeezeOpts.bitmaskElision);
    appendField("staticKb", c.squeezeOpts.staticAnalysis);
    appendField("unroll",
                static_cast<uint64_t>(c.expander.unrollFactor));
    appendField("maxFn",
                static_cast<uint64_t>(c.expander.maxFunctionSize));
    appendField("maxLoop",
                static_cast<uint64_t>(c.expander.maxLoopSize));
    appendField("expand", c.expander.enabled);
    appendField("dts", c.dts);
    appendField("vNom", c.dtsParams.vNominal);
    appendField("vTh", c.dtsParams.vThreshold);
    appendField("alpha", c.dtsParams.alpha);
    appendField("vMin", c.dtsParams.vMin);
    appendField("fLogic", c.dtsParams.fracLogic);
    appendField("fAddSub", c.dtsParams.fracAddSub);
    appendField("fMulDiv", c.dtsParams.fracMulDiv);
    appendField("fMem", c.dtsParams.fracMem);
    appendField("fBranch", c.dtsParams.fracBranch);
    appendField("widthAware", c.dtsParams.widthAware);
    appendField("fAddSub8", c.dtsParams.fracAddSub8);
    appendField("fLogic8", c.dtsParams.fracLogic8);
    appendField("errRate", c.dtsParams.errorRate);
    appendField("recE", c.dtsParams.recoveryEnergy);
    appendField("eAlu32", c.energy.alu32);
    appendField("eAlu8", c.energy.alu8);
    appendField("eMulDiv", c.energy.mulDiv);
    appendField("eRfR32", c.energy.rfRead32);
    appendField("eRfW32", c.energy.rfWrite32);
    appendField("eRfR8", c.energy.rfRead8);
    appendField("eRfW8", c.energy.rfWrite8);
    appendField("eIc", c.energy.icacheAccess);
    appendField("eDc", c.energy.dcacheAccess);
    appendField("eL2", c.energy.l2Access);
    appendField("eDram", c.energy.dramAccess);
    appendField("ePipe", c.energy.pipelinePerCycle);
    appendField("eMisspec", c.energy.misspecRecovery);
    appendField("pseed", profile_seed);
}

/** The training key: every input TrainedModule reads. The source
 *  text and the training input (w.setInput at @p profile_seed) are
 *  named by the workload; the rest of SystemConfig only matters
 *  after the profile, so every configuration with equal
 *  ExpanderOptions shares the training. */
Hash128
trainingKeyHash(const Workload &w, const ExpanderOptions &e,
                uint64_t profile_seed)
{
    HashKeySink s;
    s.text(w.name);
    s.field("src", fnv1a(w.source));
    s.field("unroll", static_cast<uint64_t>(e.unrollFactor));
    s.field("maxFn", static_cast<uint64_t>(e.maxFunctionSize));
    s.field("maxLoop", static_cast<uint64_t>(e.maxLoopSize));
    s.field("expand", e.enabled);
    s.field("pseed", profile_seed);
    return s.h.digest();
}

} // namespace

std::string
ExperimentRunner::systemKey(const Workload &w, const SystemConfig &c,
                            uint64_t profile_seed)
{
    StringKeySink s;
    foldSystemKey(s, w, c, profile_seed);
    return s.key;
}

Hash128
ExperimentRunner::systemKeyHash(const Workload &w,
                                const SystemConfig &c,
                                uint64_t profile_seed)
{
    HashKeySink s;
    foldSystemKey(s, w, c, profile_seed);
    return s.h.digest();
}

std::string
ExperimentRunner::cellKey(const ExperimentCell &cell)
{
    bsAssert(cell.workload != nullptr, "cellKey on empty cell");
    StringKeySink s;
    foldSystemKey(s, *cell.workload, cell.config, cell.profileSeed);
    s.field("rseed", cell.runSeed);
    // A fixed segment: ledgers written while the core had a second
    // engine carry it (as "default" for every cell without an
    // override), and bitspec-diff joins on the whole key.
    s.field("engine", std::string("default"));
    s.field("policy", std::string(misspecPolicyName(cell.policy)));
    s.field("polseed", cell.policySeed);
    return s.key;
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
    std::promise<std::shared_ptr<const System>> promise;
    std::shared_future<std::shared_ptr<const System>> fut;
    bool builder = false;
    bool inflight = false;
    {
        std::lock_guard<std::mutex> lock(cacheMu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            fut = promise.get_future().share();
            cache_.emplace(key, fut);
            builder = true;
            ++stats_.systemsBuilt;
        } else {
            fut = it->second;
            ++stats_.cacheHits;
            inflight = fut.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready;
            if (inflight)
                ++stats_.inflightWaits;
        }
    }

    if (builder) {
        trace::instant("cache.miss", "experiment",
                       {{"workload", w.name}});
        try {
            std::shared_ptr<const TrainedModule> trained =
                getOrTrain(w, config.expander, profile_seed);
            promise.set_value(
                std::make_shared<const System>(*trained, config));
        } catch (...) {
            // Every cell sharing this key sees the build failure.
            promise.set_exception(std::current_exception());
        }
    } else {
        trace::instant("cache.hit", "experiment",
                       {{"workload", w.name},
                        {"inflight", inflight ? "1" : "0"}});
    }
    if (origin)
        *origin = builder ? "compile" : "memory";
    return fut.get();
}

std::shared_ptr<const TrainedModule>
ExperimentRunner::getOrTrain(const Workload &w,
                             const ExpanderOptions &expander,
                             uint64_t profile_seed)
{
    const Hash128 key = trainingKeyHash(w, expander, profile_seed);

    std::promise<std::shared_ptr<const TrainedModule>> promise;
    std::shared_future<std::shared_ptr<const TrainedModule>> fut;
    bool trainer = false;
    {
        std::lock_guard<std::mutex> lock(cacheMu_);
        auto it = trained_.find(key);
        if (it == trained_.end()) {
            fut = promise.get_future().share();
            trained_.emplace(key, fut);
            trainer = true;
            ++stats_.trainings;
        } else {
            fut = it->second;
            ++stats_.trainingHits;
        }
    }

    if (trainer) {
        trace::instant("train.miss", "experiment",
                       {{"workload", w.name}});
        try {
            promise.set_value(std::make_shared<const TrainedModule>(
                w.source, expander, [&w, profile_seed](Module &m) {
                    w.setInput(m, profile_seed);
                }));
        } catch (...) {
            // Every System sharing this training sees the failure.
            promise.set_exception(std::current_exception());
        }
    } else {
        trace::instant("train.hit", "experiment", {{"workload", w.name}});
    }
    return fut.get();
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
    auto input = [&w, run_seed](Module &m) { w.setInput(m, run_seed); };
    RunObservers observers;
    const Clock::time_point t0 = Clock::now();
    if (detail) {
        bmap.emplace(sys->program());
        bsink.emplace(*bmap);
        observers.blocks = &*bsink;
    }
    const RunResult out =
        sys->run(input, {}, observers, cell.policy, cell.policySeed);
    const double wall_sec = secondsSince(t0);

    if (ledger) {
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

RunResult
ExperimentRunner::evaluate(const Workload &w, const SystemConfig &config,
                           uint64_t profile_seed, uint64_t run_seed)
{
    ExperimentCell cell;
    cell.workload = &w;
    cell.config = config;
    cell.profileSeed = profile_seed;
    cell.runSeed = run_seed;
    RunResult out =
        runCell(cell, systemKeyHash(w, config, profile_seed));
    std::lock_guard<std::mutex> lock(cacheMu_);
    ++stats_.cells;
    return out;
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
}

} // namespace bitspec
