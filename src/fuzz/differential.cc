#include "fuzz/differential.h"

#include "frontend/irgen.h"
#include "fuzz/gen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

constexpr MisspecPolicy kPolicies[] = {
    MisspecPolicy::Hardware,
    MisspecPolicy::ForceFirst,
    MisspecPolicy::Random,
};

void
setFuzzInputs(Module &m, uint64_t seed)
{
    for (unsigned n = 0; n < 2; ++n) {
        Global *g = m.getGlobal("in" + std::to_string(n));
        bsAssert(g != nullptr, "fuzz program lost its input global");
        g->setElem(0, fuzzInputValue(seed, n));
    }
}

/** First differing ActivityCounters field, or "" when equal. Memo
 *  replay and the slow path model identical hardware, so their
 *  counters must match bit-for-bit. */
std::string
countersDiff(const ActivityCounters &a, const ActivityCounters &b)
{
    for (const CounterField &f : kCounterFields)
        if (a.*f.member != b.*f.member)
            return strFormat("%s %llu != %llu", f.name,
                             static_cast<unsigned long long>(a.*f.member),
                             static_cast<unsigned long long>(b.*f.member));
    return "";
}

} // namespace

Workload
makeFuzzWorkload(const FuzzProgram &p)
{
    Workload w;
    w.name = "fuzz-" + std::to_string(p.seed);
    w.source = p.render();
    w.setInput = [](Module &m, uint64_t seed) {
        setFuzzInputs(m, seed);
    };
    return w;
}

FuzzDiffResult
runFuzzDifferential(const FuzzProgram &p, ExperimentRunner &runner,
                    const FuzzDiffOptions &opts)
{
    FuzzDiffResult out;
    const Workload w = makeFuzzWorkload(p);
    SystemConfig cfg = SystemConfig::bitspec(opts.heuristic);
    cfg.expander.unrollFactor = opts.unrollFactor;
    // Inlined, a helper would leave CFG_spec at its first forced check
    // for good; kept as a call, each call re-enters it.
    cfg.expander.enabled = p.helperCalls == 0;

    auto diverge = [&](std::string detail) {
        out.status = FuzzDiffStatus::Diverged;
        if (out.detail.empty())
            out.detail = std::move(detail);
    };

    // ---- Reference: the unsqueezed decoded interpreter. ----
    uint64_t want = 0;
    uint64_t want_sum = 0;
    try {
        auto ref_mod = compileSource(w.source);
        setFuzzInputs(*ref_mod, opts.runSeed);
        Interpreter ref(*ref_mod);
        ref.setFuel(opts.fuel);
        want = truncTo(ref.run("main"), 32);
        want_sum = ref.outputChecksum();
    } catch (const FatalError &e) {
        out.status = FuzzDiffStatus::Skipped;
        out.detail = std::string("reference: ") + e.what();
        return out;
    }
    out.refReturn = want;
    out.refChecksum = want_sum;

    // ---- Decoded interpreter on the squeezed IR, all policies. ----
    // Runs on a copy of the System's module (built once by the runner
    // and shared with the machine cells below), so the squeeze
    // pipeline executes once per program.
    try {
        std::unique_ptr<Module> squeezed;
        runner.withSystem(w, cfg, opts.profileSeed,
                          [&](const System &sys) {
                              squeezed = cloneModule(sys.module());
                          });
        setFuzzInputs(*squeezed, opts.runSeed);
        Interpreter it(*squeezed);
        it.setFuel(opts.fuel);
        for (MisspecPolicy policy : kPolicies) {
            it.reset(); // Re-copy globals, clear outputs/stats.
            it.setMisspecPolicy(policy);
            it.setRandomSeed(opts.policySeed);
            uint64_t got = truncTo(it.run("main"), 32);
            ++out.runsExecuted;
            if (got != want)
                diverge(strFormat(
                    "interp/%s: return %llu != ref %llu",
                    misspecPolicyName(policy),
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want)));
            if (it.outputChecksum() != want_sum)
                diverge(strFormat(
                    "interp/%s: checksum %016llx != ref %016llx",
                    misspecPolicyName(policy),
                    static_cast<unsigned long long>(
                        it.outputChecksum()),
                    static_cast<unsigned long long>(want_sum)));
        }
    } catch (const FatalError &e) {
        out.status = FuzzDiffStatus::Skipped;
        out.detail = std::string("interp pipeline: ") + e.what();
        return out;
    }

    // ---- FastCore via the experiment engine: one compiled System
    // serves the three policy cells and their slow-path runs. ----
    std::vector<ExperimentCell> cells;
    for (MisspecPolicy policy : kPolicies) {
        ExperimentCell cell(&w, cfg, opts.profileSeed, opts.runSeed);
        cell.policy = policy;
        cell.policySeed = opts.policySeed;
        cells.push_back(std::move(cell));
    }
    std::vector<RunResult> results;
    try {
        results = runner.run(cells);
    } catch (const FatalError &e) {
        out.status = FuzzDiffStatus::Skipped;
        out.detail = std::string("machine pipeline: ") + e.what();
        return out;
    }
    out.runsExecuted += static_cast<unsigned>(results.size());

    auto check_outputs = [&](const RunResult &r, const char *what) {
        if (r.returnValue != want)
            diverge(strFormat(
                "%s: return %llu != ref %llu", what,
                static_cast<unsigned long long>(r.returnValue),
                static_cast<unsigned long long>(want)));
        if (r.outputChecksum != want_sum)
            diverge(strFormat(
                "%s: checksum %016llx != ref %016llx", what,
                static_cast<unsigned long long>(r.outputChecksum),
                static_cast<unsigned long long>(want_sum)));
    };
    for (size_t i = 0; i < results.size(); ++i)
        check_outputs(results[i],
                      (std::string("fast-core/") +
                       misspecPolicyName(kPolicies[i]))
                          .c_str());

    // ---- The replay oracle: each policy again with replay off, which
    // keeps FastCore on its cycle-accurate slow path for the whole run
    // (every policy's cell replays what memos it may). A fatal here,
    // where the replayed cell finished, is a divergence, not a
    // skip. ----
    runner.withSystem(w, cfg, opts.profileSeed, [&](const System &sys) {
        for (size_t i = 0; i < results.size(); ++i) {
            const std::string policy = misspecPolicyName(kPolicies[i]);
            try {
                CoreRunStats core;
                RunObservers observers;
                observers.replay = false;
                observers.core = &core;
                const RunResult slow = sys.run(
                    [&](Module &m) { setFuzzInputs(m, opts.runSeed); },
                    observers, kPolicies[i], opts.policySeed);
                ++out.runsExecuted;
                check_outputs(slow, ("slow-path/" + policy).c_str());
                if (core.slowInsts != slow.counters.instructions)
                    diverge(strFormat(
                        "slow-path/%s: only %llu of %llu instructions "
                        "retired on the slow path",
                        policy.c_str(),
                        static_cast<unsigned long long>(core.slowInsts),
                        static_cast<unsigned long long>(
                            slow.counters.instructions)));
                const std::string diff =
                    countersDiff(slow.counters, results[i].counters);
                if (!diff.empty())
                    diverge("slow-vs-replay/" + policy + ": " + diff);
            } catch (const FatalError &e) {
                diverge("slow-path/" + policy + ": " + e.what());
            }
        }
    });
    return out;
}

} // namespace bitspec
