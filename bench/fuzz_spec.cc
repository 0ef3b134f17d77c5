/**
 * @file
 * Differential misspeculation fuzzer driver (ISSUE 9, RQ: do the
 * squeeze/misspeculation theorems hold off the beaten path?).
 *
 * Generates boundary-biased random programs (fuzz/gen.h) and runs
 * each through seven differential runs (fuzz/differential.h): the
 * interpreter on the squeezed IR and FastCore on compiled EMB32, each
 * under hardware, force-first and random misspeculation, plus one
 * hardware FastCore run held to its cycle-accurate slow path, the
 * oracle for memo replay. Any observational mismatch against the
 * unsqueezed reference interpreter, or between the slow path and
 * replay, is a divergence; with --shrink it is reduced to a minimal
 * re-runnable repro (fuzz/shrink.h) whose source is printed ready to
 * paste into a regression test.
 *
 * Not covered: forced-policy slow-path counters of generated programs
 * against a second core implementation (there is one core). The run
 * freeze (tests/core/run_freeze_test.cc) pins those counters on the
 * 14 workloads.
 *
 *   fuzz_spec --runs 500 --seed 1          # the ctest smoke budget
 *   fuzz_spec --runs 100000 --seed 42      # overnight soak
 *   fuzz_spec --runs 500 --shrink          # auto-shrink divergences
 *   fuzz_spec --inject-divergence --shrink # shrinker self-test
 *
 * --inject-divergence treats "the compiled BitSpec machine run
 * misspeculates at least once" as the failure predicate instead of a
 * real mismatch. Divergences are not expected from a correct build
 * (that is the point), so this exercises the full find -> shrink ->
 * minimal-repro path against live engine runs; the run fails if the
 * shrinker cannot reduce the witness.
 *
 * Exit status: 0 = no unexplained divergence, 1 = divergence found,
 * 2 = bad usage / self-test failure.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "../bench/common.h"
#include "fuzz/differential.h"
#include "fuzz/gen.h"
#include "fuzz/shrink.h"
#include "obs/flightrec.h"

namespace
{

using namespace bitspec;

struct Options
{
    uint64_t runs = 500;
    uint64_t seed = 1;
    bool shrink = false;
    bool injectDivergence = false;
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--runs N] [--seed S] [--shrink] "
                 "[--inject-divergence]\n",
                 argv0);
}

/** Shrink @p p under @p pred and print the minimal repro. */
void
printShrunk(const FuzzProgram &p,
            const std::function<bool(const FuzzProgram &)> &pred,
            FuzzShrinkResult *out = nullptr)
{
    FuzzShrinkResult r = shrinkProgram(p, pred);
    std::printf("shrink: %u -> %u statements (%u probes, %u edits "
                "kept)\n",
                p.stmtCount(), r.program.stmtCount(), r.probes,
                r.accepted);
    std::printf("---- minimal repro (seed %llu) ----\n%s"
                "-----------------------------------\n",
                static_cast<unsigned long long>(p.seed),
                r.program.render().c_str());
    if (out)
        *out = std::move(r);
}

/** --inject-divergence: prove the find->shrink path on a synthetic
 *  predicate ("the BitSpec machine run misspeculates") evaluated with
 *  real engine runs through the memoized runner. */
int
runInjected(const Options &opt)
{
    ExperimentRunner &runner = bench::runner();
    const SystemConfig cfg = SystemConfig::bitspec();

    auto misspeculates = [&](const FuzzProgram &p) {
        try {
            Workload w = makeFuzzWorkload(p);
            RunResult r = runner.evaluate(w, cfg, /*profile_seed=*/0,
                                          /*run_seed=*/1);
            return r.counters.misspeculations > 0;
        } catch (const FatalError &) {
            return false; // Broken candidate, not a witness.
        }
    };

    for (uint64_t i = 0; i < opt.runs; ++i) {
        FuzzProgram p = generateProgram(opt.seed + i);
        if (!misspeculates(p))
            continue;
        std::printf("injected divergence: seed %llu misspeculates\n",
                    static_cast<unsigned long long>(p.seed));
        FuzzShrinkResult r;
        printShrunk(p, misspeculates, &r);
        if (!misspeculates(r.program)) {
            std::printf("FAIL: shrunk program lost the property\n");
            return 2;
        }
        if (r.program.stmtCount() >= p.stmtCount() &&
            r.accepted == 0) {
            std::printf("FAIL: shrinker made no progress\n");
            return 2;
        }
        return 0;
    }
    std::printf("FAIL: no misspeculating program in %llu seeds\n",
                static_cast<unsigned long long>(opt.runs));
    return 2;
}

int
runFuzz(const Options &opt)
{
    ExperimentRunner &runner = bench::runner();
    uint64_t agreed = 0, skipped = 0, diverged = 0, runs = 0;

    // Whole differentials fan out across a driver pool (the runner's
    // own pool handles the machine cells inside each); results are
    // drained in seed order so output stays deterministic. On a
    // single-core host the pool is pure context-switch overhead, so
    // run inline instead.
    const bool serial = ThreadPool::defaultThreadCount() <= 1;
    std::unique_ptr<ThreadPool> pool =
        serial ? nullptr : std::make_unique<ThreadPool>();
    std::vector<std::future<FuzzDiffResult>> futs;
    futs.reserve(serial ? 0 : opt.runs);
    if (!serial)
        for (uint64_t i = 0; i < opt.runs; ++i)
            futs.push_back(pool->submit([&opt, &runner, i] {
                return runFuzzDifferential(
                    generateProgram(opt.seed + i), runner);
            }));

    for (uint64_t i = 0; i < opt.runs; ++i) {
        FuzzDiffResult r =
            serial ? runFuzzDifferential(generateProgram(opt.seed + i),
                                         runner)
                   : futs[i].get();
        runs += r.runsExecuted;
        switch (r.status) {
          case FuzzDiffStatus::Agree:
            ++agreed;
            break;
          case FuzzDiffStatus::Skipped:
            ++skipped;
            break;
          case FuzzDiffStatus::Diverged: {
            ++diverged;
            FuzzProgram p = generateProgram(opt.seed + i);
            std::printf("DIVERGENCE seed %llu: %s\n",
                        static_cast<unsigned long long>(p.seed),
                        r.detail.c_str());
            // A divergence is exactly the moment the recent-event
            // rings were built for: snapshot them before the shrink
            // loop floods the buffers with reduction probes.
            if (flightrec::active()) {
                const std::string dump =
                    flightrec::dumpNow("divergence");
                if (!dump.empty())
                    std::printf("flight record -> %s\n",
                                dump.c_str());
            }
            if (opt.shrink) {
                printShrunk(p, [&](const FuzzProgram &c) {
                    return runFuzzDifferential(c, runner).status ==
                           FuzzDiffStatus::Diverged;
                });
            } else {
                std::printf("---- source (rerun: fuzz_spec --runs 1 "
                            "--seed %llu --shrink) ----\n%s\n",
                            static_cast<unsigned long long>(p.seed),
                            p.render().c_str());
            }
            break;
          }
        }
    }

    ExperimentStats st = runner.stats();
    std::printf("fuzz_spec: %llu programs (%llu agreed, %llu "
                "skipped, %llu diverged), %llu differential "
                "runs, %llu systems built, %llu cache hits\n",
                static_cast<unsigned long long>(opt.runs),
                static_cast<unsigned long long>(agreed),
                static_cast<unsigned long long>(skipped),
                static_cast<unsigned long long>(diverged),
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(st.systemsBuilt),
                static_cast<unsigned long long>(st.cacheHits));
    return diverged ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--runs") && i + 1 < argc)
            opt.runs = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            opt.seed = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--shrink"))
            opt.shrink = true;
        else if (!std::strcmp(argv[i], "--inject-divergence"))
            opt.injectDivergence = true;
        else {
            usage(argv[0]);
            return 2;
        }
    }
    return opt.injectDivergence ? runInjected(opt) : runFuzz(opt);
}
