/**
 * @file
 * Differential misspeculation oracle: one generated program, executed
 * on both tiers under every misspeculation policy, checked for
 * observational agreement.
 *
 * Runs: the reference interpreter on the squeezed IR and FastCore on
 * the compiled EMB32 program, each under Hardware, ForceFirst and
 * seeded Random (support/misspec.h), plus each policy's machine run
 * again with memo replay off (RunObservers::replay). Theorems 3.1/3.2
 * make misspeculation semantics-preserving, so every one of the nine
 * runs must reproduce the unsqueezed reference interpreter's return
 * value and output checksum.
 *
 * The replay-off runs are the replay oracle: FastCore stays on its
 * cycle-accurate slow path for the whole run, so its ActivityCounters
 * must equal the same policy's replayed run's field by field (under
 * the forcing policies the memos with no check site replay), and its
 * slow-path retirements must cover every instruction (otherwise the
 * comparison would be replay against replay). A program whose body is
 * a helper (FuzzProgram::helperCalls) is built with the expander off,
 * so each call re-enters CFG_spec: there a forced run meets memos
 * with check sites, which must not replay.
 *
 * The machine runs go through a caller-owned ExperimentRunner: one
 * compiled System per program serves all six machine runs
 * (run-level knobs are not part of the System cache key), and a
 * shrink session re-probing the same candidate source hits the
 * memoized System outright.
 */

#ifndef BITSPEC_FUZZ_DIFFERENTIAL_H_
#define BITSPEC_FUZZ_DIFFERENTIAL_H_

#include <string>

#include "core/experiment.h"
#include "fuzz/program.h"
#include "profile/bitwidth_profile.h"

namespace bitspec
{

struct FuzzDiffOptions
{
    Heuristic heuristic = Heuristic::Max;
    /** Loop-unroll factor for the expander (the integration fuzz
     *  test's setting; half the build cost of the default 4, which
     *  is what keeps 500 programs inside the ctest smoke budget). */
    unsigned unrollFactor = 2;
    /** Training input seed; the run seed is held out so speculation
     *  can actually miss (mirrors the RQ6 sensitivity protocol). */
    uint64_t profileSeed = 0;
    uint64_t runSeed = 1;
    /** Seed for the Random policy's RNG (the interpreter and the
     *  core each draw their own stream from it). */
    uint64_t policySeed = 0xfeed;
    /** Interpreter fuel; a program exceeding it is Skipped, not a
     *  divergence (generated loops are bounded, so this only guards
     *  pathological blowup). */
    uint64_t fuel = 50'000'000;
};

enum class FuzzDiffStatus
{
    Agree,    ///< Every run matched the reference.
    Diverged, ///< At least one observation differed.
    Skipped,  ///< Program rejected (fuel/compile); not a divergence.
};

struct FuzzDiffResult
{
    FuzzDiffStatus status = FuzzDiffStatus::Agree;
    /** First divergence (tier/policy and observation) or the skip
     *  reason. */
    std::string detail;
    uint64_t refReturn = 0;
    uint64_t refChecksum = 0;
    unsigned runsExecuted = 0; ///< Interpreter and machine runs.
};

/** Wrap @p p as a Workload for the experiment engine: name
 *  "fuzz-<seed>", setInput writes fuzzInputValue(seed, n) into the
 *  inN globals. The workload's source is rendered once at call time;
 *  the returned object is self-contained. */
Workload makeFuzzWorkload(const FuzzProgram &p);

/** Run the full differential for @p p. @p runner serves the machine
 *  cells (and memoizes compiled Systems across calls). */
FuzzDiffResult runFuzzDifferential(const FuzzProgram &p,
                                   ExperimentRunner &runner,
                                   const FuzzDiffOptions &opts = {});

} // namespace bitspec

#endif // BITSPEC_FUZZ_DIFFERENTIAL_H_
