/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Each bench binary rebuilds one artefact of the paper's evaluation
 * (§4) and prints the same rows/series the paper reports. Absolute
 * numbers come from this repo's simulator + energy model; the shapes
 * (who wins, by roughly what factor) are the reproduction target.
 *
 * All benches evaluate their (workload x config x seed) matrices
 * through the process-wide ExperimentRunner: cells run across a
 * thread pool (BITSPEC_JOBS workers, default hardware concurrency),
 * results come back in submission order, and compiled Systems are
 * memoized so a BASELINE build shared by several series compiles
 * once. Output is byte-identical to the old serial loops.
 */

#ifndef BITSPEC_BENCH_COMMON_H_
#define BITSPEC_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/system.h"
#include "support/stats.h"
#include "support/str.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

namespace bitspec::bench
{

/** The binary-wide experiment runner (cache persists across
 *  matrices, so e.g. every series' BASELINE builds are shared). */
inline ExperimentRunner &
runner()
{
    static ExperimentRunner r;
    return r;
}

/** Shorthand for one matrix cell. */
inline ExperimentCell
cell(const Workload &w, const SystemConfig &cfg,
     uint64_t profile_seed = 0, uint64_t run_seed = 0)
{
    ExperimentCell c;
    c.workload = &w;
    c.config = cfg;
    c.profileSeed = profile_seed;
    c.runSeed = run_seed;
    return c;
}

/** Run a whole matrix; results in submission order. */
inline std::vector<RunResult>
runMatrix(const std::vector<ExperimentCell> &cells)
{
    return runner().run(cells);
}

/** Compile + run one cell through the runner (and its cache). */
inline RunResult
evaluate(const Workload &w, const SystemConfig &cfg,
         uint64_t profile_seed = 0, uint64_t run_seed = 0)
{
    return runner().evaluate(w, cfg, profile_seed, run_seed);
}

/** Build a System for @p w profiled on @p profile_seed, bypassing
 *  the runner's cache (used by tests and the smoke harness to get an
 *  uncached serial reference). */
inline System
makeSystem(const Workload &w, const SystemConfig &cfg,
           uint64_t profile_seed = 0)
{
    return System(w.source, cfg,
                  [&](Module &m) { w.setInput(m, profile_seed); });
}

/** Run @p sys on input @p run_seed. */
inline RunResult
runSeed(const System &sys, const Workload &w, uint64_t run_seed = 0)
{
    return sys.run([&](Module &m) { w.setInput(m, run_seed); });
}

inline void
printHeader(const std::string &title, const std::string &caption)
{
    std::printf("\n==== %s ====\n%s\n\n", title.c_str(),
                caption.c_str());
}

inline void
printRow(const std::string &name,
         const std::vector<std::pair<std::string, double>> &cols)
{
    std::printf("%-16s", name.c_str());
    for (const auto &[label, v] : cols)
        std::printf("  %s=%-10.4g", label.c_str(), v);
    std::printf("\n");
}

} // namespace bitspec::bench

#endif // BITSPEC_BENCH_COMMON_H_
