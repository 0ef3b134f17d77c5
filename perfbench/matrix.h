/**
 * @file
 * The benchmark's three experiment matrices, and the per-cell
 * correctness checks that feed `failed`.
 *
 *  - suite-compile:    14 kernels x {baseline, bitspec-max/avg/min,
 *                      no-spec}, profile and run seed 0. 70 cold
 *                      builds; compile-heavy.
 *  - cross-input:      the Fig. 16 grid, susan-edges x {max, avg, min}
 *                      x 6 profile images x 6 run images. 108 cells,
 *                      18 builds; memo-replay-heavy.
 *  - misspec-slowpath: 14 kernels x bitspec-min, one build each, run
 *                      under Hardware, ForceFirst and 3 Random policy
 *                      seeds. 70 cells; FastCore's slow path.
 *
 * The workload seed offsets the cross-input image seeds (seed 0 is
 * Fig. 16's 100..105) and the Random policy seeds; suite-compile is
 * seed-independent.
 */

#ifndef BITSPEC_PERFBENCH_MATRIX_H_
#define BITSPEC_PERFBENCH_MATRIX_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace bitspec::perfbench
{

/** The matrix of workload @p name for @p seed; throws FatalError on an
 *  unknown name. Needs only the suite's sources and generators. */
std::vector<ExperimentCell> buildMatrix(const std::string &name,
                                        uint64_t seed);

/** "kernel/config/p<seed>/r<seed>/policy[:seed]" for messages. */
std::string cellLabel(const ExperimentCell &cell);

/** Failed cells: matrix index -> "label: reason". */
using CellFailures = std::map<size_t, std::string>;

/**
 * Check every cell against a reference that does not come from the
 * compiler under test: the decoded Interpreter on the unsqueezed,
 * unexpanded frontend module with the cell's run input, plus
 * Workload::expectedChecksum for run seed 0 where it is set. A cell
 * under a non-Hardware policy must also match its Hardware twin in
 * the same matrix (Theorems 3.1/3.2). Empty when every cell passed.
 */
CellFailures checkCells(
    const std::vector<ExperimentCell> &cells,
    const std::vector<RunResult> &results);

/** Fig. 8's mean energy ratio (bitspec-max / baseline over the suite)
 *  from a suite-compile result set; 0 when the matrix has no such
 *  pairs. */
double fig8MeanEnergyRatio(const std::vector<ExperimentCell> &cells,
                           const std::vector<RunResult> &results);

} // namespace bitspec::perfbench

#endif // BITSPEC_PERFBENCH_MATRIX_H_
