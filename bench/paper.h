/**
 * @file
 * The paper's evaluation (§4) as one table of figures.
 *
 * Each entry maps a figure id (the `bitspec-paper` argument, e.g.
 * "fig08") to the function that rebuilds that artefact and prints
 * the same rows/series the paper reports. Absolute numbers come from
 * this repo's simulator + energy model; the shapes (who wins, by
 * roughly what factor) are the reproduction target.
 *
 * Figures evaluate their (workload x config x seed) matrices through
 * the ExperimentRunner they are handed, so every figure printed by
 * one process shares one System cache: a BASELINE build used by
 * several figures compiles once. Output is byte-identical at any
 * thread count, and to the figures' recorded goldens
 * (tests/golden/paper/<id>.txt, checked by `ctest -L paper`).
 */

#ifndef BITSPEC_BENCH_PAPER_H_
#define BITSPEC_BENCH_PAPER_H_

#include <cstdio>
#include <span>
#include <string_view>

#include "core/experiment.h"

namespace bitspec::paper
{

/** One figure or table of the paper's evaluation. */
struct Figure
{
    const char *id;
    void (*print)(ExperimentRunner &runner, std::FILE *out);
};

/** Every figure, in the paper's order (the order `all` prints). */
std::span<const Figure> figures();

/** The figure named @p id, or nullptr. */
const Figure *findFigure(std::string_view id);

} // namespace bitspec::paper

#endif // BITSPEC_BENCH_PAPER_H_
