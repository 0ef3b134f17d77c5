/**
 * @file
 * Every observable field of a RunResult, flattened into named 64-bit
 * images. One list serves both the simulated-state digest (a host-speed
 * change must leave it bit-identical) and the replica guard (which
 * names the first field where the stage-by-stage replica and the
 * System path disagree).
 */

#ifndef BITSPEC_PERFBENCH_RESULT_FIELDS_H_
#define BITSPEC_PERFBENCH_RESULT_FIELDS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "support/hash.h"

namespace bitspec::perfbench
{

/** One field: dotted name, exact bit image (doubles by bit pattern)
 *  and a printable rendering. */
struct ResultField
{
    std::string name;
    uint64_t bits = 0;
    std::string text;
};

/** Counters, cache/DRAM stats, energy, and the squeeze/expand/backend
 *  statistics, in declaration order. */
std::vector<ResultField> resultFields(const RunResult &r);

/** "name: a=<x> b=<y>" for the first differing field, or nullopt. */
std::optional<std::string> firstDifference(const RunResult &a,
                                           const RunResult &b);

/** Fold every field of every result, in order, into @p h. */
void digestResults(Hash128Builder &h,
                   const std::vector<RunResult> &results);

} // namespace bitspec::perfbench

#endif // BITSPEC_PERFBENCH_RESULT_FIELDS_H_
