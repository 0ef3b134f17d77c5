/**
 * @file
 * The bitwidth profiler (paper §3.2.2).
 *
 * Runs the program on representative inputs via the interpreter and
 * records, per SSA variable, the MIN / AVG / MAX of
 * RequiredBits(value) over every dynamic assignment. The target
 * selection T(v) is then one of those statistics, chosen by the
 * heuristic — more aggressive heuristics (AVG, MIN) select lower
 * widths and misspeculate more (paper Table 2).
 *
 * Values are interpreted as unsigned at their type width: a 32-bit -1
 * requires 32 bits. This makes "fits in its selection" mean "zero
 * extension reproduces the original", which is the correctness
 * condition the squeezer relies on (Squeezable?, Eq. 3).
 *
 * The profiler uses the interpreter's built-in value profile (dense
 * arrays indexed by decoded instruction id) and maps ids back to
 * Instruction pointers only once per run.
 */

#ifndef BITSPEC_PROFILE_BITWIDTH_PROFILE_H_
#define BITSPEC_PROFILE_BITWIDTH_PROFILE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/interpreter.h"
#include "ir/clone.h"
#include "ir/module.h"

namespace bitspec
{

/** Profile-guided bitwidth selection heuristic (paper Fig. 5). */
enum class Heuristic
{
    Max, ///< Least aggressive: worst case seen during profiling.
    Avg, ///< Mean required bits (rounded up).
    Min, ///< Most aggressive: best case seen.
};

const char *heuristicName(Heuristic h);

/** Per-variable dynamic bitwidth statistics. */
struct VarBitStats
{
    unsigned minBits = 64;
    unsigned maxBits = 1;
    uint64_t sumBits = 0;
    uint64_t count = 0;

    unsigned
    avgBits() const
    {
        if (count == 0)
            return 64;
        return static_cast<unsigned>((sumBits + count - 1) / count);
    }
};

/** Bitwidth profile for one module, gathered from training runs. */
class BitwidthProfile
{
  public:
    /**
     * Profile @p m by running @p fn with @p args through a fresh
     * interpreter (training input must already be loaded into the
     * module's globals). Can be called repeatedly to accumulate
     * multiple training runs.
     */
    void profileRun(Module &m, const std::string &fn = "main",
                    const std::vector<uint64_t> &args = {});

    /**
     * Profile through a caller-owned interpreter, so one training run
     * can also feed the caller's step counts / checksum. Resets @p
     * interp, runs, and accumulates through its built-in value
     * profile.
     */
    void profileRun(Interpreter &interp, const std::string &fn = "main",
                    const std::vector<uint64_t> &args = {});

    /** T(v): target bits for @p inst under @p h; the declared width
     *  when the instruction was never executed. */
    unsigned target(const Instruction *inst, Heuristic h) const;

    bool
    hasData(const Instruction *inst) const
    {
        return stats_.count(inst) > 0;
    }

    const VarBitStats *
    statsFor(const Instruction *inst) const
    {
        auto it = stats_.find(inst);
        return it == stats_.end() ? nullptr : &it->second;
    }

    /** Histogram of dynamic assignments by bitwidth class under @p h:
     *  index 0 -> 8 bits, 1 -> 16, 2 -> 32, 3 -> 64 (paper Fig. 5). */
    std::array<uint64_t, 4> classHistogram(Heuristic h) const;

    /** Total profiled dynamic assignments. */
    uint64_t totalAssignments() const;

    /** This profile moved onto a cloneModule copy: each instruction's
     *  statistics keyed by its copy in @p map. Profiling the copy
     *  would have recorded exactly this. */
    BitwidthProfile rekeyed(const ValueMap &map) const;

  private:
    std::unordered_map<const Instruction *, VarBitStats> stats_;
};

} // namespace bitspec

#endif // BITSPEC_PROFILE_BITWIDTH_PROFILE_H_
