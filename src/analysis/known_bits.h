/**
 * @file
 * Forward known-bits + unsigned value-range analysis.
 *
 * For every SSA value the analysis tracks a KnownBits fact: a
 * known-zero mask, a known-one mask, and an unsigned interval
 * [lo, hi], all at the value's type width (values are unsigned at
 * their type width, matching the profiler and RequiredBits). The
 * fixed point runs forward over the CFG in reverse post order; phi
 * facts join their incoming facts, and interval bounds are widened to
 * the type range after a per-value update budget so loop counters
 * terminate (the mask component is a finite lattice and needs no
 * widening).
 *
 * Speculative instructions get *tighter* transfer functions: on the
 * non-misspeculating path a speculative add produces the exact sum
 * (no carry out), a speculative truncate reproduces its operand and a
 * speculative load fits the slice — these post-conditions hold on
 * every path that reaches code dominated by the instruction, because
 * after a misspeculation control resumes in CFG_orig and never
 * re-enters the speculative clone.
 *
 * This is the static counterpart to the bitwidth profile: where the
 * profile says "this value *was* small on the training input", known
 * bits says "this value *is always* small", which lets the squeezer
 * narrow without a check and lets the lint pass prove speculative
 * slices safe or doomed (see lint.h).
 */

#ifndef BITSPEC_ANALYSIS_KNOWN_BITS_H_
#define BITSPEC_ANALYSIS_KNOWN_BITS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "support/bits.h"

namespace bitspec
{

/** Per-value dataflow fact: bit masks plus an unsigned interval. */
struct KnownBits
{
    uint64_t zero = 0;   ///< Bits known to be 0 (includes bits >= width).
    uint64_t one = 0;    ///< Bits known to be 1.
    uint64_t lo = 0;     ///< Unsigned lower bound.
    uint64_t hi = ~0ULL; ///< Unsigned upper bound.

    /** Nothing known about a @p bits-wide value. */
    static KnownBits top(unsigned bits);

    /** Exact fact for constant @p v at width @p bits. */
    static KnownBits constant(uint64_t v, unsigned bits);

    /** Pull masks and bounds against each other: leading zeros of hi
     *  become known-zero bits, the masks clamp [lo, hi], and lo is
     *  raised to the known-one floor. Idempotent. */
    KnownBits normalized(unsigned bits) const;

    /** True when every possible value fits @p width bits unsigned. */
    bool fits(unsigned width) const { return hi <= lowMask(width); }

    /** RequiredBits upper bound over all possible values. */
    unsigned upperBoundBits() const { return requiredBits(hi); }

    /** Exactly one possible value? */
    bool isConstant() const { return lo == hi; }

    bool operator==(const KnownBits &) const = default;

    std::string str() const; ///< "zero=.. one=.. [lo,hi]" for tests.
};

/** Lattice join (control-flow merge): union of possible values. */
KnownBits kbJoin(const KnownBits &a, const KnownBits &b, unsigned bits);

/** @name Per-opcode transfer functions
 * All operate at result width @p bits and return normalized facts;
 * exposed individually so the golden unit tests can hit them without
 * building IR. Shift/div transfer functions take the full fact of the
 * second operand and exploit it only when it is constant.
 */
/// @{
KnownBits kbAdd(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbSub(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbMul(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbUDiv(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbURem(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbAnd(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbOr(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbXor(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbShl(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbLShr(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbAShr(const KnownBits &a, const KnownBits &b, unsigned bits);
KnownBits kbTrunc(const KnownBits &a, unsigned bits);
KnownBits kbZExt(const KnownBits &a, unsigned fromBits, unsigned bits);
KnownBits kbSExt(const KnownBits &a, unsigned fromBits, unsigned bits);
/// @}

/** Speculative-form transfers: facts on the non-misspeculating path
 *  (Table 1 — the only path on which the result is defined). */
/// @{
KnownBits kbSpecAdd(const KnownBits &a, const KnownBits &b,
                    unsigned bits);
KnownBits kbSpecSub(const KnownBits &a, const KnownBits &b,
                    unsigned bits);
KnownBits kbSpecTrunc(const KnownBits &a, unsigned bits);
/// @}

/**
 * Function-level fixed point. Facts are computed once at
 * construction; the function must not be mutated while the analysis
 * is queried (facts are keyed by instruction pointer).
 *
 * The fixed point is the round-robin one: passes in reverse post
 * order, each instruction seeing the facts of this pass so far, with
 * per-value widening counts and a pass limit. A pass evaluates only
 * the instructions an operand fact of which changed (or first
 * appeared) since their last evaluation; any other evaluation would
 * recompute the fact the instruction already holds.
 */
class KnownBitsAnalysis
{
  public:
    /** Interval updates per value before widening to the type range. */
    static constexpr unsigned kWideningBudget = 8;
    /** Full RPO passes before bailing to top (safety net). */
    static constexpr unsigned kMaxIterations = 64;

    explicit KnownBitsAnalysis(Function &f);

    /** Fact for any value: constants fold exactly, arguments,
     *  globals and unanalyzed instructions are type-top. */
    KnownBits known(const Value *v) const;

    /** Static unsigned upper bound (inclusive). */
    uint64_t upperBound(const Value *v) const { return known(v).hi; }

    /** Provably fits @p width bits on every execution. */
    bool
    fits(const Value *v, unsigned width) const
    {
        return known(v).fits(width);
    }

  private:
    static constexpr uint32_t kNoSlot = ~0u;

    /** Fact of operand @p i of the instruction in slot @p s. */
    KnownBits operandFact(uint32_t s, size_t i) const;
    KnownBits transfer(uint32_t s) const;

    /** Analyzed instructions in reverse post order; an instruction's
     *  index here is its slot. */
    std::vector<const Instruction *> order_;
    std::unordered_map<const Instruction *, uint32_t> slotOf_;
    /** Per slot: the fact, and whether it has one yet. */
    std::vector<KnownBits> facts_;
    std::vector<uint8_t> hasFact_;
    /** Operand slots of slot s: opSlots_[opBegin_[s] + i], kNoSlot for
     *  operands that are not analyzed instructions. */
    std::vector<uint32_t> opBegin_;
    std::vector<uint32_t> opSlots_;
};

} // namespace bitspec

#endif // BITSPEC_ANALYSIS_KNOWN_BITS_H_
