/**
 * @file
 * Reference interpreter for the BitSpec IR.
 *
 * Serves three roles:
 *  1. Golden model — simulated machine executions must match its output.
 *  2. Statistics engine — dynamic instruction counts and per-assignment
 *     hooks feed the bitwidth profiler and the Fig. 1/5 histograms.
 *  3. Speculative semantics — squeezed programs execute with Table-1
 *     misspeculation behaviour (redirect to the region handler), which
 *     lets the squeezer be validated before any machine code exists.
 *
 * Execution: each Function is flattened once into a DecodedFunction
 * (see decode.h) and executed by an index-dispatched loop with no
 * per-instruction operand resolution, no per-block map lookups and no
 * per-block allocation. Hook dispatch is hoisted out of the loop, so
 * hook-free runs pay nothing for instrumentation. What a run observes
 * (stats, checksums, profiles) is pinned per workload by
 * tests/core/run_freeze_test.cc.
 */

#ifndef BITSPEC_INTERP_INTERPRETER_H_
#define BITSPEC_INTERP_INTERPRETER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ir/module.h"
#include "support/mapped_bytes.h"
#include "support/misspec.h"
#include "support/rng.h"

namespace bitspec
{

class DecodedFunction;

/** Aggregate execution statistics. */
struct InterpStats
{
    uint64_t steps = 0;          ///< All executed instructions.
    uint64_t intAssignments = 0; ///< Executed integer-producing instrs.
    uint64_t misspeculations = 0;
    uint64_t calls = 0;
    uint64_t outputs = 0;

    bool operator==(const InterpStats &) const = default;
};

/** Executes IR modules against a flat little-endian memory. */
class Interpreter
{
  public:
    static constexpr size_t kDefaultMemBytes = 1 << 22;
    static constexpr uint64_t kDefaultFuel = 400'000'000;

    explicit Interpreter(Module &m, size_t mem_bytes = kDefaultMemBytes);
    ~Interpreter();

    /** Zero memory (dropping its pages), re-copy global initialisers
     *  and clear outputs/stats. */
    void reset();

    /**
     * Run @p fn (default "main") with integer @p args; returns the
     * (zero-extended) return value. Throws FatalError when out of fuel.
     */
    uint64_t run(const std::string &fn = "main",
                 const std::vector<uint64_t> &args = {});

    const InterpStats &stats() const { return stats_; }
    const std::vector<uint64_t> &output() const { return output_; }

    /** FNV-1a hash of the output stream (fnv1aWord per value); the
     *  cross-model checksum. */
    uint64_t outputChecksum() const;

    void setFuel(uint64_t fuel) { fuel_ = fuel; }
    void setMisspecPolicy(MisspecPolicy p) { policy_ = p; }
    void setRandomSeed(uint64_t seed) { rng_ = Rng(seed); }

    /**
     * Drop every cached per-function artefact (decoded functions and
     * their profile cells), plus accumulated value-profile data
     * (drain it first via valueProfile()).
     *
     * Must be called after a transform mutates the module — decoded
     * functions bake in operand slots, block indices and global
     * addresses, so executing a stale cache is undefined. (System
     * never needs it: its training Interpreter runs after the
     * expander and is gone before anything squeezes, and the squeezer
     * works on a copy of the trained module.)
     */
    void invalidate();

    /** @name Built-in value profile
     * The profiler's hot path: instead of an onAssign std::function
     * per assignment, the engine accumulates min/max/sum/count
     * of requiredBits() into dense arrays indexed by decoded
     * instruction id; the id -> Instruction mapping is applied only at
     * the edge, in valueProfile().
     */
    /// @{
    void enableValueProfile() { profileEnabled_ = true; }

    /**
     * Differential soundness check for the known-bits analysis: every
     * profiled assignment's observed RequiredBits must stay within the
     * static upper bound of its instruction (computed per function at
     * decode time). A violation means the forward analysis is unsound
     * and aborts execution. Implies enableValueProfile(); must be
     * enabled before the first run (bounds are baked at decode).
     */
    void
    enableStaticBoundsCheck()
    {
        boundsCheck_ = true;
        profileEnabled_ = true;
    }

    struct ValueProfileEntry
    {
        const Instruction *inst;
        unsigned minBits;
        unsigned maxBits;
        uint64_t sumBits;
        uint64_t count;
    };

    /** Executed assignment sites with accumulated bit statistics. */
    std::vector<ValueProfileEntry> valueProfile() const;

    /** As valueProfile(), but zeroes the accumulators so repeated
     *  training runs are not double-counted. */
    std::vector<ValueProfileEntry> takeValueProfile();
    /// @}

    /**
     * Per-assignment hook: called with every executed integer-producing
     * instruction and the value produced. Used by the profiler and the
     * bitwidth histogram benches.
     */
    std::function<void(const Instruction *, uint64_t)> onAssign;

    /** @name Raw memory access (for loading workload inputs). */
    /// @{
    uint64_t loadMem(uint32_t addr, unsigned bits) const;
    void storeMem(uint32_t addr, uint64_t value, unsigned bits);
    /// @}

  private:
    /** Dense value-profile accumulator cell. */
    struct ProfCell
    {
        unsigned minBits = 64;
        unsigned maxBits = 1;
        uint64_t sumBits = 0;
        uint64_t count = 0;
    };

    /** Copy every global's initialiser into memory. */
    void loadGlobals();
    uint64_t callDecoded(Function *f, const uint64_t *args, size_t nargs,
                         unsigned depth);
    template <bool kHooks, bool kProfile>
    uint64_t execDecoded(const DecodedFunction &df, size_t base,
                         unsigned depth);
    const DecodedFunction &decodedFor(Function *f);

    void
    profileAssign(uint32_t id, unsigned bits)
    {
        ProfCell &c = prof_[id];
        c.minBits = std::min(c.minBits, bits);
        c.maxBits = std::max(c.maxBits, bits);
        c.sumBits += bits;
        ++c.count;
        if (boundsCheck_ && bits > staticBound_[id])
            boundsViolation(id, bits);
    }

    [[noreturn]] void boundsViolation(uint32_t id, unsigned bits) const;

    Module &module_;
    /** Data memory, zero until written (support/mapped_bytes.h). */
    MappedBytes mapping_;
    std::span<uint8_t> memory_; ///< View of mapping_.
    std::vector<uint64_t> output_;
    InterpStats stats_;
    uint64_t fuel_ = kDefaultFuel;
    MisspecPolicy policy_ = MisspecPolicy::Hardware;
    Rng rng_{0x5eed};

    std::unordered_map<Function *, std::unique_ptr<DecodedFunction>>
        decodeCache_;

    /** Frame stack (slot storage for the call chain). */
    std::vector<uint64_t> dstack_;
    size_t dstackTop_ = 0;

    bool profileEnabled_ = false;
    std::vector<ProfCell> prof_;
    std::vector<const Instruction *> profInst_;

    /** Static RequiredBits ceiling per profiled site (64 when the
     *  bounds check is off at decode time). */
    bool boundsCheck_ = false;
    std::vector<unsigned> staticBound_;
};

} // namespace bitspec

#endif // BITSPEC_INTERP_INTERPRETER_H_
