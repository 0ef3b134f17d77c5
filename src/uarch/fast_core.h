/**
 * @file
 * The core model: a 32-bit, single-issue, in-order, 6-stage pipeline
 * with the BitSpec µarchitectural extensions (paper §3.5/§4.1):
 * byte-enable register-slice access, a segmented ALU that reports
 * misspeculation from slice-boundary carries, and the PC += Δ
 * redirect into skeleton blocks.
 *
 * Timing is modelled with an in-order scoreboard: one instruction per
 * cycle, plus operand-readiness stalls (load-use, multiply/divide
 * latency), taken-branch flushes, cache misses and misspeculation
 * redirects. Functional state is exact, so machine runs are checked
 * bit-for-bit against the IR interpreter. Everything a run observes
 * (ActivityCounters, cache stats, output checksum, per-region and
 * per-block profiler feeds) is pinned per workload and policy by
 * tests/core/run_freeze_test.cc.
 *
 * The core executes a PredecodedProgram on two paths:
 *
 *  - Slow path: one pre-decoded instruction at a time, cycle-accurate,
 *    over PInst handlers. It is the reference for everything below.
 *
 *  - Superblock replay: a RunMemo covers a trace from one entry
 *    index, following unconditional jumps into code the trace does
 *    not cover yet, up to its first other terminator — a statically
 *    computed schedule of the trace under the no-miss/no-misspec
 *    assumptions: total cycles, summed counter deltas,
 *    per-instruction cycle costs and scoreboard effects. When the
 *    entry guards hold (operands the schedule assumed ready are
 *    ready, fuel suffices, every I-line is resident), the trace
 *    replays in one sweep over its micro-ops, threaded: each handler
 *    does only the functional work and jumps straight to the next
 *    op's handler, and timing/accounting commit from the memo: the
 *    scoreboard once per exit (RunMemo::exitReady, skipped while it
 *    is quiescent), the I-fetches of a pinned trace lazily, at the
 *    next other use of the L1I (pendingFetches_).
 *    Interior jumps have no micro-op, a MOVW/MOVT pair on one
 *    register is one, and a sentinel closes the stream. D-cache
 *    accesses are still performed for real, so hierarchy state stays
 *    exact; the first dynamic divergence (D-miss, store stall,
 *    misspeculation) commits the prefix from the memo, finishes the
 *    diverging instruction cycle-accurately, and drops back to the
 *    slow path.
 *
 * A memo's schedule depends only on code geometry, so memos live per
 * FastCore and survive reset(); invalidateMemos() drops them (the
 * analogue of Interpreter::invalidate() for re-squeezed programs).
 * Which memos exist is run history: the run loop builds one at an
 * index only on its second visit there, where execution returns, and
 * reset() forgets the visits. System builds one FastCore per run, so
 * its runs share nothing mutable and each builds the memos it
 * replays.
 */

#ifndef BITSPEC_UARCH_FAST_CORE_H_
#define BITSPEC_UARCH_FAST_CORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.h"
#include "support/mapped_bytes.h"
#include "support/misspec.h"
#include "support/rng.h"
#include "uarch/cache.h"
#include "uarch/counters.h"
#include "uarch/predecode.h"

namespace bitspec
{

class BlockProfilerSink;
class CounterTrackEmitter;

/** Executes pre-decoded EMB32 programs. */
class FastCore
{
  public:
    static constexpr size_t kMemBytes = 1 << 22;
    static constexpr uint64_t kDefaultFuel = 600'000'000;
    static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
    static constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

    /** Most body instructions (interior jumps included) one memo
     *  covers; a trace that reaches it is cut back to its last jump,
     *  and a straight run that long falls back to the slow path
     *  (never seen in practice). */
    static constexpr uint32_t kMaxRunLen = 4096;
    static_assert(kMaxRunLen <= 0xffff, "ROp::body is 16 bits");

    /** @p pre (and the MachProgram it wraps) and @p m must outlive
     *  the core. */
    FastCore(const PredecodedProgram &pre, const Module &m);

    /** Reload globals, clear state and counters. */
    void reset();

    /** Run from _start with up to four @p args in r0..r3; returns r0
     *  at HALT. */
    uint32_t run(const std::vector<uint32_t> &args = {});

    const ActivityCounters &counters() const { return counters_; }
    const MemoryHierarchy &memory() const { return mem_; }
    const std::vector<uint64_t> &output() const { return output_; }

    /** FNV-1a over the output stream; matches Interpreter's. */
    uint64_t outputChecksum() const { return outputHash_; }

    void setFuel(uint64_t fuel) { fuel_ = fuel; }

    /** Attach (or detach with nullptr) the per-block profiler (block,
     *  skeleton and region tallies) for subsequent runs; it must
     *  outlive the runs it observes. Replay, inline branch completion
     *  and chaining stay on: replayed blocks feed it their exact
     *  per-instruction costs from the memo. Detached, a retire pays
     *  one null test. */
    void setBlockProfiler(BlockProfilerSink *sink) { prof_ = sink; }

    /** Attach (or detach with nullptr) a windowed counter-track
     *  emitter (IPC / misspec rate / cache hit rate samples into the
     *  trace stream). It samples at per-retire granularity, so an
     *  attached emitter keeps the whole run on the slow path. */
    void setCounterTracks(CounterTrackEmitter *tracks)
    {
        tracks_ = tracks;
    }

    /** Select how the four speculative check sites (LDRS8/ADD8/SUB8/
     *  TRN8) behave on subsequent runs. ForceFirst redirects at every
     *  check; Random redirects with probability 1/8 (seeded, so runs
     *  are reproducible). Either way a check that Hardware semantics
     *  require to fire still fires — Theorems 3.1/3.2 make the
     *  committed outputs policy-independent, which the differential
     *  fuzzer exercises. A non-Hardware policy disables memo replay
     *  (memos bake in check-didn't-fire execution). */
    void
    setMisspecPolicy(MisspecPolicy p, uint64_t seed = 0x5eed)
    {
        policy_ = p;
        rng_ = Rng(seed);
    }
    MisspecPolicy misspecPolicy() const { return policy_; }

    /** Drop every memo and visit count (memos are rebuilt lazily).
     *  Correctness never requires this — schedules depend only on
     *  the immutable pre-decoded code — but a System that re-squeezes
     *  and relinks must not carry memos across program versions. */
    void invalidateMemos();

    /** Memos built so far (observability/tests). */
    size_t memoCount() const { return memos_.size(); }
    /** Memo replays / slow-path instructions (observability/tests). */
    uint64_t replayedRuns() const { return replayedRuns_; }
    uint64_t slowInsts() const { return slowInsts_; }

  private:
    struct Flags
    {
        bool n = false, z = false, c = false, v = false;
    };

    /** Statically scheduled trace starting at one flat index: block
     *  bodies joined by the unconditional jumps between them, up to
     *  (excluding) the trace's terminator. */
    struct RunMemo
    {
        bool eligible = false;
        uint32_t start = 0;
        uint32_t len = 0;          ///< Body instructions, jumps included.
        uint32_t term = 0;         ///< Flat index of the terminator.
        uint64_t bodyCycles = 0;   ///< Cycle offset at terminator fetch.
        uint32_t maxReadyOff = 0;  ///< Max scoreboard offset written.
        uint16_t entryReadyMask = 0; ///< Regs assumed ready at entry.
        /** Scoreboard at a clean exit: the registers the body writes
         *  (MOVCOND destinations included) and each one's readiness
         *  offset after its last write. The replayed ops store no
         *  readiness; the exit writes these, and a divergence rebuilds
         *  its prefix's from per and the PInst latencies. */
        uint16_t exitWriteMask = 0;
        uint32_t exitReady[16] = {};
        uint64_t fuelCost = 0;     ///< Retirements incl. terminator.
        /** Fetch segments in execution order: each but the last ends
         *  at an interior jump, the last at the terminator. */
        std::vector<MemoryHierarchy::FetchSeg> segs;
        /** Body counter sums plus the terminator's static contrib
         *  (cycles unused; a conditional terminator's takenBranches
         *  is counted live). Interior jumps are always taken, so their
         *  takenBranches ride here too. */
        ActivityCounters delta;
        /** Clean replays not yet folded into counters_: delta is
         *  committed as delta * pendingReplays at finish() instead of
         *  per replay (the hot path's biggest accounting cost). */
        uint64_t pendingReplays = 0;
        /** Branch terminators complete inline in replay() (no
         *  execTerminator dispatch); a branch back to start — the hot
         *  inner-loop shape — additionally iterates inside replay(),
         *  skipping the per-iteration run-loop, residency guard and
         *  fetch commit (L1I is untouched between iterations, so the
         *  bulk commit at exit is exact). */
        bool termIsBranch = false;
        bool selfBackedge = false;
        Cond backCond = Cond::AL;
        uint32_t termTarget = 0;
        /** Pinned L1I footprint (ordered slot + fetch-count runs).
         *  While the L1I fill generation matches, the residency guard
         *  is one compare, and an exit only adds pin.total fetches per
         *  traversal to FastCore::pendingFetches_. */
        MemoryHierarchy::FetchPin pin;
        /** pendingFetches_ when the memo's last pending traversal
         *  ended, and whether the memo is on fetchList_. */
        uint64_t fetchEnd = 0;
        bool fetchListed = false;
        /** Compact replay micro-op, one per body instruction but the
         *  interior jumps (which do nothing at run time) and the MOVT
         *  of a MOVW/MOV #imm + MOVT pair on one register (the pair
         *  is one kMovI of the whole constant). Full-width
         *  register/flag operations, word and byte loads and stores,
         *  and the 8-bit slice operations are pre-resolved to direct
         *  register-file ops; the rest stays Generic and executes the
         *  original PInst handler. A slice op whose check fires falls
         *  back to that handler for the one instruction, so every
         *  misspeculation diverges there. */
        struct ROp
        {
            /** Handler-table order in replay(). */
            enum K : uint8_t
            {
                kGeneric = 0,
                kNop, ///< NOP.
                kAddRR, kAddRI, kSubRR, kSubRI, kSubIR,
                kAndRR, kAndRI, kOrrRR, kOrrRI, kEorRR, kEorRI,
                kLslRR, kLslRI, kLsrRR, kLsrRI, kAsrRR, kAsrRI,
                kMulRR, kMulRI, kMovR, kMovI, kMvnR, kMovtI,
                kCmpRR, kCmpRI, kCmpIR,
                kSetcc, kSxth, kUxth, kUxt8, kSxt8,
                kLoadWRR, kLoadWRI,
                // 8-bit slice ops: sources read (reg >> shift) & 0xff,
                // a slice destination merges its byte in.
                kAdd8RR, kAdd8RI, kSub8RR, kSub8RI,
                kCmp8RR, kCmp8RI, kCmp8IR,
                kMov8R, kMov8I,
                kLoadBRR, kLoadBRI,   ///< Byte load, full dst.
                kLoadB8RR, kLoadB8RI, ///< Byte load into a slice.
                // Stores: dst names the data register.
                kStoreWRR, kStoreWRI,
                kStoreBRR, kStoreBRI, ///< Low byte of a reg or slice.
                kEnd,    ///< Closes every stream: the clean body exit.
                kNumOps, ///< Handler count; not an op.
            };
            /** Slice shifts of dst, a, b in ROp::sh, as shift / 8. */
            static constexpr uint8_t kShDst = 0, kShA = 2, kShB = 4;
            /** ROp::sh bit: ADD8/SUB8 check carry/borrow. */
            static constexpr uint8_t kSpec = 0x40;

            uint8_t op = kGeneric;
            uint8_t dst = 0, a = 0, b = 0;
            uint32_t imm = 0;       ///< Immediate (or Cond for Setcc).
            uint8_t sh = 0;         ///< Packed slice shifts, kSpec.
            /** Index of the op's body entry in RunMemo::per (the
             *  MOVT's for a fused pair): where a divergence commits
             *  its prefix up to and resumes. */
            uint16_t body = 0;
        };
        static_assert(sizeof(ROp) == 12, "ROp must stay 12 bytes");

        struct PerInst
        {
            uint32_t flat = 0;      ///< Flat index of the instruction.
            uint32_t cycBefore = 0; ///< Cycle offset at fetch.
            uint32_t issueOff = 0;  ///< Cycle offset after issue stall.
            uint8_t cost = 0;       ///< Cycles charged to the sink.
        };
        std::vector<PerInst> per; ///< One per body instruction.
        std::vector<ROp> ops;     ///< Replayed stream, kEnd last.
    };

    bool condHolds(Cond c) const;
    uint32_t loadData(uint32_t addr, unsigned bytes);
    void storeData(uint32_t addr, uint32_t value, unsigned bytes);
    void setFlagsSub(uint64_t a, uint64_t b, unsigned bits);
    void emitOut(uint64_t v);

    /** The memo at @p idx, built on the run loop's second visit there;
     *  nullptr on the first. */
    RunMemo *memoFor(uint32_t idx);
    RunMemo buildMemo(uint32_t start) const;
    /** Pre-resolve one body instruction into its replay micro-op. */
    static RunMemo::ROp translateOp(const PInst &p);
    bool entryReady(const RunMemo &m) const;
    /** A clean exit of @p m entered at @p entry: write its exit
     *  scoreboard unless every readiness, old and new, is already at
     *  or below cycle_ (any two such values are interchangeable:
     *  readyAt_ is only compared with cycle_, which never
     *  decreases). */
    void exitScoreboard(const RunMemo &m, uint64_t entry);

    /** Replay the memoized trace at cycle_; returns the next flat
     *  index (or sets halted_). Only called with no counter tracks
     *  attached (run()'s guard). */
    uint32_t replay(RunMemo &m);
    /** Bulk-commit @p iters completed in-replay loop iterations
     *  (fetches, pendingReplays, replayedRuns_). */
    void flushIters(RunMemo &m, uint64_t iters);
    /** Replay residency guard: valid pin (one compare) or probe and
     *  re-pin. False when some I-line is not resident. */
    bool fetchGuard(RunMemo &m);
    /** Commit @p repeat fetch traversals of the memo's segments: with
     *  a valid pin, defer them to pendingFetches_; otherwise flush and
     *  commit them segment by segment. */
    void commitFetches(RunMemo &m, uint64_t repeat);
    /** Commit the deferred fetches to the L1I: stamp each listed
     *  memo's pinned lines with its last pending traversal, then count
     *  pendingFetches_. Runs before every other L1I use. */
    void flushFetches();
    /** Commit the first @p k body instructions of a diverged replay
     *  from the memo (fetches, counters, scoreboard, sink, fuel). */
    void commitPrefix(const RunMemo &m, uint32_t k);
    /** Leave a replay entered at @p entry at body instruction @p i,
     *  which completes at entry + its issue offset + @p extra:
     *  commit the @p iters finished loop iterations and the prefix,
     *  then retire i with the misspeculation when @p misspec. Returns
     *  where the slow path resumes: i's flat index + 1, or + Δ/4
     *  after a misspeculation. */
    uint32_t diverge(RunMemo &m, uint32_t i, uint64_t iters,
                     uint64_t entry, uint64_t extra, bool misspec);
    /** diverge() for body load @p i that missed in L1D by @p stall
     *  cycles: its value is in, but ready late. */
    uint32_t divergeLoadMiss(RunMemo &m, uint32_t i, uint64_t iters,
                             uint64_t entry, uint32_t stall);
    /** Feed the profiler the first @p k body instructions of @p m
     *  with their memoized costs. */
    void feedBody(const RunMemo &m, uint32_t k);
    /** Execute the call, return or halt terminator after a fully
     *  replayed body (branch terminators complete inline in replay();
     *  replay never runs with counter tracks attached, so none are
     *  fed). */
    uint32_t execTerminator(const RunMemo &m);
    /** One cycle-accurate slow-path instruction; returns next idx. */
    uint32_t slowStep(uint32_t idx);

    /** Copy every global's image into data memory. */
    void loadGlobals();
    void applyContrib(const CounterContrib &c);
    void applyDstWrite(uint8_t dst_write);
    void finish(uint64_t final_cycle);

    const PredecodedProgram &pre_;
    const MachProgram &prog_;
    const Module &module_;
    /** Data memory, zero until written (support/mapped_bytes.h). */
    MappedBytes mapping_;
    std::span<uint8_t> dataMem_; ///< View of mapping_.
    uint32_t regs_[16] = {};
    Flags flags_;
    uint32_t delta_ = 0;
    bool classicMode_ = false;

    MemoryHierarchy mem_;
    ActivityCounters counters_;
    std::vector<uint64_t> output_;
    uint64_t outputHash_ = kFnvOffset;
    uint64_t fuel_ = kDefaultFuel;
    BlockProfilerSink *prof_ = nullptr;
    CounterTrackEmitter *tracks_ = nullptr;
    MisspecPolicy policy_ = MisspecPolicy::Hardware;
    Rng rng_{0x5eed};

    /** Policy overlay for one check site: true forces a redirect
     *  even though the value fits. Call sites short-circuit it after
     *  the architectural condition, so Random draws once per check
     *  that does not fire on its own. */
    bool
    shouldForce()
    {
        if (policy_ == MisspecPolicy::ForceFirst)
            return true;
        if (policy_ == MisspecPolicy::Random)
            return rng_.next() % 8 == 0;
        return false;
    }

    /** Scoreboard: cycle when each register's value is ready. A
     *  replay writes it at its exit (RunMemo::exitReady), not per
     *  op. */
    uint64_t readyAt_[16] = {};
    /** Upper bound on max(readyAt_): when <= cycle_, the whole
     *  scoreboard is quiescent and replay entry needs no per-register
     *  check. */
    uint64_t maxReady_ = 0;

    /** Per-run state (members so the replay/slow helpers share it). */
    uint64_t cycle_ = 0;
    uint64_t executed_ = 0;
    bool halted_ = false;
    uint32_t retVal_ = 0;

    /** Lazy memo table: memoIdx_[i] indexes memos_, or is kUnseen /
     *  kSeenOnce (the run loop's visits at i before its memo). */
    static constexpr int32_t kUnseen = -1;
    static constexpr int32_t kSeenOnce = -2;
    std::vector<int32_t> memoIdx_;
    std::vector<RunMemo> memos_;

    /** Lazily committed I-fetches: a replay exit through a valid pin
     *  adds its fetches here and lists its memo (memos_ indices) in
     *  fetchList_, and flushFetches() commits them before the next
     *  other use of the L1I — the slow path's fetch, a prefix or
     *  unpinned commit, finish(), reset() and invalidateMemos(). L1I
     *  LRU order matters only when a line is filled, and only the slow
     *  path fills. */
    uint64_t pendingFetches_ = 0;
    std::vector<uint32_t> fetchList_;

    uint64_t replayedRuns_ = 0;
    uint64_t slowInsts_ = 0;
};

} // namespace bitspec

#endif // BITSPEC_UARCH_FAST_CORE_H_
