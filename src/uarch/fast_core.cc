#include "uarch/fast_core.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

// Timing parameters (cycles).
constexpr uint32_t kBranchPenalty = 2;  ///< Taken-branch flush.
constexpr uint32_t kMisspecPenalty = 4; ///< Redirect + refill.

/** Branch-free pre-resolved operand read (no rf accounting — counter
 *  events are pre-computed in CounterContrib). */
inline uint32_t
readSrc(const POpnd &o, const uint32_t *regs)
{
    return o.isImm ? o.imm : (regs[o.reg] >> o.shift) & o.mask;
}

/** Branch-free pre-resolved operand write (merge for slices; the
 *  full-register mask makes the merge an overwrite). */
inline void
writeDst(const POpnd &o, uint32_t *regs, uint32_t value)
{
    regs[o.reg] = (regs[o.reg] & ~(o.mask << o.shift)) |
                  ((value & o.mask) << o.shift);
}

/** Byte at slice @p field of ROp::sh in @p reg (the low byte when
 *  the shift is 0, as for a register operand). */
inline uint32_t
sliceByte(uint32_t reg, uint8_t sh, unsigned field)
{
    return (reg >> (((sh >> field) & 3u) * 8)) & 0xff;
}

/** Merge byte @p v into the destination slice ROp::sh names. */
inline void
mergeByte(uint32_t &reg, uint32_t v, uint8_t sh)
{
    const unsigned shift = (sh & 3u) * 8;
    reg = (reg & ~(0xffu << shift)) | (v << shift);
}

void
addContrib(ActivityCounters &c, const CounterContrib &k)
{
    c.alu32 += k.alu32;
    c.alu8 += k.alu8;
    c.mulDiv += k.mulDiv;
    c.rfRead32 += k.rfRead32;
    c.rfRead8 += k.rfRead8;
    c.loads += k.loads;
    c.stores += k.stores;
    c.branches += k.branches;
    c.takenBranches += k.takenBranches;
    c.calls += k.calls;
    c.outputs += k.outputs;
    c.dynSpillLoads += k.dynSpillLoads;
    c.dynSpillStores += k.dynSpillStores;
    c.dynCopies += k.dynCopies;
}

/** Add every field of a memo delta except cycles (assigned at halt
 *  by finish()), n replays at once: clean replays only
 *  bump RunMemo::pendingReplays and the multiply happens here, at
 *  finish(). */
void
addScaledDelta(ActivityCounters &c, const ActivityCounters &d,
               uint64_t n)
{
    c.instructions += d.instructions * n;
    c.alu32 += d.alu32 * n;
    c.alu8 += d.alu8 * n;
    c.mulDiv += d.mulDiv * n;
    c.rfRead32 += d.rfRead32 * n;
    c.rfWrite32 += d.rfWrite32 * n;
    c.rfRead8 += d.rfRead8 * n;
    c.rfWrite8 += d.rfWrite8 * n;
    c.loads += d.loads * n;
    c.stores += d.stores * n;
    c.branches += d.branches * n;
    c.takenBranches += d.takenBranches * n;
    c.calls += d.calls * n;
    c.misspeculations += d.misspeculations * n;
    c.dynSpillLoads += d.dynSpillLoads * n;
    c.dynSpillStores += d.dynSpillStores * n;
    c.dynCopies += d.dynCopies * n;
    c.outputs += d.outputs * n;
}

inline bool
isTerminator(PKind k)
{
    return k == PKind::Branch || k == PKind::Call ||
           k == PKind::Ret || k == PKind::Halt;
}

/** Bit nzcv of the result: whether @p c holds under the flags
 *  N, Z, C, V = bits 3..0 of nzcv. */
constexpr uint16_t
condTruth(Cond c)
{
    uint16_t table = 0;
    for (unsigned nzcv = 0; nzcv < 16; ++nzcv) {
        const bool n = nzcv & 8, z = nzcv & 4, cf = nzcv & 2,
                   v = nzcv & 1;
        bool holds = false;
        switch (c) {
          case Cond::AL: holds = true; break;
          case Cond::EQ: holds = z; break;
          case Cond::NE: holds = !z; break;
          case Cond::LO: holds = !cf; break;
          case Cond::LS: holds = !cf || z; break;
          case Cond::HI: holds = cf && !z; break;
          case Cond::HS: holds = cf; break;
          case Cond::LT: holds = n != v; break;
          case Cond::LE: holds = z || n != v; break;
          case Cond::GT: holds = !z && n == v; break;
          case Cond::GE: holds = n == v; break;
        }
        table |= static_cast<uint16_t>(holds << nzcv);
    }
    return table;
}

/** condTruth of every Cond, indexed by its value. */
constexpr auto kCondTruth = [] {
    std::array<uint16_t, static_cast<size_t>(Cond::GE) + 1> t{};
    for (size_t c = 0; c < t.size(); ++c)
        t[c] = condTruth(static_cast<Cond>(c));
    return t;
}();

} // namespace

FastCore::FastCore(const PredecodedProgram &pre, const Module &m)
    : pre_(pre), prog_(pre.prog()), module_(m), mapping_(kMemBytes),
      dataMem_(mapping_.bytes()), memoIdx_(pre.size(), kUnseen)
{
    // Every other member starts in its reset() state already (the
    // mapping reads as zeros).
    loadGlobals();
}

void
FastCore::loadGlobals()
{
    for (const auto &g : module_.globals()) {
        bsAssert(g->address() + g->sizeBytes() <= dataMem_.size(),
                 "global outside data memory");
        std::copy(g->data().begin(), g->data().end(),
                  dataMem_.begin() + g->address());
    }
}

void
FastCore::reset()
{
    flushFetches();
    mapping_.zero();
    loadGlobals();
    std::fill(std::begin(regs_), std::end(regs_), 0);
    std::fill(std::begin(readyAt_), std::end(readyAt_), 0);
    maxReady_ = 0;
    flags_ = Flags{};
    delta_ = 0;
    classicMode_ = false;
    counters_ = ActivityCounters{};
    output_.clear();
    outputHash_ = kFnvOffset;
    mem_ = MemoryHierarchy{};
    // Memos survive: their schedules depend only on the immutable
    // pre-decoded code, not on run state. Visit counts are the
    // discarded run's history, and so are pending replay counts
    // (nonzero only after a fatal), so drop them.
    std::replace(memoIdx_.begin(), memoIdx_.end(), kSeenOnce, kUnseen);
    for (RunMemo &m : memos_) {
        m.pendingReplays = 0;
        // The hierarchy was rebuilt: line slots and the fill
        // generation restart, so recorded pins no longer prove
        // anything.
        m.pin = MemoryHierarchy::FetchPin{};
    }
}

void
FastCore::invalidateMemos()
{
    flushFetches(); // fetchList_ indexes the memos about to go.
    memoIdx_.assign(pre_.size(), kUnseen);
    memos_.clear();
}

bool
FastCore::condHolds(Cond c) const
{
    const unsigned nzcv = flags_.n << 3 | flags_.z << 2 |
                          flags_.c << 1 | flags_.v;
    return kCondTruth[static_cast<size_t>(c)] >> nzcv & 1;
}

uint32_t
FastCore::loadData(uint32_t addr, unsigned bytes)
{
    if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
        fatal(strFormat("machine load out of bounds at 0x%x", addr));
    uint32_t v = 0;
    for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<uint32_t>(dataMem_[addr + b]) << (8 * b);
    return v;
}

void
FastCore::storeData(uint32_t addr, uint32_t value, unsigned bytes)
{
    if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
        fatal(strFormat("machine store out of bounds at 0x%x", addr));
    for (unsigned b = 0; b < bytes; ++b)
        dataMem_[addr + b] = static_cast<uint8_t>(value >> (8 * b));
}

void
FastCore::setFlagsSub(uint64_t a, uint64_t b, unsigned bits)
{
    uint64_t mask = lowMask(bits);
    uint64_t r = (a - b) & mask;
    flags_.z = r == 0;
    flags_.n = (r >> (bits - 1)) & 1;
    flags_.c = a >= b;
    bool sa = (a >> (bits - 1)) & 1;
    bool sb = (b >> (bits - 1)) & 1;
    bool sr = (r >> (bits - 1)) & 1;
    flags_.v = (sa != sb) && (sr != sa);
}

void
FastCore::emitOut(uint64_t v)
{
    output_.push_back(v);
    for (unsigned b = 0; b < 8; ++b) {
        outputHash_ ^= (v >> (8 * b)) & 0xff;
        outputHash_ *= kFnvPrime;
    }
}

void
FastCore::applyContrib(const CounterContrib &c)
{
    addContrib(counters_, c);
}

void
FastCore::applyDstWrite(uint8_t dst_write)
{
    if (dst_write == 1)
        ++counters_.rfWrite32;
    else if (dst_write == 2)
        ++counters_.rfWrite8;
}

void
FastCore::finish(uint64_t final_cycle)
{
    flushFetches();
    // Fold the deferred clean-replay deltas: each memo's counter sums
    // enter once, multiplied by how often it replayed this run.
    for (RunMemo &m : memos_)
        if (m.pendingReplays) {
            addScaledDelta(counters_, m.delta, m.pendingReplays);
            m.pendingReplays = 0;
        }
    // Provenance-tag counts are folded live (CounterContrib), so only
    // the cycle assignment remains.
    counters_.cycles = final_cycle;
}

FastCore::RunMemo
FastCore::buildMemo(uint32_t start) const
{
    const std::vector<PInst> &insts = pre_.insts();
    const uint32_t size = static_cast<uint32_t>(insts.size());

    // Trace the path: straight runs of flat indices, each ending at an
    // unconditional jump into code the trace does not cover yet, the
    // last at the first other terminator. A trace that stops at
    // covered code, Bad, the end of the code or kMaxRunLen is cut back
    // to its last jump, which becomes its terminator; a straight run
    // with no jump to fall back on is not replayable (the slow path
    // raises the fatal or panic).
    struct Range
    {
        uint32_t first, last;
    };
    std::vector<Range> path;
    auto covered = [&path](uint32_t idx) {
        for (const Range &r : path)
            if (idx >= r.first && idx <= r.last)
                return true;
        return false;
    };
    uint32_t first = start;
    uint32_t body = 0; // Body instructions so far, jumps included.
    for (uint32_t i = start;;) {
        if (i >= size || covered(i))
            break;
        const PInst &p = insts[i];
        if (isTerminator(p.kind)) {
            path.push_back({first, i});
            if (p.kind != PKind::Branch || p.cond != Cond::AL ||
                covered(p.target) || body >= kMaxRunLen)
                break;
            ++body; // An interior jump.
            first = i = p.target;
            continue;
        }
        if (p.kind == PKind::Bad || body >= kMaxRunLen)
            break;
        ++body;
        ++i;
    }
    if (path.empty())
        return {};

    RunMemo m;
    m.start = start;
    m.term = path.back().last;
    uint64_t rel = 0;           // Cycle offset from run entry.
    uint64_t relReady[16] = {}; // Scoreboard offsets.
    uint16_t writtenMask = 0;
    uint32_t maxReadyOff = 0;
    for (const Range &r : path) {
        m.segs.push_back({prog_.addrOf(r.first), prog_.addrOf(r.last)});
        for (uint32_t idx = r.first; idx <= r.last && idx != m.term;
             ++idx) {
            const PInst &p = insts[idx];
            RunMemo::PerInst pi;
            pi.flat = idx;
            pi.cycBefore = static_cast<uint32_t>(rel);
            rel += 1; // Fetch, assumed L1I hit (entry guard).
            ++m.delta.instructions;

            if (p.kind == PKind::Branch) {
                // Interior jump: static and always taken. It reads no
                // register and writes none, so it has no micro-op.
                pi.issueOff = static_cast<uint32_t>(rel);
                rel += kBranchPenalty;
                addContrib(m.delta, p.contrib);
                ++m.delta.takenBranches;
                m.per.push_back(pi);
                continue;
            }

            // In-order issue stall under the schedule's entry
            // assumption: registers not yet written in-run are ready
            // at entry.
            m.entryReadyMask |=
                static_cast<uint16_t>(p.readyMask & ~writtenMask);
            uint64_t ready = 0;
            for (uint32_t bits = p.readyMask; bits; bits &= bits - 1)
                ready = std::max(ready, relReady[__builtin_ctz(bits)]);
            if (ready > rel)
                rel = ready;
            pi.issueOff = static_cast<uint32_t>(rel);

            if (p.dstWrite) {
                const uint32_t ready_off = pi.issueOff + p.latency;
                relReady[p.dst.reg] = ready_off;
                writtenMask |= static_cast<uint16_t>(1u << p.dst.reg);
                m.exitWriteMask |= static_cast<uint16_t>(1u << p.dst.reg);
                maxReadyOff = std::max(maxReadyOff, ready_off);
            } else if (p.kind == PKind::MovCond) {
                // The write commits only when the condition holds, so
                // dst stays out of writtenMask (a false condition
                // leaves the entry-time value live) — but issue+1 is
                // schedule-exact either way: dst readiness was
                // consulted at issue, so both candidate values are <=
                // any later consult. Replay records issue+1 whether
                // or not the move fires.
                relReady[p.dst.reg] = rel + 1;
                m.exitWriteMask |= static_cast<uint16_t>(1u << p.dst.reg);
                maxReadyOff = std::max(maxReadyOff,
                                       static_cast<uint32_t>(rel + 1));
            }

            addContrib(m.delta, p.contrib);
            if (p.dstWrite == 1)
                ++m.delta.rfWrite32;
            else if (p.dstWrite == 2)
                ++m.delta.rfWrite8;
            m.per.push_back(pi);
            RunMemo::ROp op = translateOp(p);
            op.body = static_cast<uint16_t>(m.per.size() - 1);
            RunMemo::ROp *prev = m.ops.empty() ? nullptr : &m.ops.back();
            if (op.op == RunMemo::ROp::kMovtI && prev &&
                prev->op == RunMemo::ROp::kMovI && prev->dst == op.dst) {
                // MOVW or MOV #imm, then MOVT of the same register:
                // neither can diverge and the MOVT is the register's
                // last write, so one op loading the whole constant is
                // exact.
                prev->imm = op.imm << 16 | (prev->imm & 0xffff);
                prev->body = op.body;
                continue;
            }
            m.ops.push_back(op);
        }
    }

    // The terminator always retires after a clean body replay, so its
    // static contribution (branches/calls/instruction) rides in the
    // deferred delta too; only a conditional branch's takenBranches is
    // dynamic and counted live where replay() completes the branch.
    const PInst &t = insts[m.term];
    addContrib(m.delta, t.contrib);
    ++m.delta.instructions;

    m.termIsBranch = t.kind == PKind::Branch;
    m.selfBackedge = m.termIsBranch && t.target == start;
    m.backCond = t.cond;
    m.termTarget = t.target;

    m.len = static_cast<uint32_t>(m.per.size());
    RunMemo::ROp end;
    end.op = RunMemo::ROp::kEnd;
    m.ops.push_back(end);
    m.bodyCycles = rel;
    m.maxReadyOff = maxReadyOff;
    for (uint32_t bits = m.exitWriteMask; bits; bits &= bits - 1) {
        const uint32_t reg = static_cast<uint32_t>(__builtin_ctz(bits));
        m.exitReady[reg] = static_cast<uint32_t>(relReady[reg]);
    }
    m.fuelCost = m.len + 1;
    for (uint32_t j = 0; j < m.len; ++j) {
        uint64_t next_fetch =
            j + 1 < m.len ? m.per[j + 1].cycBefore : m.bodyCycles;
        m.per[j].cost =
            static_cast<uint8_t>(next_fetch - m.per[j].cycBefore);
    }
    m.eligible = true;
    return m;
}

FastCore::RunMemo::ROp
FastCore::translateOp(const PInst &p)
{
    using ROp = RunMemo::ROp;
    ROp r;
    r.dst = p.dst.reg;
    r.a = p.a.reg;
    r.b = p.b.reg;
    // Slice shifts (0 for registers and immediates): a register read
    // as (reg >> 0) & 0xff is its low byte, exactly what the 8-bit
    // handlers read from a full-register operand.
    r.sh = static_cast<uint8_t>((p.dst.shift / 8) << ROp::kShDst |
                                (p.a.shift / 8) << ROp::kShA |
                                (p.b.shift / 8) << ROp::kShB);

    auto fullReg = [](const POpnd &o) {
        return !o.isImm && o.shift == 0 && o.mask == 0xffffffffu;
    };
    // Specialization requires a full-register (or absent) destination
    // and full-register/immediate sources: the micro-op then reads
    // and writes the register file directly, no slice merges.
    const bool dstFull = p.dstWrite == 1 && p.dst.shift == 0 &&
                         p.dst.mask == 0xffffffffu;
    const bool aR = fullReg(p.a), bR = fullReg(p.b);
    const bool aI = p.a.isImm, bI = p.b.isImm;
    // 8-bit ops: a slice destination merges its byte in.
    const bool dstSlice = p.dstWrite == 2;

    switch (p.kind) {
      case PKind::AluAdd:
      case PKind::AluAnd:
      case PKind::AluOrr:
      case PKind::AluEor:
      case PKind::Mul: {
        if (!dstFull)
            break;
        ROp::K rr, ri;
        switch (p.kind) {
          case PKind::AluAdd: rr = ROp::kAddRR; ri = ROp::kAddRI; break;
          case PKind::AluAnd: rr = ROp::kAndRR; ri = ROp::kAndRI; break;
          case PKind::AluOrr: rr = ROp::kOrrRR; ri = ROp::kOrrRI; break;
          case PKind::AluEor: rr = ROp::kEorRR; ri = ROp::kEorRI; break;
          default:            rr = ROp::kMulRR; ri = ROp::kMulRI; break;
        }
        if (aR && bR) {
            r.op = rr;
        } else if (aR && bI) {
            r.op = ri;
            r.imm = p.b.imm;
        } else if (aI && bR) { // Commutative: fold as reg-op-imm.
            r.op = ri;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      }
      case PKind::AluSub:
        if (!dstFull)
            break;
        if (aR && bR) {
            r.op = ROp::kSubRR;
        } else if (aR && bI) {
            r.op = ROp::kSubRI;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ROp::kSubIR;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      case PKind::AluLsl:
      case PKind::AluLsr:
      case PKind::AluAsr: {
        if (!dstFull)
            break;
        ROp::K rr = p.kind == PKind::AluLsl   ? ROp::kLslRR
                    : p.kind == PKind::AluLsr ? ROp::kLsrRR
                                              : ROp::kAsrRR;
        ROp::K ri = p.kind == PKind::AluLsl   ? ROp::kLslRI
                    : p.kind == PKind::AluLsr ? ROp::kLsrRI
                                              : ROp::kAsrRI;
        if (aR && bR) {
            r.op = rr;
        } else if (aR && bI) {
            r.op = ri;
            r.imm = p.b.imm;
        }
        break;
      }
      case PKind::Mov:
        if (dstSlice) { // MOV8.
            if (aI) {
                r.op = ROp::kMov8I;
                r.imm = p.a.imm & 0xff;
            } else {
                r.op = ROp::kMov8R;
            }
        } else if (dstFull) {
            if (aR) {
                r.op = ROp::kMovR;
            } else if (aI) {
                r.op = ROp::kMovI;
                r.imm = p.a.imm;
            } else { // From a slice: the byte zero-extends.
                r.op = ROp::kUxt8;
            }
        }
        break;
      case PKind::Nop:
        r.op = ROp::kNop;
        break;
      case PKind::Mvn:
        if (dstFull && aR)
            r.op = ROp::kMvnR;
        break;
      case PKind::Movw:
        if (dstFull) {
            r.op = ROp::kMovI;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Movt:
        if (dstFull) {
            r.op = ROp::kMovtI;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Cmp:
        if (aR && bR) {
            r.op = ROp::kCmpRR;
        } else if (aR && bI) {
            r.op = ROp::kCmpRI;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ROp::kCmpIR;
            r.imm = p.a.imm;
        }
        break;
      case PKind::Cmp8:
        if (!aI && !bI) {
            r.op = ROp::kCmp8RR;
        } else if (!aI) {
            r.op = ROp::kCmp8RI;
            r.imm = p.b.imm & 0xff;
        } else if (!bI) {
            r.op = ROp::kCmp8IR;
            r.imm = p.a.imm & 0xff;
        }
        break;
      case PKind::Add8:
      case PKind::Sub8: {
        if (!dstSlice || aI)
            break;
        const bool add = p.kind == PKind::Add8;
        if (bI) {
            r.op = add ? ROp::kAdd8RI : ROp::kSub8RI;
            r.imm = p.b.imm & 0xff;
        } else {
            r.op = add ? ROp::kAdd8RR : ROp::kSub8RR;
        }
        if (p.aux)
            r.sh |= ROp::kSpec;
        break;
      }
      case PKind::Setcc:
        if (dstFull) {
            r.op = ROp::kSetcc;
            r.imm = static_cast<uint32_t>(p.cond);
        }
        break;
      case PKind::Sxth:
        if (dstFull && aR)
            r.op = ROp::kSxth;
        break;
      case PKind::Uxth:
        if (dstFull && aR)
            r.op = ROp::kUxth;
        break;
      case PKind::Uxt8: // From a register or a slice.
        if (dstFull && !aI)
            r.op = ROp::kUxt8;
        break;
      case PKind::Sxt8:
        if (dstFull && !aI)
            r.op = ROp::kSxt8;
        break;
      case PKind::Load: {
        // Word and byte loads with full-register addressing; halfword
        // loads stay Generic.
        ROp::K rr, ri;
        if (p.aux == 4 && dstFull) {
            rr = ROp::kLoadWRR;
            ri = ROp::kLoadWRI;
        } else if (p.aux == 1 && dstFull) {
            rr = ROp::kLoadBRR;
            ri = ROp::kLoadBRI;
        } else if (p.aux == 1 && dstSlice) { // LDRB8.
            rr = ROp::kLoadB8RR;
            ri = ROp::kLoadB8RI;
        } else {
            break;
        }
        if (aR && bR) {
            r.op = rr;
        } else if (aR && bI) {
            r.op = ri;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ri;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      }
      case PKind::Store: {
        // Word stores of a register and byte stores of a register or
        // slice, with full-register addressing; halfword stores stay
        // Generic.
        ROp::K rr, ri;
        if (p.aux == 4 && fullReg(p.dst)) {
            rr = ROp::kStoreWRR;
            ri = ROp::kStoreWRI;
        } else if (p.aux == 1 && !p.dst.isImm) {
            rr = ROp::kStoreBRR;
            ri = ROp::kStoreBRI;
        } else {
            break;
        }
        if (aR && bR) {
            r.op = rr;
        } else if (aR && bI) {
            r.op = ri;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ri;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      }
      default: // Conditional, halfword, rare: Generic.
        break;
    }
    return r;
}

FastCore::RunMemo *
FastCore::memoFor(uint32_t idx)
{
    int32_t &mi = memoIdx_[idx];
    if (mi == kUnseen) {
        // Most cold code runs once: a memo pays off only where
        // execution comes back.
        mi = kSeenOnce;
        return nullptr;
    }
    if (mi == kSeenOnce) {
        memos_.push_back(buildMemo(idx));
        mi = static_cast<int32_t>(memos_.size()) - 1;
    }
    return &memos_[static_cast<size_t>(mi)];
}

bool
FastCore::entryReady(const RunMemo &m) const
{
    if (maxReady_ <= cycle_)
        return true;
    for (uint32_t bits = m.entryReadyMask; bits; bits &= bits - 1)
        if (readyAt_[__builtin_ctz(bits)] > cycle_)
            return false;
    return true;
}

inline void
FastCore::exitScoreboard(const RunMemo &m, uint64_t entry)
{
    const uint64_t max_new = entry + m.maxReadyOff;
    if (maxReady_ <= cycle_ && max_new <= cycle_)
        return; // Quiescent before and after.
    for (uint32_t bits = m.exitWriteMask; bits; bits &= bits - 1) {
        const uint32_t reg = static_cast<uint32_t>(__builtin_ctz(bits));
        readyAt_[reg] = entry + m.exitReady[reg];
    }
    maxReady_ = std::max(maxReady_, max_new);
}

void
FastCore::commitPrefix(const RunMemo &m, uint32_t k)
{
    // The k body instructions retired plus the diverging one were all
    // fetched, segment by segment; their lines are resident (entry
    // guard), so the fetch sequence commits in bulk. L1I traffic
    // never reaches L2 here, so committing after the
    // already-performed D-accesses leaves the hierarchy exactly as
    // per-instruction fetches would.
    flushFetches();
    const uint32_t last = prog_.addrOf(m.per[k].flat);
    for (const MemoryHierarchy::FetchSeg &seg : m.segs) {
        if (last >= seg.first && last <= seg.last) {
            mem_.fetchRangeCommit(seg.first, last);
            break;
        }
        mem_.fetchRangeCommit(seg.first, seg.last);
    }
    // The replayed ops stored no readiness: rebuild the prefix's from
    // its schedule, in order, so each register ends at its last
    // write's (a MOVCOND's issue + 1 whether it fired or not, as in
    // buildMemo).
    const PInst *insts = pre_.insts().data();
    const uint64_t entry = cycle_;
    for (uint32_t j = 0; j < k; ++j) {
        const PInst &p = insts[m.per[j].flat];
        applyContrib(p.contrib);
        // Interior jumps are the body's only branches: always taken.
        counters_.takenBranches += p.kind == PKind::Branch;
        if (p.kind == PKind::MovCond) {
            readyAt_[p.dst.reg] = entry + m.per[j].issueOff + 1;
        } else if (p.dstWrite) {
            applyDstWrite(p.dstWrite);
            readyAt_[p.dst.reg] = entry + m.per[j].issueOff + p.latency;
        }
    }
    counters_.instructions += k;
    executed_ += k;
    if (prof_)
        feedBody(m, k);
    // Upper bound over the prefix's scoreboard writes.
    maxReady_ = std::max(maxReady_, entry + m.maxReadyOff);
}

uint32_t
FastCore::diverge(RunMemo &m, uint32_t i, uint64_t iters,
                  uint64_t entry, uint64_t extra, bool misspec)
{
    flushIters(m, iters);
    commitPrefix(m, i); // cycle_ still equals entry here.
    const RunMemo::PerInst &pi = m.per[i];
    cycle_ = entry + pi.issueOff + extra;
    const uint64_t cost = cycle_ - (entry + pi.cycBefore);
    applyContrib(pre_.insts()[pi.flat].contrib);
    ++counters_.instructions;
    ++executed_;
    if (misspec) {
        ++counters_.misspeculations;
        if (prof_)
            prof_->onMisspec(pi.flat);
    }
    if (prof_)
        prof_->onInst(pi.flat, cost);
    return pi.flat + (misspec ? delta_ / kInstBytes : 1);
}

uint32_t
FastCore::divergeLoadMiss(RunMemo &m, uint32_t i, uint64_t iters,
                          uint64_t entry, uint32_t stall)
{
    // The prefix's readiness first (diverge() rebuilds it), then the
    // load's own write, late by the miss.
    const uint32_t next = diverge(m, i, iters, entry, 0, false);
    const PInst &p = pre_.insts()[m.per[i].flat];
    applyDstWrite(p.dstWrite);
    const uint64_t rdy = entry + m.per[i].issueOff + p.latency + stall;
    readyAt_[p.dst.reg] = rdy;
    maxReady_ = std::max(maxReady_, rdy);
    return next;
}

inline bool
FastCore::fetchGuard(RunMemo &m)
{
    if (m.pin.cnt && m.pin.gen == mem_.l1iFillGen())
        return true;
    if (!mem_.fetchResident(m.segs))
        return false;
    mem_.fetchPin(m.segs, m.pin);
    return true;
}

inline void
FastCore::commitFetches(RunMemo &m, uint64_t repeat)
{
    // No I-fill can intervene between the guard and this commit (the
    // body performs only D-side accesses), but re-checking is one
    // compare and keeps the pin self-validating.
    if (m.pin.cnt && m.pin.gen == mem_.l1iFillGen()) {
        pendingFetches_ += m.pin.total * repeat;
        m.fetchEnd = pendingFetches_;
        if (!m.fetchListed) {
            m.fetchListed = true;
            fetchList_.push_back(static_cast<uint32_t>(&m - memos_.data()));
        }
        return;
    }
    flushFetches();
    mem_.fetchCommit(m.segs, repeat);
}

void
FastCore::flushFetches()
{
    // No fill since the listed exits (only the slow path fills, and it
    // flushes first), so every listed pin is still valid. Each memo's
    // last pending traversal stamps its lines; a line two memos share
    // keeps the later stamp, so each set's LRU order is that of the
    // per-exit commits.
    for (uint32_t mi : fetchList_) {
        RunMemo &m = memos_[mi];
        mem_.fetchStampPinned(m.pin, m.fetchEnd);
        m.fetchListed = false;
    }
    fetchList_.clear();
    mem_.fetchAddHits(pendingFetches_);
    pendingFetches_ = 0;
}

inline void
FastCore::flushIters(RunMemo &m, uint64_t iters)
{
    if (!iters)
        return;
    // The iterated loop touched no other I-line in between, so one
    // scaled bulk fetch commit is exact; counter deltas defer with
    // the usual pendingReplays multiplier (takenBranches, executed_
    // and the scoreboard were kept live per iteration).
    m.pendingReplays += iters;
    commitFetches(m, iters);
    replayedRuns_ += iters;
}

uint32_t
FastCore::replay(RunMemo &m0)
{
    using ROp = RunMemo::ROp;
    // Threaded dispatch (Ertl & Gregg, JILP 2003): every handler ends
    // in its own indirect jump through this table, in ROp::K order.
    static const void *const kHandlers[] = {
        &&op_generic, &&op_nop,
        &&op_add_rr, &&op_add_ri, &&op_sub_rr, &&op_sub_ri, &&op_sub_ir,
        &&op_and_rr, &&op_and_ri, &&op_orr_rr, &&op_orr_ri,
        &&op_eor_rr, &&op_eor_ri,
        &&op_lsl_rr, &&op_lsl_ri, &&op_lsr_rr, &&op_lsr_ri,
        &&op_asr_rr, &&op_asr_ri,
        &&op_mul_rr, &&op_mul_ri, &&op_mov_r, &&op_mov_i, &&op_mvn_r,
        &&op_movt_i,
        &&op_cmp_rr, &&op_cmp_ri, &&op_cmp_ir,
        &&op_setcc, &&op_sxth, &&op_uxth, &&op_uxt8, &&op_sxt8,
        &&op_load_w_rr, &&op_load_w_ri,
        &&op_add8_rr, &&op_add8_ri, &&op_sub8_rr, &&op_sub8_ri,
        &&op_cmp8_rr, &&op_cmp8_ri, &&op_cmp8_ir,
        &&op_mov8_r, &&op_mov8_i,
        &&op_load_b_rr, &&op_load_b_ri, &&op_load_b8_rr, &&op_load_b8_ri,
        &&op_store_w_rr, &&op_store_w_ri, &&op_store_b_rr,
        &&op_store_b_ri,
        &&op_end,
    };
    static_assert(std::size(kHandlers) == ROp::kNumOps,
                  "one replay handler per ROp::K");

    RunMemo *mp = &m0; // Re-pointed when block chaining continues.
    uint64_t entry = cycle_;
    const PInst *insts = pre_.insts().data();
    uint32_t *regs = regs_;
    // Completed in-replay iterations of a self-backedge loop, bulk
    // committed by flushIters on every exit path.
    uint64_t iters = 0;
    uint32_t next = 0; // Successor index for the chaining exit.
    const ROp *r = nullptr; // The executing op.

    // Retire *op: step to the next op and return its handler. The
    // scoreboard is written at the exit (exitScoreboard) or rebuilt at
    // a divergence (commitPrefix), not here. The op pointer is a
    // parameter, not a by-reference capture, which would keep it in
    // memory.
    auto retire = [](const ROp *&op) {
        ++op;
        return kHandlers[op->op];
    };
    // A load's or store's D-access, then the slow path's
    // out-of-bounds fatal.
    auto loadAccess = [this](uint32_t addr, unsigned bytes) {
        const uint32_t stall = mem_.data(addr, false);
        if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
            loadData(addr, bytes);
        return stall;
    };
    auto storeAccess = [this](uint32_t addr, unsigned bytes) {
        const uint32_t stall = mem_.data(addr, true);
        if (static_cast<uint64_t>(addr) + bytes > dataMem_.size())
            storeData(addr, 0, bytes);
        return stall;
    };

  iterate:
    r = mp->ops.data();
    goto *kHandlers[r->op];

  op_nop:
    goto *retire(r);
  op_add_rr:
    regs[r->dst] = regs[r->a] + regs[r->b];
    goto *retire(r);
  op_add_ri:
    regs[r->dst] = regs[r->a] + r->imm;
    goto *retire(r);
  op_sub_rr:
    regs[r->dst] = regs[r->a] - regs[r->b];
    goto *retire(r);
  op_sub_ri:
    regs[r->dst] = regs[r->a] - r->imm;
    goto *retire(r);
  op_sub_ir:
    regs[r->dst] = r->imm - regs[r->a];
    goto *retire(r);
  op_and_rr:
    regs[r->dst] = regs[r->a] & regs[r->b];
    goto *retire(r);
  op_and_ri:
    regs[r->dst] = regs[r->a] & r->imm;
    goto *retire(r);
  op_orr_rr:
    regs[r->dst] = regs[r->a] | regs[r->b];
    goto *retire(r);
  op_orr_ri:
    regs[r->dst] = regs[r->a] | r->imm;
    goto *retire(r);
  op_eor_rr:
    regs[r->dst] = regs[r->a] ^ regs[r->b];
    goto *retire(r);
  op_eor_ri:
    regs[r->dst] = regs[r->a] ^ r->imm;
    goto *retire(r);
  op_lsl_rr: {
    const uint32_t s = regs[r->b];
    regs[r->dst] = s >= 32 ? 0 : regs[r->a] << s;
    goto *retire(r);
  }
  op_lsl_ri:
    regs[r->dst] = r->imm >= 32 ? 0 : regs[r->a] << r->imm;
    goto *retire(r);
  op_lsr_rr: {
    const uint32_t s = regs[r->b];
    regs[r->dst] = s >= 32 ? 0 : regs[r->a] >> s;
    goto *retire(r);
  }
  op_lsr_ri:
    regs[r->dst] = r->imm >= 32 ? 0 : regs[r->a] >> r->imm;
    goto *retire(r);
  op_asr_rr: {
    const uint32_t s = regs[r->b];
    const int32_t a = static_cast<int32_t>(regs[r->a]);
    regs[r->dst] = s >= 32 ? (a < 0 ? ~0u : 0)
                           : static_cast<uint32_t>(a >> s);
    goto *retire(r);
  }
  op_asr_ri: {
    const int32_t a = static_cast<int32_t>(regs[r->a]);
    regs[r->dst] = r->imm >= 32 ? (a < 0 ? ~0u : 0)
                                : static_cast<uint32_t>(a >> r->imm);
    goto *retire(r);
  }
  op_mul_rr:
    regs[r->dst] = regs[r->a] * regs[r->b];
    goto *retire(r);
  op_mul_ri:
    regs[r->dst] = regs[r->a] * r->imm;
    goto *retire(r);
  op_mov_r:
    regs[r->dst] = regs[r->a];
    goto *retire(r);
  op_mov_i:
    regs[r->dst] = r->imm;
    goto *retire(r);
  op_mvn_r:
    regs[r->dst] = ~regs[r->a];
    goto *retire(r);
  op_movt_i:
    regs[r->dst] = (r->imm << 16) | (regs[r->dst] & 0xffff);
    goto *retire(r);
  op_cmp_rr:
    setFlagsSub(regs[r->a], regs[r->b], 32);
    goto *retire(r);
  op_cmp_ri:
    setFlagsSub(regs[r->a], r->imm, 32);
    goto *retire(r);
  op_cmp_ir:
    setFlagsSub(r->imm, regs[r->b], 32);
    goto *retire(r);
  op_setcc:
    regs[r->dst] = condHolds(static_cast<Cond>(r->imm)) ? 1 : 0;
    goto *retire(r);
  op_sxth:
    regs[r->dst] = static_cast<uint32_t>(sextFrom(regs[r->a], 16));
    goto *retire(r);
  op_uxth:
    regs[r->dst] = regs[r->a] & 0xffff;
    goto *retire(r);
  op_uxt8:
    regs[r->dst] = sliceByte(regs[r->a], r->sh, ROp::kShA);
    goto *retire(r);
  op_sxt8:
    regs[r->dst] = static_cast<uint32_t>(
        sextFrom(sliceByte(regs[r->a], r->sh, ROp::kShA), 8));
    goto *retire(r);
  op_add8_rr: {
    const uint32_t full = sliceByte(regs[r->a], r->sh, ROp::kShA) +
                          sliceByte(regs[r->b], r->sh, ROp::kShB);
    if ((r->sh & ROp::kSpec) && full > 0xff)
        goto op_generic; // Carry out: misspeculation.
    mergeByte(regs[r->dst], full & 0xff, r->sh);
    goto *retire(r);
  }
  op_add8_ri: {
    const uint32_t full =
        sliceByte(regs[r->a], r->sh, ROp::kShA) + r->imm;
    if ((r->sh & ROp::kSpec) && full > 0xff)
        goto op_generic; // Carry out: misspeculation.
    mergeByte(regs[r->dst], full & 0xff, r->sh);
    goto *retire(r);
  }
  op_sub8_rr: {
    const uint32_t a = sliceByte(regs[r->a], r->sh, ROp::kShA);
    const uint32_t b = sliceByte(regs[r->b], r->sh, ROp::kShB);
    if ((r->sh & ROp::kSpec) && a < b)
        goto op_generic; // Borrow: misspeculation.
    mergeByte(regs[r->dst], (a - b) & 0xff, r->sh);
    goto *retire(r);
  }
  op_sub8_ri: {
    const uint32_t a = sliceByte(regs[r->a], r->sh, ROp::kShA);
    if ((r->sh & ROp::kSpec) && a < r->imm)
        goto op_generic; // Borrow: misspeculation.
    mergeByte(regs[r->dst], (a - r->imm) & 0xff, r->sh);
    goto *retire(r);
  }
  op_cmp8_rr:
    setFlagsSub(sliceByte(regs[r->a], r->sh, ROp::kShA),
                sliceByte(regs[r->b], r->sh, ROp::kShB), 8);
    goto *retire(r);
  op_cmp8_ri:
    setFlagsSub(sliceByte(regs[r->a], r->sh, ROp::kShA), r->imm, 8);
    goto *retire(r);
  op_cmp8_ir:
    setFlagsSub(r->imm, sliceByte(regs[r->b], r->sh, ROp::kShB), 8);
    goto *retire(r);
  op_mov8_r:
    mergeByte(regs[r->dst], sliceByte(regs[r->a], r->sh, ROp::kShA),
              r->sh);
    goto *retire(r);
  op_mov8_i:
    mergeByte(regs[r->dst], r->imm, r->sh);
    goto *retire(r);
  op_load_w_rr: {
    const uint32_t addr = regs[r->a] + regs[r->b];
    const uint32_t stall = loadAccess(addr, 4);
    std::memcpy(&regs[r->dst], dataMem_.data() + addr, 4);
    if (stall)
        return divergeLoadMiss(*mp, r->body, iters, entry, stall);
    goto *retire(r);
  }
  op_load_w_ri: {
    const uint32_t addr = regs[r->a] + r->imm;
    const uint32_t stall = loadAccess(addr, 4);
    std::memcpy(&regs[r->dst], dataMem_.data() + addr, 4);
    if (stall)
        return divergeLoadMiss(*mp, r->body, iters, entry, stall);
    goto *retire(r);
  }
  op_load_b_rr: {
    const uint32_t addr = regs[r->a] + regs[r->b];
    const uint32_t stall = loadAccess(addr, 1);
    regs[r->dst] = dataMem_[addr];
    if (stall)
        return divergeLoadMiss(*mp, r->body, iters, entry, stall);
    goto *retire(r);
  }
  op_load_b_ri: {
    const uint32_t addr = regs[r->a] + r->imm;
    const uint32_t stall = loadAccess(addr, 1);
    regs[r->dst] = dataMem_[addr];
    if (stall)
        return divergeLoadMiss(*mp, r->body, iters, entry, stall);
    goto *retire(r);
  }
  op_load_b8_rr: {
    const uint32_t addr = regs[r->a] + regs[r->b];
    const uint32_t stall = loadAccess(addr, 1);
    mergeByte(regs[r->dst], dataMem_[addr], r->sh);
    if (stall)
        return divergeLoadMiss(*mp, r->body, iters, entry, stall);
    goto *retire(r);
  }
  op_load_b8_ri: {
    const uint32_t addr = regs[r->a] + r->imm;
    const uint32_t stall = loadAccess(addr, 1);
    mergeByte(regs[r->dst], dataMem_[addr], r->sh);
    if (stall)
        return divergeLoadMiss(*mp, r->body, iters, entry, stall);
    goto *retire(r);
  }
  op_store_w_rr: {
    const uint32_t addr = regs[r->a] + regs[r->b];
    const uint32_t stall = storeAccess(addr, 4);
    std::memcpy(dataMem_.data() + addr, &regs[r->dst], 4);
    if (stall) // Store misses advance the cycle itself.
        return diverge(*mp, r->body, iters, entry, stall, false);
    goto *retire(r);
  }
  op_store_w_ri: {
    const uint32_t addr = regs[r->a] + r->imm;
    const uint32_t stall = storeAccess(addr, 4);
    std::memcpy(dataMem_.data() + addr, &regs[r->dst], 4);
    if (stall)
        return diverge(*mp, r->body, iters, entry, stall, false);
    goto *retire(r);
  }
  op_store_b_rr: {
    const uint32_t addr = regs[r->a] + regs[r->b];
    const uint32_t stall = storeAccess(addr, 1);
    dataMem_[addr] = static_cast<uint8_t>(
        sliceByte(regs[r->dst], r->sh, ROp::kShDst));
    if (stall)
        return diverge(*mp, r->body, iters, entry, stall, false);
    goto *retire(r);
  }
  op_store_b_ri: {
    const uint32_t addr = regs[r->a] + r->imm;
    const uint32_t stall = storeAccess(addr, 1);
    dataMem_[addr] = static_cast<uint8_t>(
        sliceByte(regs[r->dst], r->sh, ROp::kShDst));
    if (stall)
        return diverge(*mp, r->body, iters, entry, stall, false);
    goto *retire(r);
  }
  op_generic: { // The original PInst handler.
    const uint32_t i = r->body;
    const PInst &p = insts[mp->per[i].flat];
    switch (p.kind) {
      case PKind::AluAdd:
        writeDst(p.dst, regs, readSrc(p.a, regs) + readSrc(p.b, regs));
        break;
      case PKind::AluSub:
        writeDst(p.dst, regs, readSrc(p.a, regs) - readSrc(p.b, regs));
        break;
      case PKind::AluAnd:
        writeDst(p.dst, regs, readSrc(p.a, regs) & readSrc(p.b, regs));
        break;
      case PKind::AluOrr:
        writeDst(p.dst, regs, readSrc(p.a, regs) | readSrc(p.b, regs));
        break;
      case PKind::AluEor:
        writeDst(p.dst, regs, readSrc(p.a, regs) ^ readSrc(p.b, regs));
        break;
      case PKind::AluLsl: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs, b >= 32 ? 0 : a << b);
        break;
      }
      case PKind::AluLsr: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs, b >= 32 ? 0 : a >> b);
        break;
      }
      case PKind::AluAsr: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs,
                 b >= 32 ? (static_cast<int32_t>(a) < 0 ? ~0u : 0)
                         : static_cast<uint32_t>(
                               static_cast<int32_t>(a) >> b));
        break;
      }
      case PKind::Mul:
        writeDst(p.dst, regs, readSrc(p.a, regs) * readSrc(p.b, regs));
        break;
      case PKind::Div: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        if (b == 0) {
            flushIters(*mp, iters);
            commitPrefix(*mp, i);
            applyContrib(p.contrib);
            ++counters_.instructions;
            ++executed_;
            fatal("machine division by zero");
        }
        writeDst(p.dst, regs,
                 p.aux ? static_cast<uint32_t>(static_cast<int32_t>(a) /
                                               static_cast<int32_t>(b))
                       : a / b);
        break;
      }
      case PKind::Mov:
        writeDst(p.dst, regs, readSrc(p.a, regs));
        break;
      case PKind::MovCond:
        if (condHolds(p.cond)) {
            if (!p.a.isImm) {
                if (p.a.mask == 0xff)
                    ++counters_.rfRead8;
                else
                    ++counters_.rfRead32;
            }
            writeDst(p.dst, regs, readSrc(p.a, regs));
            if (p.dst.mask == 0xff)
                ++counters_.rfWrite8;
            else
                ++counters_.rfWrite32;
        }
        break;
      case PKind::Mvn:
        writeDst(p.dst, regs, ~readSrc(p.a, regs));
        break;
      case PKind::Movw:
        writeDst(p.dst, regs, p.a.imm);
        break;
      case PKind::Movt: {
        uint32_t lo = regs[p.dst.reg] & 0xffff;
        writeDst(p.dst, regs, (p.a.imm << 16) | lo);
        break;
      }
      case PKind::Cmp:
        setFlagsSub(readSrc(p.a, regs), readSrc(p.b, regs), 32);
        break;
      case PKind::Cmp8:
        setFlagsSub(readSrc(p.a, regs) & 0xff, readSrc(p.b, regs) & 0xff,
                    8);
        break;
      case PKind::Setcc:
        writeDst(p.dst, regs, condHolds(p.cond) ? 1 : 0);
        break;
      case PKind::Sxth:
        writeDst(p.dst, regs,
                 static_cast<uint32_t>(sextFrom(readSrc(p.a, regs), 16)));
        break;
      case PKind::Uxth:
        writeDst(p.dst, regs, readSrc(p.a, regs) & 0xffff);
        break;
      case PKind::Uxt8:
        writeDst(p.dst, regs, readSrc(p.a, regs) & 0xff);
        break;
      case PKind::Sxt8:
        writeDst(p.dst, regs,
                 static_cast<uint32_t>(
                     sextFrom(readSrc(p.a, regs) & 0xff, 8)));
        break;
      case PKind::Load: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        uint32_t stall = mem_.data(addr, false);
        writeDst(p.dst, regs, loadData(addr, p.aux));
        if (stall)
            return divergeLoadMiss(*mp, i, iters, entry, stall);
        break;
      }
      case PKind::LoadSpec: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        uint32_t stall = mem_.data(addr, false);
        uint32_t v = loadData(addr, p.aux);
        if (v > 0xff)
            return diverge(*mp, i, iters, entry, stall + kMisspecPenalty,
                           true);
        writeDst(p.dst, regs, v);
        if (stall)
            return divergeLoadMiss(*mp, i, iters, entry, stall);
        break;
      }
      case PKind::Store: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        uint32_t stall = mem_.data(addr, true);
        storeData(addr, readSrc(p.dst, regs), p.aux);
        if (stall) // Store misses advance the cycle itself.
            return diverge(*mp, i, iters, entry, stall, false);
        break;
      }
      case PKind::Add8: case PKind::Sub8: {
        uint32_t a = readSrc(p.a, regs) & 0xff;
        uint32_t b = readSrc(p.b, regs) & 0xff;
        uint32_t v;
        bool misspec;
        if (p.kind == PKind::Add8) {
            uint32_t full = a + b;
            misspec = p.aux && full > 0xff;
            v = full & 0xff;
        } else {
            misspec = p.aux && a < b;
            v = (a - b) & 0xff;
        }
        if (misspec)
            return diverge(*mp, i, iters, entry, kMisspecPenalty, true);
        writeDst(p.dst, regs, v);
        break;
      }
      case PKind::Logic8And:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) & readSrc(p.b, regs)) & 0xff);
        break;
      case PKind::Logic8Orr:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) | readSrc(p.b, regs)) & 0xff);
        break;
      case PKind::Logic8Eor:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) ^ readSrc(p.b, regs)) & 0xff);
        break;
      case PKind::Trn8: {
        uint32_t v = readSrc(p.a, regs);
        if (p.aux && v > 0xff)
            return diverge(*mp, i, iters, entry, kMisspecPenalty, true);
        writeDst(p.dst, regs, v & 0xff);
        break;
      }
      case PKind::Out:
        emitOut(readSrc(p.a, regs));
        break;
      case PKind::SetDelta:
        delta_ = p.a.imm;
        break;
      case PKind::Mode:
        classicMode_ = p.aux;
        break;
      case PKind::Nop:
        break;
      default:
        panic("replay: unexpected kind in memo body");
    }
    goto *retire(r);
  }

  op_end:
    // Clean body completion.
    cycle_ = entry + mp->bodyCycles;
    exitScoreboard(*mp, entry);

    if (mp->termIsBranch) {
        // Branch terminators complete inline: no execTerminator
        // dispatch (its static accounting already rides in the memo
        // delta). A taken backedge to our own start — the hot inner
        // loop — drops straight into the next iteration with no
        // run-loop dispatch, residency probe or per-iteration fetch
        // commit: residency cannot change between iterations (no
        // other I-line is touched), so only fuel and readiness
        // re-check.
        cycle_ += 1; // Terminator fetch (committed in the flush).
        executed_ += mp->len + 1;
        ++iters;
        const bool taken = condHolds(mp->backCond);
        if (prof_) {
            // The body at its memoized costs, then the terminator:
            // its fetch, plus the penalty when taken.
            feedBody(*mp, mp->len);
            prof_->onInst(mp->term, taken ? 1 + kBranchPenalty : 1);
        }
        if (taken) {
            ++counters_.takenBranches;
            cycle_ += kBranchPenalty;
            if (mp->selfBackedge) {
                entry = cycle_;
                if (executed_ + mp->fuelCost <= fuel_ && entryReady(*mp))
                    goto iterate;
                flushIters(*mp, iters);
                return mp->start; // Fuel/readiness: re-guard in run().
            }
            flushIters(*mp, iters);
            next = mp->termTarget;
            goto chain;
        }
        flushIters(*mp, iters);
        next = mp->term + 1; // Branch not taken.

      chain:
        // Block chaining: when the successor already has an eligible
        // memo and its entry guards hold, continue replaying it right
        // here — no dispatcher round trip. The run-level guards (no
        // counter tracks, Hardware policy) already hold in replay().
        {
            int32_t mi = memoIdx_[next];
            if (mi >= 0) {
                RunMemo &n = memos_[static_cast<size_t>(mi)];
                if (n.eligible && executed_ + n.fuelCost <= fuel_ &&
                    entryReady(n) && fetchGuard(n)) {
                    mp = &n;
                    entry = cycle_;
                    iters = 0;
                    goto iterate;
                }
            }
        }
        return next;
    }

    // Commit the whole body from the memo, then run the terminator.
    // Counter deltas (body + static terminator parts) are deferred —
    // one pendingReplays increment here, multiplied out at finish().
    commitFetches(*mp, 1);
    ++mp->pendingReplays;
    executed_ += mp->len;
    if (prof_)
        feedBody(*mp, mp->len);
    ++replayedRuns_;
    return execTerminator(*mp);
}

void
FastCore::feedBody(const RunMemo &m, uint32_t k)
{
    for (uint32_t j = 0; j < k; ++j)
        prof_->onInst(m.per[j].flat, m.per[j].cost);
}

uint32_t
FastCore::execTerminator(const RunMemo &m)
{
    const uint32_t idx = m.term;
    const PInst &p = pre_.insts()[idx];
    const uint64_t cycle_at_fetch = cycle_;
    cycle_ += 1; // Fetch: L1I hit, committed in bulk above.
    ++executed_;
    // Instruction and static contrib counts ride in the memo's
    // deferred delta.

    uint32_t next = idx + 1;
    switch (p.kind) {
      case PKind::Call:
        // BL: a raw lr write, no rf event, no scoreboard update.
        regs_[kRegLR] = prog_.addrOf(idx + 1);
        next = p.target;
        cycle_ += kBranchPenalty;
        break;
      case PKind::Ret: {
        uint32_t lr = regs_[kRegLR];
        cycle_ += kBranchPenalty;
        if (lr == MachProgram::kHaltAddr) {
            if (prof_)
                prof_->onInst(idx, cycle_ - cycle_at_fetch);
            finish(cycle_);
            halted_ = true;
            retVal_ = regs_[0];
            return idx;
        }
        next = prog_.indexOf(lr);
        break;
      }
      case PKind::Halt:
        if (prof_)
            prof_->onInst(idx, cycle_ - cycle_at_fetch);
        finish(cycle_);
        halted_ = true;
        retVal_ = regs_[0];
        return idx;
      default:
        panic("execTerminator: not a terminator");
    }
    if (prof_)
        prof_->onInst(idx, cycle_ - cycle_at_fetch);
    return next;
}

uint32_t
FastCore::slowStep(uint32_t idx)
{
    ++slowInsts_;
    if (++executed_ > fuel_)
        fatal("machine execution out of fuel (infinite loop?)");

    const PInst &p = pre_.insts()[idx];
    uint32_t *regs = regs_;
    const uint64_t cycle_at_fetch = cycle_;
    if (pendingFetches_)
        flushFetches();
    cycle_ += 1 + mem_.fetch(prog_.addrOf(idx));
    ++counters_.instructions;
    applyContrib(p.contrib);

    uint64_t ready = 0;
    for (uint32_t bits = p.readyMask; bits; bits &= bits - 1)
        ready = std::max(ready, readyAt_[__builtin_ctz(bits)]);
    if (ready > cycle_)
        cycle_ = ready;

    uint32_t next = idx + 1;
    bool wrote = false;
    uint64_t dst_ready = cycle_ + 1;

    auto misspeculate = [&]() {
        ++counters_.misspeculations;
        if (prof_)
            prof_->onMisspec(idx);
        next = idx + delta_ / kInstBytes;
        cycle_ += kMisspecPenalty;
    };

    switch (p.kind) {
      case PKind::AluAdd:
        writeDst(p.dst, regs,
                 readSrc(p.a, regs) + readSrc(p.b, regs));
        wrote = true;
        break;
      case PKind::AluSub:
        writeDst(p.dst, regs,
                 readSrc(p.a, regs) - readSrc(p.b, regs));
        wrote = true;
        break;
      case PKind::AluAnd:
        writeDst(p.dst, regs,
                 readSrc(p.a, regs) & readSrc(p.b, regs));
        wrote = true;
        break;
      case PKind::AluOrr:
        writeDst(p.dst, regs,
                 readSrc(p.a, regs) | readSrc(p.b, regs));
        wrote = true;
        break;
      case PKind::AluEor:
        writeDst(p.dst, regs,
                 readSrc(p.a, regs) ^ readSrc(p.b, regs));
        wrote = true;
        break;
      case PKind::AluLsl: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs, b >= 32 ? 0 : a << b);
        wrote = true;
        break;
      }
      case PKind::AluLsr: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs, b >= 32 ? 0 : a >> b);
        wrote = true;
        break;
      }
      case PKind::AluAsr: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        writeDst(p.dst, regs,
                 b >= 32 ? (static_cast<int32_t>(a) < 0 ? ~0u : 0)
                         : static_cast<uint32_t>(
                               static_cast<int32_t>(a) >> b));
        wrote = true;
        break;
      }
      case PKind::Mul:
        writeDst(p.dst, regs,
                 readSrc(p.a, regs) * readSrc(p.b, regs));
        wrote = true;
        dst_ready = cycle_ + p.latency;
        break;
      case PKind::Div: {
        uint32_t a = readSrc(p.a, regs), b = readSrc(p.b, regs);
        if (b == 0)
            fatal("machine division by zero");
        writeDst(p.dst, regs,
                 p.aux ? static_cast<uint32_t>(
                             static_cast<int32_t>(a) /
                             static_cast<int32_t>(b))
                       : a / b);
        wrote = true;
        dst_ready = cycle_ + p.latency;
        break;
      }
      case PKind::Mov:
        writeDst(p.dst, regs, readSrc(p.a, regs));
        wrote = true;
        break;
      case PKind::MovCond:
        if (condHolds(p.cond)) {
            if (!p.a.isImm) {
                if (p.a.mask == 0xff)
                    ++counters_.rfRead8;
                else
                    ++counters_.rfRead32;
            }
            writeDst(p.dst, regs, readSrc(p.a, regs));
            if (p.dst.mask == 0xff)
                ++counters_.rfWrite8;
            else
                ++counters_.rfWrite32;
            wrote = true;
        }
        break;
      case PKind::Mvn:
        writeDst(p.dst, regs, ~readSrc(p.a, regs));
        wrote = true;
        break;
      case PKind::Movw:
        writeDst(p.dst, regs, p.a.imm);
        wrote = true;
        break;
      case PKind::Movt: {
        uint32_t lo = regs[p.dst.reg] & 0xffff;
        writeDst(p.dst, regs, (p.a.imm << 16) | lo);
        wrote = true;
        break;
      }
      case PKind::Cmp:
        setFlagsSub(readSrc(p.a, regs), readSrc(p.b, regs), 32);
        break;
      case PKind::Cmp8:
        setFlagsSub(readSrc(p.a, regs) & 0xff,
                    readSrc(p.b, regs) & 0xff, 8);
        break;
      case PKind::Setcc:
        writeDst(p.dst, regs, condHolds(p.cond) ? 1 : 0);
        wrote = true;
        break;
      case PKind::Sxth:
        writeDst(p.dst, regs,
                 static_cast<uint32_t>(
                     sextFrom(readSrc(p.a, regs), 16)));
        wrote = true;
        break;
      case PKind::Uxth:
        writeDst(p.dst, regs, readSrc(p.a, regs) & 0xffff);
        wrote = true;
        break;
      case PKind::Uxt8:
        writeDst(p.dst, regs, readSrc(p.a, regs) & 0xff);
        wrote = true;
        break;
      case PKind::Sxt8:
        writeDst(p.dst, regs,
                 static_cast<uint32_t>(
                     sextFrom(readSrc(p.a, regs) & 0xff, 8)));
        wrote = true;
        break;
      case PKind::Load: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        uint32_t stall = mem_.data(addr, false);
        writeDst(p.dst, regs, loadData(addr, p.aux));
        wrote = true;
        dst_ready = cycle_ + p.latency + stall;
        break;
      }
      case PKind::LoadSpec: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        uint32_t stall = mem_.data(addr, false);
        uint32_t v = loadData(addr, p.aux);
        if (v > 0xff || shouldForce()) {
            cycle_ += stall;
            misspeculate();
            break;
        }
        writeDst(p.dst, regs, v);
        wrote = true;
        dst_ready = cycle_ + p.latency + stall;
        break;
      }
      case PKind::Store: {
        uint32_t addr = readSrc(p.a, regs) + readSrc(p.b, regs);
        cycle_ += mem_.data(addr, true);
        storeData(addr, readSrc(p.dst, regs), p.aux);
        break;
      }
      case PKind::Add8: {
        uint32_t a = readSrc(p.a, regs) & 0xff;
        uint32_t b = readSrc(p.b, regs) & 0xff;
        uint32_t full = a + b;
        if (p.aux && (full > 0xff || shouldForce())) {
            misspeculate();
            break;
        }
        writeDst(p.dst, regs, full & 0xff);
        wrote = true;
        break;
      }
      case PKind::Sub8: {
        uint32_t a = readSrc(p.a, regs) & 0xff;
        uint32_t b = readSrc(p.b, regs) & 0xff;
        if (p.aux && (a < b || shouldForce())) {
            misspeculate();
            break;
        }
        writeDst(p.dst, regs, (a - b) & 0xff);
        wrote = true;
        break;
      }
      case PKind::Logic8And:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) & readSrc(p.b, regs)) & 0xff);
        wrote = true;
        break;
      case PKind::Logic8Orr:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) | readSrc(p.b, regs)) & 0xff);
        wrote = true;
        break;
      case PKind::Logic8Eor:
        writeDst(p.dst, regs,
                 (readSrc(p.a, regs) ^ readSrc(p.b, regs)) & 0xff);
        wrote = true;
        break;
      case PKind::Trn8: {
        uint32_t v = readSrc(p.a, regs);
        if (p.aux && (v > 0xff || shouldForce())) {
            misspeculate();
            break;
        }
        writeDst(p.dst, regs, v & 0xff);
        wrote = true;
        break;
      }
      case PKind::Branch:
        if (condHolds(p.cond)) {
            ++counters_.takenBranches;
            next = p.target;
            cycle_ += kBranchPenalty;
        }
        break;
      case PKind::Call:
        regs_[kRegLR] = prog_.addrOf(idx + 1);
        next = p.target;
        cycle_ += kBranchPenalty;
        break;
      case PKind::Ret: {
        uint32_t lr = regs_[kRegLR];
        cycle_ += kBranchPenalty;
        if (lr == MachProgram::kHaltAddr) {
            if (prof_)
                prof_->onInst(idx, cycle_ - cycle_at_fetch);
            finish(cycle_);
            if (tracks_)
                tracks_->finish(counters_, mem_, cycle_);
            halted_ = true;
            retVal_ = regs_[0];
            return idx;
        }
        next = prog_.indexOf(lr);
        break;
      }
      case PKind::Out:
        emitOut(readSrc(p.a, regs));
        break;
      case PKind::SetDelta:
        delta_ = p.a.imm;
        break;
      case PKind::Mode:
        classicMode_ = p.aux;
        break;
      case PKind::Nop:
        break;
      case PKind::Halt:
        if (prof_)
            prof_->onInst(idx, cycle_ - cycle_at_fetch);
        finish(cycle_);
        if (tracks_)
            tracks_->finish(counters_, mem_, cycle_);
        halted_ = true;
        retVal_ = regs_[0];
        return idx;
      case PKind::Bad:
        panic("readOpnd: unallocated operand");
    }

    if (wrote) {
        readyAt_[p.dst.reg] = dst_ready;
        maxReady_ = std::max(maxReady_, dst_ready);
        applyDstWrite(p.dstWrite); // MovCond accounted its own.
    }
    if (prof_)
        prof_->onInst(idx, cycle_ - cycle_at_fetch);
    if (tracks_)
        tracks_->onRetire(counters_, mem_, cycle_);
    return next;
}

uint32_t
FastCore::run(const std::vector<uint32_t> &args)
{
    trace::Span span("core.run", "execute");
    bsAssert(args.size() <= 4, "run: more than 4 arguments");
    for (size_t i = 0; i < args.size(); ++i)
        regs_[i] = args[i];
    regs_[kRegLR] = MachProgram::kHaltAddr;

    cycle_ = 0;
    executed_ = 0;
    halted_ = false;
    retVal_ = 0;
    const uint32_t size = static_cast<uint32_t>(pre_.size());

    // A counter-track emitter samples at per-retire granularity;
    // bulk replay would shift its window boundaries, so tracing runs
    // stay on the cycle-accurate path. Non-Hardware misspec policies
    // likewise bypass replay: a memo bakes in that no check in the
    // body fired. Such runs build no memos either.
    const bool may_replay =
        !tracks_ && policy_ == MisspecPolicy::Hardware;
    uint32_t idx = 0;
    for (;;) {
        if (idx >= size)
            fatal(strFormat("PC out of code range: index %u", idx));
        RunMemo *m = may_replay ? memoFor(idx) : nullptr;
        if (m && m->eligible && executed_ + m->fuelCost <= fuel_ &&
            entryReady(*m) && fetchGuard(*m)) {
            idx = replay(*m);
        } else {
            idx = slowStep(idx);
        }
        if (halted_)
            return retVal_;
    }
}

} // namespace bitspec
