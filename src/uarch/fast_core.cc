#include "uarch/fast_core.h"

#include <algorithm>
#include <cstring>

#include "obs/attribution.h"
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

} // namespace

FastCore::FastCore(const PredecodedProgram &pre, const Module &m)
    : pre_(pre), prog_(pre.prog()), module_(m), dataMem_(kMemBytes, 0),
      memoIdx_(pre.size(), -1)
{
    // Every other member starts in its reset() state already.
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
    std::fill(dataMem_.begin(), dataMem_.end(), 0);
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
    // Memos survive: they depend only on the immutable pre-decoded
    // code, not on run state. Pending replay counts belong to the run
    // being discarded (nonzero only after a fatal), so drop them.
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
    memoIdx_.assign(pre_.size(), -1);
    memos_.clear();
}

bool
FastCore::condHolds(Cond c) const
{
    switch (c) {
      case Cond::AL: return true;
      case Cond::EQ: return flags_.z;
      case Cond::NE: return !flags_.z;
      case Cond::LO: return !flags_.c;
      case Cond::LS: return !flags_.c || flags_.z;
      case Cond::HI: return flags_.c && !flags_.z;
      case Cond::HS: return flags_.c;
      case Cond::LT: return flags_.n != flags_.v;
      case Cond::LE: return flags_.z || flags_.n != flags_.v;
      case Cond::GT: return !flags_.z && flags_.n == flags_.v;
      case Cond::GE: return flags_.n == flags_.v;
    }
    panic("condHolds: bad cond");
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
    RunMemo m;
    m.start = start;
    const std::vector<PInst> &insts = pre_.insts();
    const uint32_t size = static_cast<uint32_t>(insts.size());

    uint64_t rel = 0;           // Cycle offset from run entry.
    uint64_t relReady[16] = {}; // Scoreboard offsets.
    uint16_t writtenMask = 0;
    uint32_t maxReadyOff = 0;

    uint32_t i = start;
    for (;; ++i) {
        if (i >= size)
            return m; // Ran off the code: slow path raises the fatal.
        const PInst &p = insts[i];
        if (isTerminator(p.kind))
            break;
        if (p.kind == PKind::Bad || i - start >= kMaxRunLen)
            return m;

        RunMemo::PerInst pi;
        pi.cycBefore = static_cast<uint32_t>(rel);
        rel += 1; // Fetch, assumed L1I hit (entry guard).

        // In-order issue stall under the schedule's entry assumption:
        // registers not yet written in-run are ready at entry.
        m.entryReadyMask |=
            static_cast<uint16_t>(p.readyMask & ~writtenMask);
        uint64_t ready = 0;
        for (uint32_t bits = p.readyMask; bits; bits &= bits - 1) {
            uint64_t r =
                relReady[__builtin_ctz(bits)];
            ready = std::max(ready, r);
        }
        if (ready > rel)
            rel = ready;
        pi.issueOff = static_cast<uint32_t>(rel);

        if (p.dstWrite) {
            pi.writeReg = static_cast<uint8_t>(p.dst.reg);
            pi.readyOff = pi.issueOff + p.latency;
            relReady[p.dst.reg] = pi.readyOff;
            writtenMask |= static_cast<uint16_t>(1u << p.dst.reg);
            maxReadyOff = std::max(maxReadyOff, pi.readyOff);
        } else if (p.kind == PKind::MovCond) {
            // The write commits only when the condition holds, so dst
            // stays out of writtenMask (a false condition leaves the
            // entry-time value live) — but issue+1 is schedule-exact
            // either way: dst readiness was consulted at issue, so
            // both candidate values are <= any later consult.
            relReady[p.dst.reg] = rel + 1;
            maxReadyOff = std::max(maxReadyOff,
                                   static_cast<uint32_t>(rel + 1));
        }

        if (pi.readyOff > 0xffff)
            return m; // ROp::readyOff overflow: slow path (unseen).

        addContrib(m.delta, p.contrib);
        if (p.dstWrite == 1)
            ++m.delta.rfWrite32;
        else if (p.dstWrite == 2)
            ++m.delta.rfWrite8;
        ++m.delta.instructions;
        m.per.push_back(pi);
        m.ops.push_back(translateOp(p, pi));
    }

    // The terminator always retires after a clean body replay, so its
    // static contribution (branches/calls/instruction) rides in the
    // deferred delta too; only a conditional branch's takenBranches is
    // dynamic and counted live in execTerminator.
    addContrib(m.delta, insts[i].contrib);
    ++m.delta.instructions;

    m.termIsBranch = insts[i].kind == PKind::Branch;
    m.selfBackedge = m.termIsBranch && insts[i].target == start;
    m.backCond = insts[i].cond;
    m.termTarget = insts[i].target;

    m.len = i - start;
    m.bodyCycles = rel;
    m.maxReadyOff = maxReadyOff;
    m.fuelCost = m.len + 1;
    m.fetchFirst = prog_.addrOf(start);
    m.fetchLast = prog_.addrOf(i);
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
FastCore::translateOp(const PInst &p, const RunMemo::PerInst &pi)
{
    using ROp = RunMemo::ROp;
    ROp r;
    r.writeReg = pi.writeReg;
    r.readyOff = static_cast<uint16_t>(pi.readyOff);
    r.dst = p.dst.reg;
    r.a = p.a.reg;
    r.b = p.b.reg;

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
        if (!dstFull)
            break;
        if (aR) {
            r.op = ROp::kMovR;
        } else if (aI) {
            r.op = ROp::kMovI;
            r.imm = p.a.imm;
        }
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
      case PKind::Uxt8:
        if (dstFull && aR)
            r.op = ROp::kUxt8;
        break;
      case PKind::Sxt8:
        if (dstFull && aR)
            r.op = ROp::kSxt8;
        break;
      case PKind::Load:
        // Word loads with full-register addressing: the dominant
        // generic op left on hot paths. Sub-word and slice loads stay
        // Generic.
        if (!dstFull || p.aux != 4)
            break;
        if (aR && bR) {
            r.op = ROp::kLoadWRR;
        } else if (aR && bI) {
            r.op = ROp::kLoadWRI;
            r.imm = p.b.imm;
        } else if (aI && bR) {
            r.op = ROp::kLoadWRI;
            r.a = p.b.reg;
            r.imm = p.a.imm;
        }
        break;
      default: // Memory, 8-bit slice, conditional, rare: Generic.
        break;
    }
    return r;
}

FastCore::RunMemo &
FastCore::memoAt(uint32_t idx)
{
    int32_t mi = memoIdx_[idx];
    if (mi < 0) {
        memos_.push_back(buildMemo(idx));
        mi = static_cast<int32_t>(memos_.size()) - 1;
        memoIdx_[idx] = mi;
    }
    return memos_[static_cast<size_t>(mi)];
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

void
FastCore::commitPrefix(const RunMemo &m, uint32_t k)
{
    // The k body instructions retired plus the diverging one were all
    // fetched; their lines are resident (entry guard), so the fetch
    // sequence commits in bulk. L1I traffic never reaches L2 here, so
    // committing after the already-performed D-accesses leaves the
    // hierarchy exactly as per-instruction fetches would.
    mem_.fetchRangeCommit(m.fetchFirst, prog_.addrOf(m.start + k));
    const PInst *insts = pre_.insts().data() + m.start;
    for (uint32_t j = 0; j < k; ++j) {
        applyContrib(insts[j].contrib);
        if (insts[j].kind != PKind::MovCond)
            applyDstWrite(insts[j].dstWrite);
    }
    counters_.instructions += k;
    executed_ += k;
    if (attr_)
        for (uint32_t j = 0; j < k; ++j)
            attr_->onInst(m.start + j, m.per[j].cost);
    if (prof_)
        for (uint32_t j = 0; j < k; ++j)
            prof_->onInst(m.start + j, m.per[j].cost);
    // Upper bound over the prefix's scoreboard writes (readyAt_ is
    // exact — the replay loop updated it per write).
    maxReady_ = std::max(maxReady_, cycle_ + m.maxReadyOff);
}

uint32_t
FastCore::retireDiverged(const RunMemo &m, uint32_t i, bool misspec,
                         uint64_t cost, uint32_t next)
{
    const uint32_t idx = m.start + i;
    applyContrib(pre_.insts()[idx].contrib);
    ++counters_.instructions;
    ++executed_;
    if (misspec) {
        ++counters_.misspeculations;
        if (attr_)
            attr_->onMisspec(idx);
        if (prof_)
            prof_->onMisspec(idx);
    }
    if (attr_)
        attr_->onInst(idx, cost);
    if (prof_)
        prof_->onInst(idx, cost);
    return next;
}

bool
FastCore::fetchGuard(RunMemo &m)
{
    if (m.pin.cnt && m.pin.gen == mem_.l1iFillGen())
        return true;
    if (!mem_.fetchRangeResident(m.fetchFirst, m.fetchLast))
        return false;
    mem_.fetchRangePin(m.fetchFirst, m.fetchLast, m.pin);
    return true;
}

void
FastCore::commitFetches(RunMemo &m, uint64_t repeat)
{
    // No I-fill can intervene between the guard and this commit (the
    // body performs only D-side accesses), but re-checking is one
    // compare and keeps the pin self-validating.
    if (m.pin.cnt && m.pin.gen == mem_.l1iFillGen())
        mem_.fetchCommitPinned(m.pin, repeat);
    else
        mem_.fetchRangeCommit(m.fetchFirst, m.fetchLast, repeat);
}

void
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
    RunMemo *mp = &m0; // Re-pointed when block chaining continues.
    uint64_t entry = cycle_;
    const PInst *insts = pre_.insts().data() + mp->start;
    uint32_t *regs = regs_;
    // Completed in-replay iterations of a self-backedge loop, bulk
    // committed by flushIters on every exit path.
    uint64_t iters = 0;
    uint32_t next = 0; // Successor index for the chaining exit.

  iterate:
    for (uint32_t i = 0; i < mp->len; ++i) {
        const RunMemo::ROp &r = mp->ops[i];
        switch (r.op) {
          case RunMemo::ROp::kAddRR:
            regs[r.dst] = regs[r.a] + regs[r.b];
            break;
          case RunMemo::ROp::kAddRI:
            regs[r.dst] = regs[r.a] + r.imm;
            break;
          case RunMemo::ROp::kSubRR:
            regs[r.dst] = regs[r.a] - regs[r.b];
            break;
          case RunMemo::ROp::kSubRI:
            regs[r.dst] = regs[r.a] - r.imm;
            break;
          case RunMemo::ROp::kSubIR:
            regs[r.dst] = r.imm - regs[r.a];
            break;
          case RunMemo::ROp::kAndRR:
            regs[r.dst] = regs[r.a] & regs[r.b];
            break;
          case RunMemo::ROp::kAndRI:
            regs[r.dst] = regs[r.a] & r.imm;
            break;
          case RunMemo::ROp::kOrrRR:
            regs[r.dst] = regs[r.a] | regs[r.b];
            break;
          case RunMemo::ROp::kOrrRI:
            regs[r.dst] = regs[r.a] | r.imm;
            break;
          case RunMemo::ROp::kEorRR:
            regs[r.dst] = regs[r.a] ^ regs[r.b];
            break;
          case RunMemo::ROp::kEorRI:
            regs[r.dst] = regs[r.a] ^ r.imm;
            break;
          case RunMemo::ROp::kLslRR: {
            uint32_t s = regs[r.b];
            regs[r.dst] = s >= 32 ? 0 : regs[r.a] << s;
            break;
          }
          case RunMemo::ROp::kLslRI:
            regs[r.dst] = r.imm >= 32 ? 0 : regs[r.a] << r.imm;
            break;
          case RunMemo::ROp::kLsrRR: {
            uint32_t s = regs[r.b];
            regs[r.dst] = s >= 32 ? 0 : regs[r.a] >> s;
            break;
          }
          case RunMemo::ROp::kLsrRI:
            regs[r.dst] = r.imm >= 32 ? 0 : regs[r.a] >> r.imm;
            break;
          case RunMemo::ROp::kAsrRR: {
            uint32_t s = regs[r.b];
            int32_t a = static_cast<int32_t>(regs[r.a]);
            regs[r.dst] = s >= 32
                              ? (a < 0 ? ~0u : 0)
                              : static_cast<uint32_t>(a >> s);
            break;
          }
          case RunMemo::ROp::kAsrRI: {
            int32_t a = static_cast<int32_t>(regs[r.a]);
            regs[r.dst] = r.imm >= 32
                              ? (a < 0 ? ~0u : 0)
                              : static_cast<uint32_t>(a >> r.imm);
            break;
          }
          case RunMemo::ROp::kMulRR:
            regs[r.dst] = regs[r.a] * regs[r.b];
            break;
          case RunMemo::ROp::kMulRI:
            regs[r.dst] = regs[r.a] * r.imm;
            break;
          case RunMemo::ROp::kMovR:
            regs[r.dst] = regs[r.a];
            break;
          case RunMemo::ROp::kMovI:
            regs[r.dst] = r.imm;
            break;
          case RunMemo::ROp::kMvnR:
            regs[r.dst] = ~regs[r.a];
            break;
          case RunMemo::ROp::kMovtI:
            regs[r.dst] = (r.imm << 16) | (regs[r.dst] & 0xffff);
            break;
          case RunMemo::ROp::kCmpRR:
            setFlagsSub(regs[r.a], regs[r.b], 32);
            break;
          case RunMemo::ROp::kCmpRI:
            setFlagsSub(regs[r.a], r.imm, 32);
            break;
          case RunMemo::ROp::kCmpIR:
            setFlagsSub(r.imm, regs[r.b], 32);
            break;
          case RunMemo::ROp::kSetcc:
            regs[r.dst] =
                condHolds(static_cast<Cond>(r.imm)) ? 1 : 0;
            break;
          case RunMemo::ROp::kSxth:
            regs[r.dst] = static_cast<uint32_t>(
                sextFrom(regs[r.a], 16));
            break;
          case RunMemo::ROp::kUxth:
            regs[r.dst] = regs[r.a] & 0xffff;
            break;
          case RunMemo::ROp::kUxt8:
            regs[r.dst] = regs[r.a] & 0xff;
            break;
          case RunMemo::ROp::kSxt8:
            regs[r.dst] = static_cast<uint32_t>(
                sextFrom(regs[r.a] & 0xff, 8));
            break;
          case RunMemo::ROp::kLoadWRR:
          case RunMemo::ROp::kLoadWRI: {
            uint32_t addr =
                regs[r.a] + (r.op == RunMemo::ROp::kLoadWRR
                                 ? regs[r.b]
                                 : r.imm);
            uint32_t stall = mem_.data(addr, false);
            if (static_cast<uint64_t>(addr) + 4 > dataMem_.size())
                loadData(addr, 4); // Same out-of-bounds fatal.
            uint32_t v;
            std::memcpy(&v, dataMem_.data() + addr, 4);
            regs[r.dst] = v;
            if (stall) {
                // D-miss divergence, same protocol as the generic
                // Load below.
                const PInst &p = insts[i];
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                applyDstWrite(p.dstWrite);
                cycle_ = entry + mp->per[i].issueOff;
                uint64_t rdy = cycle_ + p.latency + stall;
                readyAt_[p.dst.reg] = rdy;
                maxReady_ = std::max(maxReady_, rdy);
                return retireDiverged(*mp, i, false, mp->per[i].cost,
                                      mp->start + i + 1);
            }
            break;
          }
          default: { // kGeneric: the original PInst handler.
        const PInst &p = insts[i];
        switch (p.kind) {
          case PKind::AluAdd:
            writeDst(p.dst, regs,
                     readSrc(p.a, regs) + readSrc(p.b, regs));
            break;
          case PKind::AluSub:
            writeDst(p.dst, regs,
                     readSrc(p.a, regs) - readSrc(p.b, regs));
            break;
          case PKind::AluAnd:
            writeDst(p.dst, regs,
                     readSrc(p.a, regs) & readSrc(p.b, regs));
            break;
          case PKind::AluOrr:
            writeDst(p.dst, regs,
                     readSrc(p.a, regs) | readSrc(p.b, regs));
            break;
          case PKind::AluEor:
            writeDst(p.dst, regs,
                     readSrc(p.a, regs) ^ readSrc(p.b, regs));
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
                     b >= 32
                         ? (static_cast<int32_t>(a) < 0 ? ~0u : 0)
                         : static_cast<uint32_t>(
                               static_cast<int32_t>(a) >> b));
            break;
          }
          case PKind::Mul:
            writeDst(p.dst, regs,
                     readSrc(p.a, regs) * readSrc(p.b, regs));
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
                     p.aux ? static_cast<uint32_t>(
                                 static_cast<int32_t>(a) /
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
                readyAt_[p.dst.reg] = entry + mp->per[i].issueOff + 1;
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
            setFlagsSub(readSrc(p.a, regs) & 0xff,
                        readSrc(p.b, regs) & 0xff, 8);
            break;
          case PKind::Setcc:
            writeDst(p.dst, regs, condHolds(p.cond) ? 1 : 0);
            break;
          case PKind::Sxth:
            writeDst(p.dst, regs,
                     static_cast<uint32_t>(
                         sextFrom(readSrc(p.a, regs), 16)));
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
            uint32_t addr =
                readSrc(p.a, regs) + readSrc(p.b, regs);
            uint32_t stall = mem_.data(addr, false);
            writeDst(p.dst, regs, loadData(addr, p.aux));
            if (stall) {
                // D-miss: the schedule's no-stall dst readiness is
                // wrong from here on — commit the prefix and resume
                // cycle-accurately after this instruction.
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                applyDstWrite(p.dstWrite);
                cycle_ = entry + mp->per[i].issueOff;
                uint64_t rdy = cycle_ + p.latency + stall;
                readyAt_[p.dst.reg] = rdy;
                maxReady_ = std::max(maxReady_, rdy);
                return retireDiverged(*mp, i, false, mp->per[i].cost,
                                      mp->start + i + 1);
            }
            break;
          }
          case PKind::LoadSpec: {
            uint32_t addr =
                readSrc(p.a, regs) + readSrc(p.b, regs);
            uint32_t stall = mem_.data(addr, false);
            uint32_t v = loadData(addr, p.aux);
            if (v > 0xff) {
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                cycle_ = entry + mp->per[i].issueOff + stall +
                         kMisspecPenalty;
                return retireDiverged(
                    *mp, i, true,
                    cycle_ - (entry + mp->per[i].cycBefore),
                    mp->start + i + delta_ / kInstBytes);
            }
            writeDst(p.dst, regs, v);
            if (stall) {
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                applyDstWrite(p.dstWrite);
                cycle_ = entry + mp->per[i].issueOff;
                uint64_t rdy = cycle_ + p.latency + stall;
                readyAt_[p.dst.reg] = rdy;
                maxReady_ = std::max(maxReady_, rdy);
                return retireDiverged(*mp, i, false, mp->per[i].cost,
                                      mp->start + i + 1);
            }
            break;
          }
          case PKind::Store: {
            uint32_t addr =
                readSrc(p.a, regs) + readSrc(p.b, regs);
            uint32_t stall = mem_.data(addr, true);
            storeData(addr, readSrc(p.dst, regs), p.aux);
            if (stall) {
                // Store misses advance the cycle itself; diverge.
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                cycle_ = entry + mp->per[i].issueOff + stall;
                return retireDiverged(
                    *mp, i, false,
                    cycle_ - (entry + mp->per[i].cycBefore),
                    mp->start + i + 1);
            }
            break;
          }
          case PKind::Add8: case PKind::Sub8: {
            uint32_t a = readSrc(p.a, regs) & 0xff;
            uint32_t b = readSrc(p.b, regs) & 0xff;
            uint32_t r;
            bool misspec;
            if (p.kind == PKind::Add8) {
                uint32_t full = a + b;
                misspec = p.aux && full > 0xff;
                r = full & 0xff;
            } else {
                misspec = p.aux && a < b;
                r = (a - b) & 0xff;
            }
            if (misspec) {
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                cycle_ =
                    entry + mp->per[i].issueOff + kMisspecPenalty;
                return retireDiverged(
                    *mp, i, true,
                    cycle_ - (entry + mp->per[i].cycBefore),
                    mp->start + i + delta_ / kInstBytes);
            }
            writeDst(p.dst, regs, r);
            break;
          }
          case PKind::Logic8And:
            writeDst(p.dst, regs,
                     (readSrc(p.a, regs) & readSrc(p.b, regs)) &
                         0xff);
            break;
          case PKind::Logic8Orr:
            writeDst(p.dst, regs,
                     (readSrc(p.a, regs) | readSrc(p.b, regs)) &
                         0xff);
            break;
          case PKind::Logic8Eor:
            writeDst(p.dst, regs,
                     (readSrc(p.a, regs) ^ readSrc(p.b, regs)) &
                         0xff);
            break;
          case PKind::Trn8: {
            uint32_t v = readSrc(p.a, regs);
            if (p.aux && v > 0xff) {
                flushIters(*mp, iters);
                commitPrefix(*mp, i);
                cycle_ =
                    entry + mp->per[i].issueOff + kMisspecPenalty;
                return retireDiverged(
                    *mp, i, true,
                    cycle_ - (entry + mp->per[i].cycBefore),
                    mp->start + i + delta_ / kInstBytes);
            }
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
        break;
          }
        }
        // Branchless: no-write instructions target the scratch slot.
        readyAt_[r.writeReg] = entry + r.readyOff;
    }

    // Clean body completion.
    cycle_ = entry + mp->bodyCycles;
    maxReady_ = std::max(maxReady_, entry + mp->maxReadyOff);

    if (mp->termIsBranch && !attr_ && !prof_) {
        // Branch terminators complete inline: no execTerminator
        // dispatch (its static accounting already rides in the memo
        // delta). A taken backedge to our own start — the hot inner
        // loop — drops straight into the next iteration with no
        // run-loop dispatch, residency probe or per-iteration fetch
        // commit: residency cannot change between iterations (no
        // other I-line is touched), so only fuel and readiness
        // re-check. With a sink attached we take the standard path
        // below so the per-instruction feed keeps its exact order.
        cycle_ += 1; // Terminator fetch (committed in the flush).
        executed_ += mp->len + 1;
        ++iters;
        if (condHolds(mp->backCond)) {
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
        next = mp->start + mp->len + 1; // Branch not taken.

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
                    insts = pre_.insts().data() + mp->start;
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
    if (attr_)
        for (uint32_t i = 0; i < mp->len; ++i)
            attr_->onInst(mp->start + i, mp->per[i].cost);
    if (prof_)
        for (uint32_t i = 0; i < mp->len; ++i)
            prof_->onInst(mp->start + i, mp->per[i].cost);
    ++replayedRuns_;
    return execTerminator(*mp);
}

uint32_t
FastCore::execTerminator(const RunMemo &m)
{
    const uint32_t idx = m.start + m.len;
    const PInst &p = pre_.insts()[idx];
    const uint64_t cycle_at_fetch = cycle_;
    cycle_ += 1; // Fetch: L1I hit, committed in bulk above.
    ++executed_;
    // Instruction and static contrib counts ride in the memo's
    // deferred delta; only the dynamic takenBranches below is live.

    uint32_t next = idx + 1;
    switch (p.kind) {
      case PKind::Branch:
        if (condHolds(p.cond)) {
            ++counters_.takenBranches;
            next = p.target;
            cycle_ += kBranchPenalty;
        }
        break;
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
            if (attr_)
                attr_->onInst(idx, cycle_ - cycle_at_fetch);
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
        if (attr_)
            attr_->onInst(idx, cycle_ - cycle_at_fetch);
        if (prof_)
            prof_->onInst(idx, cycle_ - cycle_at_fetch);
        finish(cycle_);
        halted_ = true;
        retVal_ = regs_[0];
        return idx;
      default:
        panic("execTerminator: not a terminator");
    }
    if (attr_)
        attr_->onInst(idx, cycle_ - cycle_at_fetch);
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
        if (attr_)
            attr_->onMisspec(idx);
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
            if (attr_)
                attr_->onInst(idx, cycle_ - cycle_at_fetch);
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
        if (attr_)
            attr_->onInst(idx, cycle_ - cycle_at_fetch);
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
    if (attr_)
        attr_->onInst(idx, cycle_ - cycle_at_fetch);
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
        RunMemo *m = may_replay ? &memoAt(idx) : nullptr;
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
