#include "interp/interpreter.h"

#include <algorithm>

#include "analysis/known_bits.h"
#include "interp/decode.h"
#include "obs/trace.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

constexpr unsigned kMaxCallDepth = 8192;

uint64_t
shiftLeft(uint64_t a, uint64_t amt, unsigned bits)
{
    if (amt >= bits)
        return 0;
    return truncTo(a << amt, bits);
}

uint64_t
shiftRightLogical(uint64_t a, uint64_t amt, unsigned bits)
{
    if (amt >= bits)
        return 0;
    return truncTo(a, bits) >> amt;
}

uint64_t
shiftRightArith(uint64_t a, uint64_t amt, unsigned bits)
{
    int64_t sa = static_cast<int64_t>(sextFrom(a, bits));
    if (amt >= bits)
        return truncTo(sa < 0 ? ~0ULL : 0, bits);
    return truncTo(static_cast<uint64_t>(sa >> amt), bits);
}

bool
evalCmp(CmpPred pred, uint64_t a, uint64_t b, unsigned bits)
{
    uint64_t ua = truncTo(a, bits), ub = truncTo(b, bits);
    int64_t sa = static_cast<int64_t>(sextFrom(a, bits));
    int64_t sb = static_cast<int64_t>(sextFrom(b, bits));
    switch (pred) {
      case CmpPred::EQ: return ua == ub;
      case CmpPred::NE: return ua != ub;
      case CmpPred::ULT: return ua < ub;
      case CmpPred::ULE: return ua <= ub;
      case CmpPred::UGT: return ua > ub;
      case CmpPred::UGE: return ua >= ub;
      case CmpPred::SLT: return sa < sb;
      case CmpPred::SLE: return sa <= sb;
      case CmpPred::SGT: return sa > sb;
      case CmpPred::SGE: return sa >= sb;
    }
    panic("evalCmp: bad predicate");
}

} // namespace

Interpreter::Interpreter(Module &m, size_t mem_bytes)
    : module_(m), mapping_(mem_bytes), memory_(mapping_.bytes())
{
    // The mapping reads as zeros and outputs and stats start empty:
    // only the globals need writing.
    module_.layoutGlobals();
    loadGlobals();
}

Interpreter::~Interpreter() = default;

void
Interpreter::reset()
{
    mapping_.zero();
    loadGlobals();
    output_.clear();
    stats_ = InterpStats{};
}

void
Interpreter::loadGlobals()
{
    for (const auto &g : module_.globals()) {
        uint32_t base = g->address();
        if (base + g->sizeBytes() > memory_.size())
            panic("global does not fit in memory: " + g->name());
        std::copy(g->data().begin(), g->data().end(),
                  memory_.begin() + base);
    }
}

void
Interpreter::invalidate()
{
    decodeCache_.clear();
    prof_.clear();
    profInst_.clear();
    staticBound_.clear();
    blockCells_.clear();
    blockOf_.clear();
}

uint64_t
Interpreter::loadMem(uint32_t addr, unsigned bits) const
{
    unsigned bytes = bits / 8;
    bsAssert(bytes >= 1 && bytes <= 8, "loadMem: bad width");
    // Compute the guard in 64 bits: addr + bytes wraps for addr near
    // UINT32_MAX and would let an out-of-bounds access through.
    if (static_cast<uint64_t>(addr) + bytes > memory_.size())
        fatal(strFormat("out-of-bounds load at 0x%x", addr));
    uint64_t v = 0;
    for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<uint64_t>(memory_[addr + b]) << (8 * b);
    return v;
}

void
Interpreter::storeMem(uint32_t addr, uint64_t value, unsigned bits)
{
    unsigned bytes = bits / 8;
    bsAssert(bytes >= 1 && bytes <= 8, "storeMem: bad width");
    if (static_cast<uint64_t>(addr) + bytes > memory_.size())
        fatal(strFormat("out-of-bounds store at 0x%x", addr));
    for (unsigned b = 0; b < bytes; ++b)
        memory_[addr + b] = static_cast<uint8_t>(value >> (8 * b));
}

const DecodedFunction &
Interpreter::decodedFor(Function *f)
{
    auto it = decodeCache_.find(f);
    if (it != decodeCache_.end())
        return *it->second;
    trace::Span span("interp.decode", "execute");
    span.arg("function", f->name());
    auto df = DecodedFunction::decode(
        f, static_cast<uint32_t>(profInst_.size()));
    for (const Instruction *inst : df->profiledInsts())
        profInst_.push_back(inst);
    prof_.resize(profInst_.size());
    if (boundsCheck_) {
        // Static ceilings are sound on every non-misspeculating path,
        // and misspeculating instructions never reach profileAssign.
        KnownBitsAnalysis kb(*f);
        for (const Instruction *inst : df->profiledInsts())
            staticBound_.push_back(
                requiredBits(kb.known(inst).hi));
    } else {
        staticBound_.resize(profInst_.size(), 64);
    }
    // Per-block profile cells are allocated eagerly (they are tiny)
    // so setBlockProfile can be toggled between runs without
    // re-decoding.
    df->setBlockBase(static_cast<uint32_t>(blockCells_.size()));
    blockCells_.resize(blockCells_.size() + df->numBlocks());
    for (uint32_t b = 0; b < df->numBlocks(); ++b)
        blockOf_.emplace_back(f, b);
    const DecodedFunction &ref = *df;
    decodeCache_.emplace(f, std::move(df));
    return ref;
}

void
Interpreter::boundsViolation(uint32_t id, unsigned bits) const
{
    const Instruction *inst = profInst_[id];
    fatal(strFormat(
        "known-bits soundness violation: %s%s produced a %u-bit value "
        "but the static bound is %u bits",
        opcodeName(inst->op()),
        inst->name().empty() ? ""
                             : (" %" + inst->name()).c_str(),
        bits, staticBound_[id]));
}

std::vector<Interpreter::ValueProfileEntry>
Interpreter::valueProfile() const
{
    std::vector<ValueProfileEntry> out;
    for (size_t i = 0; i < prof_.size(); ++i) {
        const ProfCell &c = prof_[i];
        if (c.count == 0)
            continue;
        out.push_back({profInst_[i], c.minBits, c.maxBits, c.sumBits,
                       c.count});
    }
    return out;
}

std::vector<Interpreter::ValueProfileEntry>
Interpreter::takeValueProfile()
{
    std::vector<ValueProfileEntry> out = valueProfile();
    std::fill(prof_.begin(), prof_.end(), ProfCell{});
    return out;
}

std::vector<Interpreter::BlockProfileEntry>
Interpreter::blockProfile() const
{
    std::vector<BlockProfileEntry> out;
    for (size_t i = 0; i < blockCells_.size(); ++i) {
        const BlockCell &c = blockCells_[i];
        if (c.entries == 0)
            continue;
        BlockProfileEntry e;
        e.function = blockOf_[i].first;
        e.blockIndex = blockOf_[i].second;
        auto it = decodeCache_.find(e.function);
        if (it != decodeCache_.end())
            e.blockName = it->second->blockName(e.blockIndex);
        e.entries = c.entries;
        e.insts = c.insts;
        e.misspecs = c.misspecs;
        out.push_back(std::move(e));
    }
    return out;
}

uint64_t
Interpreter::run(const std::string &fn, const std::vector<uint64_t> &args)
{
    trace::Span span("interp.run", "execute");
    span.arg("function", fn);
    Function *f = module_.getFunction(fn);
    if (!f)
        fatal("no such function: " + fn);
    dstackTop_ = 0;
    return callDecoded(f, args.data(), args.size(), 0);
}

uint64_t
Interpreter::outputChecksum() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : output_) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

uint64_t
Interpreter::callDecoded(Function *f, const uint64_t *args, size_t nargs,
                         unsigned depth)
{
    if (depth > kMaxCallDepth)
        fatal("call depth exceeded in " + f->name());
    const DecodedFunction &df = decodedFor(f);
    if (nargs != df.numArgs())
        panic("arity mismatch calling " + f->name());

    size_t base = dstackTop_;
    dstackTop_ = base + df.frameSize();
    if (dstack_.size() < dstackTop_)
        dstack_.resize(std::max<size_t>(dstackTop_, dstack_.size() * 2));
    std::fill(dstack_.begin() + base, dstack_.begin() + dstackTop_, 0);
    for (size_t i = 0; i < nargs; ++i)
        dstack_[base + i] = truncTo(args[i], df.argBits(i));

    uint64_t ret;
    const bool hooks = static_cast<bool>(onAssign);
    if (blockProfileEnabled_) {
        if (profileEnabled_)
            ret = hooks ? execDecoded<true, true, true>(df, base, depth)
                        : execDecoded<false, true, true>(df, base, depth);
        else
            ret = hooks
                      ? execDecoded<true, false, true>(df, base, depth)
                      : execDecoded<false, false, true>(df, base, depth);
    } else {
        if (profileEnabled_)
            ret = hooks
                      ? execDecoded<true, true, false>(df, base, depth)
                      : execDecoded<false, true, false>(df, base, depth);
        else
            ret = hooks
                      ? execDecoded<true, false, false>(df, base, depth)
                      : execDecoded<false, false, false>(df, base,
                                                         depth);
    }
    dstackTop_ = base;
    return ret;
}

template <bool kHooks, bool kProfile, bool kBlockProf>
uint64_t
Interpreter::execDecoded(const DecodedFunction &df, size_t base,
                         unsigned depth)
{
    Function *f = df.function();
    const DecodedOperand *pool = df.operands();
    const PhiMove *all_moves = df.phiMoves();
    uint64_t *fr = dstack_.data() + base;

    auto val = [&](const DecodedOperand &o) {
        return o.slot >= 0 ? fr[o.slot] : o.imm;
    };

    // The two per-instruction counters live in locals so the inner loop
    // touches no member state; they are flushed back at every exit from
    // straight-line execution (returns, recursive calls, hooks, fatal
    // paths) and reloaded after anything that may bump them elsewhere.
    uint64_t steps = stats_.steps;
    uint64_t assigns = stats_.intAssignments;
    const uint64_t fuel = fuel_;
    auto flushCounters = [&]() {
        stats_.steps = steps;
        stats_.intAssignments = assigns;
    };
    auto reloadCounters = [&]() {
        steps = stats_.steps;
        assigns = stats_.intAssignments;
    };

    uint32_t cur = df.entryIndex();
    uint32_t prev = DecodedFunction::kNoPred;

    for (;;) {
        const DecodedBlock &blk = df.block(cur);

        // Per-block heat cell for the current block; compiled out
        // entirely when the block profile is off.
        [[maybe_unused]] BlockCell *bc = nullptr;
        if constexpr (kBlockProf) {
            bc = blockCells_.data() + df.blockBase() + cur;
            ++bc->entries;
        }

        // Phase 1: the decode-time-sequentialised phi parallel copy
        // for the edge we arrived over.
        if (blk.hasPhis) {
            const PhiList *pl = df.findPhiList(blk, prev);
            if (!pl)
                panic("phi has no entry for predecessor " +
                      (prev != DecodedFunction::kNoPred
                           ? df.blockName(prev)
                           : std::string("<entry>")) +
                      " in " + df.blockName(cur));
            const PhiMove *m = all_moves + pl->begin;
            const PhiMove *mend = m + pl->count;
            for (; m != mend; ++m) {
                uint64_t v = truncTo(val(m->src), m->bits);
                fr[m->dst] = v;
                if (m->phi) {
                    ++steps;
                    ++assigns;
                    if constexpr (kBlockProf)
                        ++bc->insts;
                    if constexpr (kProfile)
                        profileAssign(m->profileId, requiredBits(v));
                    if constexpr (kHooks) {
                        flushCounters();
                        onAssign(m->phi, v);
                        reloadCounters();
                    }
                }
            }
        }

        // Phase 2: straight-line execution over the dense array.
        const DecodedInst *ip = df.insts() + blk.instBegin;
        const DecodedInst *iend = ip + blk.instCount;
        for (; ip != iend; ++ip) {
            const DecodedInst &di = *ip;
            if (++steps > fuel) {
                flushCounters();
                fatal("out of fuel (infinite loop?) in " + f->name());
            }
            if constexpr (kBlockProf)
                ++bc->insts;

            const DecodedOperand *ops = pool + di.opBegin;
            unsigned bits = di.bits;
            uint64_t result = 0;

            // Forcing-policy check, short-circuited after the
            // architectural condition: Random draws once per check
            // that does not fire on its own (the run freeze pins the
            // resulting streams).
            auto shouldForce = [&]() {
                if (!di.speculative || blk.region < 0)
                    return false;
                if (policy_ == MisspecPolicy::ForceFirst) {
                    uint64_t &flag = fr[df.forcedBase() + blk.region];
                    if (flag)
                        return false;
                    flag = 1;
                    return true;
                }
                if (policy_ == MisspecPolicy::Random)
                    return rng_.next() % 8 == 0;
                return false;
            };

            switch (di.op) {
              case Opcode::Add: {
                uint64_t a = val(ops[0]);
                uint64_t b = val(ops[1]);
                uint64_t full = truncTo(a, bits) + truncTo(b, bits);
                if (di.speculative &&
                    (full > lowMask(bits) || shouldForce()))
                    goto misspeculate;
                result = truncTo(full, bits);
                break;
              }
              case Opcode::Sub: {
                uint64_t a = truncTo(val(ops[0]), bits);
                uint64_t b = truncTo(val(ops[1]), bits);
                if (di.speculative && (a < b || shouldForce()))
                    goto misspeculate;
                result = truncTo(a - b, bits);
                break;
              }
              case Opcode::Mul:
                result = truncTo(val(ops[0]) * val(ops[1]), bits);
                break;
              case Opcode::UDiv: {
                uint64_t b = truncTo(val(ops[1]), bits);
                if (b == 0) {
                    flushCounters();
                    fatal("division by zero in " + f->name());
                }
                result = truncTo(val(ops[0]), bits) / b;
                break;
              }
              case Opcode::SDiv: {
                int64_t b =
                    static_cast<int64_t>(sextFrom(val(ops[1]), bits));
                if (b == 0) {
                    flushCounters();
                    fatal("division by zero in " + f->name());
                }
                int64_t a =
                    static_cast<int64_t>(sextFrom(val(ops[0]), bits));
                result = truncTo(static_cast<uint64_t>(a / b), bits);
                break;
              }
              case Opcode::URem: {
                uint64_t b = truncTo(val(ops[1]), bits);
                if (b == 0) {
                    flushCounters();
                    fatal("remainder by zero in " + f->name());
                }
                result = truncTo(val(ops[0]), bits) % b;
                break;
              }
              case Opcode::SRem: {
                int64_t b =
                    static_cast<int64_t>(sextFrom(val(ops[1]), bits));
                if (b == 0) {
                    flushCounters();
                    fatal("remainder by zero in " + f->name());
                }
                int64_t a =
                    static_cast<int64_t>(sextFrom(val(ops[0]), bits));
                result = truncTo(static_cast<uint64_t>(a % b), bits);
                break;
              }
              case Opcode::And:
                result = truncTo(val(ops[0]) & val(ops[1]), bits);
                if (di.speculative && shouldForce()) {
                    // Logic never misspeculates in hardware; forcing
                    // policies still exercise the handler path.
                    goto misspeculate;
                }
                break;
              case Opcode::Or:
                result = truncTo(val(ops[0]) | val(ops[1]), bits);
                break;
              case Opcode::Xor:
                result = truncTo(val(ops[0]) ^ val(ops[1]), bits);
                break;
              case Opcode::Shl:
                result = shiftLeft(val(ops[0]), val(ops[1]), bits);
                break;
              case Opcode::LShr:
                result =
                    shiftRightLogical(val(ops[0]), val(ops[1]), bits);
                break;
              case Opcode::AShr:
                result =
                    shiftRightArith(val(ops[0]), val(ops[1]), bits);
                break;
              case Opcode::ICmp:
                result = evalCmp(di.pred, val(ops[0]), val(ops[1]),
                                 di.auxBits)
                             ? 1
                             : 0;
                break;
              case Opcode::Select:
                result = truncTo(val(ops[0]) != 0 ? val(ops[1])
                                                  : val(ops[2]),
                                 bits);
                break;
              case Opcode::ZExt:
                result = zextFrom(val(ops[0]), di.auxBits);
                break;
              case Opcode::SExt:
                result =
                    truncTo(sextFrom(val(ops[0]), di.auxBits), bits);
                break;
              case Opcode::Trunc: {
                uint64_t v = truncTo(val(ops[0]), di.auxBits);
                if (di.speculative &&
                    (v > lowMask(bits) || shouldForce()))
                    goto misspeculate;
                result = truncTo(v, bits);
                break;
              }
              case Opcode::Load: {
                auto addr = static_cast<uint32_t>(val(ops[0]));
                if (di.speculative) {
                    uint64_t v = loadMem(addr, di.auxBits);
                    if (v > lowMask(bits) || shouldForce())
                        goto misspeculate;
                    result = v;
                } else {
                    result = loadMem(addr, bits);
                }
                break;
              }
              case Opcode::Store: {
                auto addr = static_cast<uint32_t>(val(ops[0]));
                storeMem(addr, truncTo(val(ops[1]), di.auxBits),
                         di.auxBits);
                break;
              }
              case Opcode::Call: {
                // Args land directly in the callee's leading slots;
                // no temporary vector.
                ++stats_.calls;
                flushCounters();
                uint64_t argv[16];
                uint64_t *ap = argv;
                std::vector<uint64_t> spill;
                if (di.opCount > 16) {
                    spill.resize(di.opCount);
                    ap = spill.data();
                }
                for (uint16_t i = 0; i < di.opCount; ++i)
                    ap[i] = val(ops[i]);
                uint64_t r =
                    callDecoded(di.callee, ap, di.opCount, depth + 1);
                reloadCounters();
                // The frame stack may have grown (reallocated), and
                // decoding the callee may have grown the block cells.
                fr = dstack_.data() + base;
                if constexpr (kBlockProf)
                    bc = blockCells_.data() + df.blockBase() + cur;
                result = truncTo(r, bits);
                break;
              }
              case Opcode::Output:
                output_.push_back(truncTo(val(ops[0]), di.auxBits));
                ++stats_.outputs;
                break;
              case Opcode::Br:
                prev = cur;
                cur = di.target0;
                goto next_block;
              case Opcode::CondBr:
                prev = cur;
                cur = val(ops[0]) != 0 ? di.target0 : di.target1;
                goto next_block;
              case Opcode::Ret:
                flushCounters();
                return di.opCount ? truncTo(val(ops[0]), di.auxBits)
                                  : 0;
              case Opcode::Unreachable:
                flushCounters();
                panic("executed unreachable in " + f->name());
              case Opcode::Phi:
                panic("phi in decoded instruction stream");
            }

            if (di.dst >= 0) {
                fr[di.dst] = result;
                ++assigns;
                if constexpr (kProfile)
                    profileAssign(di.profileId, requiredBits(result));
                if constexpr (kHooks) {
                    flushCounters();
                    onAssign(di.inst, result);
                    reloadCounters();
                }
            }
            continue;

          misspeculate:
            flushCounters();
            if (blk.handler < 0)
                panic("speculative op outside a region in " +
                      df.blockName(cur));
            ++stats_.misspeculations;
            if constexpr (kBlockProf)
                ++bc->misspecs;
            reloadCounters();
            prev = cur;
            cur = static_cast<uint32_t>(blk.handler);
            goto next_block;
        }

        flushCounters();
        panic("block fell through: " + df.blockName(cur));
      next_block:;
    }
}

} // namespace bitspec
