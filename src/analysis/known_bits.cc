#include "analysis/known_bits.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <vector>

#include "analysis/cfg.h"
#include "obs/trace.h"

namespace bitspec
{

namespace
{

uint64_t
maskOf(unsigned bits)
{
    return bits == 0 ? 0 : lowMask(bits);
}

/** Leading-zero mask implied by an upper bound: every bit position
 *  that @p hi cannot reach is known zero. */
uint64_t
leadingZeros(uint64_t hi)
{
    if (hi == 0)
        return ~0ULL;
    unsigned w = requiredBits(hi);
    return w >= 64 ? 0 : ~lowMask(w);
}

/** Known result masks of an N-bit add-with-carry (the LLVM
 *  computeForAddCarry scheme, emulated at 64 bits then masked).
 *  @p carry_zero / @p carry_one describe the carry-in. */
struct Masks
{
    uint64_t zero;
    uint64_t one;
};

Masks
addCarryMasks(uint64_t az, uint64_t ao, uint64_t bz, uint64_t bo,
              bool carry_zero, bool carry_one, uint64_t mask)
{
    az &= mask;
    ao &= mask;
    bz &= mask;
    bo &= mask;
    uint64_t max_a = ~az & mask;
    uint64_t max_b = ~bz & mask;
    uint64_t psz = (max_a + max_b + (carry_zero ? 0 : 1)) & mask;
    uint64_t pso = (ao + bo + (carry_one ? 1 : 0)) & mask;
    uint64_t carry_kz = ~(psz ^ az ^ bz);
    uint64_t carry_ko = pso ^ ao ^ bo;
    uint64_t known = (az | ao) & (bz | bo) & (carry_kz | carry_ko);
    return {~psz & known & mask, pso & known & mask};
}

/** Number of provably-zero trailing bits. */
unsigned
trailingZeros(const KnownBits &a)
{
    return static_cast<unsigned>(std::countr_one(a.zero));
}

} // namespace

KnownBits
KnownBits::top(unsigned bits)
{
    KnownBits k;
    k.zero = ~maskOf(bits);
    k.one = 0;
    k.lo = 0;
    k.hi = maskOf(bits);
    return k;
}

KnownBits
KnownBits::constant(uint64_t v, unsigned bits)
{
    v &= maskOf(bits);
    KnownBits k;
    k.zero = ~v;
    k.one = v;
    k.lo = v;
    k.hi = v;
    return k;
}

KnownBits
KnownBits::normalized(unsigned bits) const
{
    uint64_t mask = maskOf(bits);
    KnownBits k = *this;
    k.zero |= ~mask;
    k.one &= mask;
    // A one bit contradicting a zero bit means the program point is
    // unreachable; any fact is sound there, so resolve toward zero.
    k.one &= ~k.zero;
    k.hi = std::min(k.hi, mask);

    // Pull masks and interval against each other to a (small) fixed
    // point: leading zeros of hi extend the zero mask, the zero mask
    // caps hi, and the one mask floors lo.
    for (int i = 0; i < 4; ++i) {
        uint64_t z = k.zero | leadingZeros(k.hi);
        uint64_t hi = std::min(k.hi, ~z);
        uint64_t lo = std::max(k.lo, k.one);
        if (hi < lo)
            lo = hi; // Unreachable; clamp to stay well-formed.
        if (z == k.zero && hi == k.hi && lo == k.lo)
            break;
        k.zero = z;
        k.hi = hi;
        k.lo = lo;
    }
    if (k.lo == k.hi) {
        k.zero = ~k.lo;
        k.one = k.lo;
    }
    return k;
}

std::string
KnownBits::str() const
{
    std::ostringstream os;
    os << std::hex << "zero=0x" << zero << " one=0x" << one << std::dec
       << " [" << lo << "," << hi << "]";
    return os.str();
}

KnownBits
kbJoin(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    KnownBits k;
    k.zero = a.zero & b.zero;
    k.one = a.one & b.one;
    k.lo = std::min(a.lo, b.lo);
    k.hi = std::max(a.hi, b.hi);
    return k.normalized(bits);
}

KnownBits
kbAdd(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    Masks m = addCarryMasks(a.zero, a.one, b.zero, b.one,
                            /*carry_zero=*/true, /*carry_one=*/false,
                            mask);
    KnownBits k = KnownBits::top(bits);
    k.zero |= m.zero;
    k.one = m.one;
    // Interval: exact when the true sum cannot wrap at the type width.
    if (b.hi <= mask - a.hi) {
        k.lo = a.lo + b.lo;
        k.hi = a.hi + b.hi;
    }
    return k.normalized(bits);
}

KnownBits
kbSub(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    // a - b == a + ~b + 1; ~b swaps the known masks.
    Masks m = addCarryMasks(a.zero, a.one, b.one & mask, b.zero & mask,
                            /*carry_zero=*/false, /*carry_one=*/true,
                            mask);
    KnownBits k = KnownBits::top(bits);
    k.zero |= m.zero;
    k.one = m.one;
    // Interval: exact when no borrow is possible.
    if (a.lo >= b.hi) {
        k.lo = a.lo - b.hi;
        k.hi = a.hi - b.lo;
    }
    return k.normalized(bits);
}

KnownBits
kbMul(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    KnownBits k = KnownBits::top(bits);
    unsigned tz = trailingZeros(a) + trailingZeros(b);
    if (tz > 0)
        k.zero |= lowMask(std::min(tz, 64u));
    unsigned __int128 p =
        static_cast<unsigned __int128>(a.hi) * b.hi;
    if (p <= mask) {
        k.lo = a.lo * b.lo;
        k.hi = static_cast<uint64_t>(p);
    }
    return k.normalized(bits);
}

KnownBits
kbUDiv(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    KnownBits k = KnownBits::top(bits);
    if (b.lo >= 1) {
        k.lo = a.lo / b.hi;
        k.hi = a.hi / b.lo;
    }
    return k.normalized(bits);
}

KnownBits
kbURem(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    if (b.lo >= 1 && a.hi < b.lo)
        return a.normalized(bits); // Remainder is the dividend itself.
    KnownBits k = KnownBits::top(bits);
    if (b.lo >= 1) {
        k.lo = 0;
        k.hi = std::min(a.hi, b.hi - 1);
    }
    return k.normalized(bits);
}

KnownBits
kbAnd(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    KnownBits k;
    k.zero = a.zero | b.zero;
    k.one = a.one & b.one;
    k.lo = k.one;
    k.hi = std::min(a.hi, b.hi);
    return k.normalized(bits);
}

KnownBits
kbOr(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    KnownBits k;
    k.zero = a.zero & b.zero;
    k.one = a.one | b.one;
    k.lo = std::max(a.lo, b.lo);
    k.hi = lowMask(std::max(requiredBits(a.hi), requiredBits(b.hi)));
    return k.normalized(bits);
}

KnownBits
kbXor(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    KnownBits k = KnownBits::top(bits);
    k.zero |= (a.zero & b.zero) | (a.one & b.one);
    k.one = (a.zero & b.one) | (a.one & b.zero);
    return k.normalized(bits);
}

KnownBits
kbShl(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    if (!b.isConstant() || b.lo >= bits)
        return KnownBits::top(bits);
    unsigned s = static_cast<unsigned>(b.lo);
    KnownBits k = KnownBits::top(bits);
    k.zero |= (a.zero << s) | (s > 0 ? lowMask(s) : 0);
    k.one = (a.one << s) & mask;
    if (a.hi <= (mask >> s)) {
        k.lo = a.lo << s;
        k.hi = a.hi << s;
    }
    return k.normalized(bits);
}

KnownBits
kbLShr(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    if (!b.isConstant() || b.lo >= bits) {
        // Any non-negative shift only shrinks the value.
        KnownBits k = KnownBits::top(bits);
        k.hi = a.hi;
        return k.normalized(bits);
    }
    unsigned s = static_cast<unsigned>(b.lo);
    KnownBits k;
    k.zero = (a.zero >> s) | ~(mask >> s);
    k.one = (a.one & mask) >> s;
    k.lo = a.lo >> s;
    k.hi = a.hi >> s;
    return k.normalized(bits);
}

KnownBits
kbAShr(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    // With a known-clear sign bit, arithmetic == logical shift.
    if (bits > 0 && (a.zero >> (bits - 1)) & 1)
        return kbLShr(a, b, bits);
    return KnownBits::top(bits);
}

KnownBits
kbTrunc(const KnownBits &a, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    KnownBits k = KnownBits::top(bits);
    k.zero |= a.zero & mask;
    k.one = a.one & mask;
    if (a.hi <= mask) {
        k.lo = a.lo;
        k.hi = a.hi;
    }
    return k.normalized(bits);
}

KnownBits
kbZExt(const KnownBits &a, unsigned fromBits, unsigned bits)
{
    KnownBits k = a;
    k.zero |= ~maskOf(fromBits);
    return k.normalized(bits);
}

KnownBits
kbSExt(const KnownBits &a, unsigned fromBits, unsigned bits)
{
    uint64_t sign = 1ULL << (fromBits - 1);
    uint64_t ext = maskOf(bits) & ~maskOf(fromBits);
    if (a.zero & sign)
        return kbZExt(a, fromBits, bits);
    if (a.one & sign) {
        KnownBits k;
        k.zero = a.zero & maskOf(fromBits);
        k.one = (a.one & maskOf(fromBits)) | ext;
        k.lo = a.lo + ext;
        k.hi = a.hi + ext;
        return k.normalized(bits);
    }
    // Sign unknown: only the low fromBits-1 bits carry over.
    KnownBits k = KnownBits::top(bits);
    if (fromBits > 1) {
        uint64_t low = lowMask(fromBits - 1);
        k.zero |= a.zero & low;
        k.one = a.one & low;
    }
    return k.normalized(bits);
}

KnownBits
kbSpecAdd(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    if (bits >= 64)
        return kbAdd(a, b, bits); // Sums below could wrap the host word.
    uint64_t mask = maskOf(bits);
    KnownBits k = kbAdd(a, b, bits);
    // Table 1: on the non-misspeculating path there is no carry out,
    // so the result is the true sum, capped at the slice range.
    k.hi = std::min(k.hi, std::min(a.hi + b.hi, mask));
    k.lo = std::max(k.lo, std::min(a.lo + b.lo, k.hi));
    return k.normalized(bits);
}

KnownBits
kbSpecSub(const KnownBits &a, const KnownBits &b, unsigned bits)
{
    KnownBits k = kbSub(a, b, bits);
    // No borrow: the minuend bounds the result from above.
    uint64_t hi = a.hi >= b.lo ? a.hi - b.lo : 0;
    uint64_t lo = a.lo > b.hi ? a.lo - b.hi : 0;
    k.hi = std::min(k.hi, hi);
    k.lo = std::max(k.lo, std::min(lo, k.hi));
    return k.normalized(bits);
}

KnownBits
kbSpecTrunc(const KnownBits &a, unsigned bits)
{
    uint64_t mask = maskOf(bits);
    // Non-misspeculating path: the operand fits, so the result *is*
    // the operand value.
    KnownBits k;
    k.zero = a.zero;
    k.one = a.one & mask;
    k.lo = std::min(a.lo, mask);
    k.hi = std::min(a.hi, mask);
    return k.normalized(bits);
}

namespace
{

/** Range/mask-based compare fold: 1/0 when decided, -1 otherwise. */
int
foldCompare(CmpPred pred, const KnownBits &a, const KnownBits &b)
{
    bool disjoint = a.hi < b.lo || b.hi < a.lo;
    bool mask_conflict = (a.one & b.zero) || (b.one & a.zero);
    switch (pred) {
      case CmpPred::EQ:
        if (a.isConstant() && b.isConstant() && a.lo == b.lo)
            return 1;
        if (disjoint || mask_conflict)
            return 0;
        return -1;
      case CmpPred::NE:
        if (a.isConstant() && b.isConstant() && a.lo == b.lo)
            return 0;
        if (disjoint || mask_conflict)
            return 1;
        return -1;
      case CmpPred::ULT:
        if (a.hi < b.lo)
            return 1;
        if (a.lo >= b.hi)
            return 0;
        return -1;
      case CmpPred::ULE:
        if (a.hi <= b.lo)
            return 1;
        if (a.lo > b.hi)
            return 0;
        return -1;
      case CmpPred::UGT:
        if (a.lo > b.hi)
            return 1;
        if (a.hi <= b.lo)
            return 0;
        return -1;
      case CmpPred::UGE:
        if (a.lo >= b.hi)
            return 1;
        if (a.hi < b.lo)
            return 0;
        return -1;
      default:
        return -1; // Signed predicates: not modelled.
    }
}

} // namespace

KnownBitsAnalysis::KnownBitsAnalysis(Function &f)
{
    trace::Span span("analysis.known_bits", "compile");
    span.arg("function", f.name());
    for (BasicBlock *bb : reversePostOrder(f)) {
        for (const auto &inst : bb->insts()) {
            if (inst->type().isInt()) {
                slotOf_.emplace(inst.get(),
                                static_cast<uint32_t>(order_.size()));
                order_.push_back(inst.get());
            }
        }
    }
    const auto n = static_cast<uint32_t>(order_.size());

    // Operand slots, then each slot's users (CSR): the instructions to
    // re-evaluate when its fact changes.
    opBegin_.resize(n + 1);
    std::vector<uint32_t> userBegin(n + 1, 0);
    for (uint32_t s = 0; s < n; ++s) {
        opBegin_[s] = static_cast<uint32_t>(opSlots_.size());
        for (const Value *v : order_[s]->operands()) {
            uint32_t o = kNoSlot;
            if (v->isInstruction()) {
                auto it = slotOf_.find(static_cast<const Instruction *>(v));
                if (it != slotOf_.end()) {
                    o = it->second;
                    ++userBegin[o + 1];
                }
            }
            opSlots_.push_back(o);
        }
    }
    opBegin_[n] = static_cast<uint32_t>(opSlots_.size());
    for (uint32_t s = 0; s < n; ++s)
        userBegin[s + 1] += userBegin[s];
    std::vector<uint32_t> users(userBegin[n]);
    {
        std::vector<uint32_t> fill(userBegin.begin(), userBegin.end() - 1);
        for (uint32_t s = 0; s < n; ++s)
            for (uint32_t k = opBegin_[s]; k < opBegin_[s + 1]; ++k)
                if (opSlots_[k] != kNoSlot)
                    users[fill[opSlots_[k]]++] = s;
    }

    facts_.resize(n);
    hasFact_.assign(n, 0);
    std::vector<unsigned> updates(n, 0);
    // Evaluated again in this pass when after the changed slot in
    // order, else in the next one: the round-robin visiting order.
    std::vector<uint8_t> dirty(n, 1);
    auto changedFact = [&](uint32_t s) {
        for (uint32_t k = userBegin[s]; k < userBegin[s + 1]; ++k)
            dirty[users[k]] = 1;
    };

    bool changed = true;
    unsigned iter = 0;
    for (; iter < kMaxIterations && changed; ++iter) {
        changed = false;
        for (uint32_t s = 0; s < n; ++s) {
            if (!dirty[s])
                continue;
            dirty[s] = 0;
            KnownBits nf = transfer(s);
            if (!hasFact_[s]) {
                facts_[s] = nf;
                hasFact_[s] = 1;
                updates[s] = 1;
                changed = true;
                changedFact(s);
                continue;
            }
            if (nf == facts_[s])
                continue;
            if (++updates[s] > kWideningBudget) {
                // Widen: keep the (finite-lattice) masks, surrender
                // the interval to whatever the masks imply.
                nf.lo = 0;
                nf.hi = ~0ULL;
                nf = nf.normalized(order_[s]->type().bits);
            }
            if (nf != facts_[s]) {
                facts_[s] = nf;
                changed = true;
                changedFact(s);
            }
        }
    }
    if (changed) {
        // Safety net: not converged — fall back to type-top.
        for (uint32_t s = 0; s < n; ++s) {
            facts_[s] = KnownBits::top(order_[s]->type().bits);
            hasFact_[s] = 1;
        }
    }
}

KnownBits
KnownBitsAnalysis::known(const Value *v) const
{
    unsigned bits = v->type().bits;
    if (v->isConstant())
        return KnownBits::constant(
            static_cast<const Constant *>(v)->value(), bits);
    if (v->isInstruction()) {
        auto it = slotOf_.find(static_cast<const Instruction *>(v));
        if (it != slotOf_.end() && hasFact_[it->second])
            return facts_[it->second];
    }
    return KnownBits::top(bits);
}

KnownBits
KnownBitsAnalysis::operandFact(uint32_t s, size_t i) const
{
    uint32_t o = opSlots_[opBegin_[s] + i];
    if (o != kNoSlot && hasFact_[o])
        return facts_[o];
    const Value *v = order_[s]->operand(i);
    if (v->isConstant())
        return KnownBits::constant(
            static_cast<const Constant *>(v)->value(), v->type().bits);
    return KnownBits::top(v->type().bits);
}

KnownBits
KnownBitsAnalysis::transfer(uint32_t s) const
{
    const Instruction *inst = order_[s];
    unsigned bits = inst->type().bits;
    auto get = [&](size_t i) { return operandFact(s, i); };

    switch (inst->op()) {
      case Opcode::Add:
        return inst->isSpeculative() ? kbSpecAdd(get(0), get(1), bits)
                                     : kbAdd(get(0), get(1), bits);
      case Opcode::Sub:
        return inst->isSpeculative() ? kbSpecSub(get(0), get(1), bits)
                                     : kbSub(get(0), get(1), bits);
      case Opcode::Mul:
        return kbMul(get(0), get(1), bits);
      case Opcode::UDiv:
        return kbUDiv(get(0), get(1), bits);
      case Opcode::URem:
        return kbURem(get(0), get(1), bits);
      case Opcode::And:
        return kbAnd(get(0), get(1), bits);
      case Opcode::Or:
        return kbOr(get(0), get(1), bits);
      case Opcode::Xor:
        return kbXor(get(0), get(1), bits);
      case Opcode::Shl:
        return kbShl(get(0), get(1), bits);
      case Opcode::LShr:
        return kbLShr(get(0), get(1), bits);
      case Opcode::AShr:
        return kbAShr(get(0), get(1), bits);
      case Opcode::Trunc:
        return inst->isSpeculative() ? kbSpecTrunc(get(0), bits)
                                     : kbTrunc(get(0), bits);
      case Opcode::ZExt:
        return kbZExt(get(0), inst->operand(0)->type().bits, bits);
      case Opcode::SExt:
        return kbSExt(get(0), inst->operand(0)->type().bits, bits);
      case Opcode::ICmp: {
        int r = foldCompare(inst->pred(), get(0), get(1));
        return r < 0 ? KnownBits::top(1)
                     : KnownBits::constant(static_cast<uint64_t>(r), 1);
      }
      case Opcode::Select:
        return kbJoin(get(1), get(2), bits);
      case Opcode::Phi: {
        // Join over the incomings analyzed so far; back-edge inputs
        // missing a fact are skipped (optimistic iteration).
        bool any = false;
        KnownBits acc;
        for (size_t i = 0; i < inst->numOperands(); ++i) {
            uint32_t o = opSlots_[opBegin_[s] + i];
            if (inst->operand(i)->isInstruction() &&
                (o == kNoSlot || !hasFact_[o]))
                continue;
            KnownBits k = get(i);
            acc = any ? kbJoin(acc, k, bits) : k;
            any = true;
        }
        return any ? acc.normalized(bits) : KnownBits::top(bits);
      }
      default:
        // Loads, calls, and anything unmodelled: the type is the only
        // bound (a speculative i8 load is [0, 255] by type alone).
        return KnownBits::top(bits);
    }
}

} // namespace bitspec
