#include "uarch/predecode.h"

#include "support/error.h"

namespace bitspec
{

namespace
{

/** True when the operand is backed by an architectural register
 *  (the scoreboard tracks both classes). */
bool
isRegLike(const MOpnd &o)
{
    return o.isReg() || o.isSlice();
}

POpnd
makeOpnd(const MOpnd &o)
{
    POpnd p;
    switch (o.kind) {
      case MOpndKind::Reg:
        p.reg = o.reg;
        break;
      case MOpndKind::Slice:
        p.reg = o.reg;
        p.shift = static_cast<uint8_t>(8 * o.slice);
        p.mask = 0xff;
        break;
      case MOpndKind::Imm:
        p.isImm = true;
        p.imm = static_cast<uint32_t>(o.imm);
        break;
      case MOpndKind::None:
      case MOpndKind::VReg:
        // Never read by a well-formed handler; an instruction that
        // would read one decodes to Bad, which panics if executed.
        break;
    }
    return p;
}

/** rf-read events of reading @p o, added to @p c. */
void
addReadRf(CounterContrib &c, const MOpnd &o)
{
    if (o.isReg())
        ++c.rfRead32;
    else if (o.isSlice())
        ++c.rfRead8;
}

/** True when @p o can be read/written (anything else decodes to
 *  Bad). */
bool
operandOk(const MOpnd &o)
{
    return o.isReg() || o.isSlice() || o.isImm();
}

PInst
decodeInst(const MachInst &inst)
{
    PInst p;
    p.cond = inst.cond;
    p.dst = makeOpnd(inst.dst);
    p.a = makeOpnd(inst.a);
    p.b = makeOpnd(inst.b);
    if (inst.target >= 0)
        p.target = static_cast<uint32_t>(inst.target);

    switch (inst.tag) {
      case InstTag::SpillLoad:  p.contrib.dynSpillLoads = 1; break;
      case InstTag::SpillStore: p.contrib.dynSpillStores = 1; break;
      case InstTag::Copy:       p.contrib.dynCopies = 1; break;
      default: break;
    }

    // Marks that this handler reads the operand: fills readyMask and
    // the rf-read contrib. A None/VReg operand decodes to the Bad
    // handler (the offset operand of loads/stores is read too unless
    // immediate).
    auto readsValue = [&](const MOpnd &o) {
        if (!operandOk(o)) {
            p.kind = PKind::Bad;
            return;
        }
        if (isRegLike(o))
            p.readyMask |= 1u << o.reg;
        addReadRf(p.contrib, o);
    };
    auto writes = [&](const MOpnd &o) {
        if (o.isReg())
            p.dstWrite = 1;
        else if (o.isSlice())
            p.dstWrite = 2;
        else
            p.kind = PKind::Bad;
        if (isRegLike(o))
            p.readyMask |= 1u << o.reg;
    };
    // Scoreboard-only consultation (operand present but the handler
    // does not read its value through readOpnd).
    auto consults = [&](const MOpnd &o) {
        if (isRegLike(o))
            p.readyMask |= 1u << o.reg;
    };

    switch (inst.op) {
      case MOp::ADD: case MOp::SUB: case MOp::AND: case MOp::ORR:
      case MOp::EOR: case MOp::LSL: case MOp::LSR: case MOp::ASR: {
        switch (inst.op) {
          case MOp::ADD: p.kind = PKind::AluAdd; break;
          case MOp::SUB: p.kind = PKind::AluSub; break;
          case MOp::AND: p.kind = PKind::AluAnd; break;
          case MOp::ORR: p.kind = PKind::AluOrr; break;
          case MOp::EOR: p.kind = PKind::AluEor; break;
          case MOp::LSL: p.kind = PKind::AluLsl; break;
          case MOp::LSR: p.kind = PKind::AluLsr; break;
          default:       p.kind = PKind::AluAsr; break;
        }
        p.contrib.alu32 = 1;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      }
      case MOp::MUL:
        p.kind = PKind::Mul;
        p.contrib.mulDiv = 1;
        p.latency = 3;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      case MOp::UDIV: case MOp::SDIV:
        p.kind = PKind::Div;
        p.aux = inst.op == MOp::SDIV;
        p.contrib.mulDiv = 1;
        p.latency = 12;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      case MOp::MOV: case MOp::MOV8:
        if (inst.cond == Cond::AL) {
            p.kind = PKind::Mov;
            (inst.op == MOp::MOV ? p.contrib.alu32
                                 : p.contrib.alu8) = 1;
            readsValue(inst.a);
            writes(inst.dst);
        } else {
            // rf events and the write depend on the flags at runtime;
            // the handler accounts them itself (dstWrite stays 0).
            p.kind = PKind::MovCond;
            (inst.op == MOp::MOV ? p.contrib.alu32
                                 : p.contrib.alu8) = 1;
            consults(inst.a);
            consults(inst.dst);
            if (!operandOk(inst.a) ||
                !(inst.dst.isReg() || inst.dst.isSlice()))
                p.kind = PKind::Bad;
        }
        break;
      case MOp::MVN:
        p.kind = PKind::Mvn;
        p.contrib.alu32 = 1;
        readsValue(inst.a);
        writes(inst.dst);
        break;
      case MOp::MOVW:
        p.kind = PKind::Movw;
        p.contrib.alu32 = 1;
        p.a.isImm = true;
        p.a.imm = static_cast<uint32_t>(inst.a.imm) & 0xffff;
        writes(inst.dst);
        break;
      case MOp::MOVT:
        p.kind = PKind::Movt;
        p.contrib.alu32 = 1;
        ++p.contrib.rfRead32; // Explicit low-half read of dst.
        p.a.isImm = true;
        p.a.imm = static_cast<uint32_t>(inst.a.imm);
        writes(inst.dst);
        break;
      case MOp::CMP:
        p.kind = PKind::Cmp;
        p.contrib.alu32 = 1;
        readsValue(inst.a);
        readsValue(inst.b);
        break;
      case MOp::CMP8:
        p.kind = PKind::Cmp8;
        p.contrib.alu8 = 1;
        readsValue(inst.a);
        readsValue(inst.b);
        break;
      case MOp::SETCC:
        p.kind = PKind::Setcc;
        p.contrib.alu32 = 1;
        writes(inst.dst);
        break;
      case MOp::SXTH:
        p.kind = PKind::Sxth;
        p.contrib.alu32 = 1;
        readsValue(inst.a);
        writes(inst.dst);
        break;
      case MOp::UXTH:
        p.kind = PKind::Uxth;
        p.contrib.alu32 = 1;
        readsValue(inst.a);
        writes(inst.dst);
        break;
      case MOp::UXT8:
        p.kind = PKind::Uxt8;
        p.contrib.alu8 = 1;
        readsValue(inst.a);
        writes(inst.dst);
        break;
      case MOp::SXT8:
        p.kind = PKind::Sxt8;
        p.contrib.alu8 = 1;
        readsValue(inst.a);
        writes(inst.dst);
        break;
      case MOp::LDR: case MOp::LDRH: case MOp::LDRB: case MOp::LDRB8:
        p.kind = PKind::Load;
        p.aux = inst.op == MOp::LDR ? 4 : inst.op == MOp::LDRH ? 2 : 1;
        p.contrib.loads = 1;
        p.latency = 2;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      case MOp::LDRS8:
        p.kind = PKind::LoadSpec;
        p.aux = inst.origBits == 16 ? 2 : 4;
        p.contrib.loads = 1;
        p.latency = 2;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      case MOp::STR: case MOp::STRH: case MOp::STRB: case MOp::STRB8:
        p.kind = PKind::Store;
        p.aux = inst.op == MOp::STR ? 4 : inst.op == MOp::STRH ? 2 : 1;
        p.contrib.stores = 1;
        readsValue(inst.a);
        readsValue(inst.b);
        readsValue(inst.dst); // Store data is a read of dst.
        break;
      case MOp::ADD8: case MOp::SUB8:
        p.kind = inst.op == MOp::ADD8 ? PKind::Add8 : PKind::Sub8;
        p.aux = inst.speculative;
        p.contrib.alu8 = 1;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      case MOp::AND8: case MOp::ORR8: case MOp::EOR8:
        p.kind = inst.op == MOp::AND8   ? PKind::Logic8And
                 : inst.op == MOp::ORR8 ? PKind::Logic8Orr
                                        : PKind::Logic8Eor;
        p.contrib.alu8 = 1;
        readsValue(inst.a);
        readsValue(inst.b);
        writes(inst.dst);
        break;
      case MOp::TRN8:
        p.kind = PKind::Trn8;
        p.aux = inst.speculative;
        p.contrib.alu8 = 1;
        readsValue(inst.a);
        writes(inst.dst);
        break;
      case MOp::B:
        p.kind = PKind::Branch;
        p.contrib.branches = 1;
        break;
      case MOp::BL:
        p.kind = PKind::Call;
        p.contrib.calls = 1;
        break;
      case MOp::BXLR:
        // Timing-model quirk, pinned by the run freeze: lr readiness
        // is never consulted (BXLR carries no operands) and the
        // taken-branch count is unconditional.
        p.kind = PKind::Ret;
        p.contrib.branches = 1;
        p.contrib.takenBranches = 1;
        break;
      case MOp::OUT:
        p.kind = PKind::Out;
        p.contrib.outputs = 1;
        readsValue(inst.a);
        break;
      case MOp::SETDELTA:
        p.kind = PKind::SetDelta;
        p.a.isImm = true;
        p.a.imm = static_cast<uint32_t>(inst.a.imm);
        break;
      case MOp::MODE:
        p.kind = PKind::Mode;
        p.aux = inst.a.imm == 0;
        break;
      case MOp::NOP:
        p.kind = PKind::Nop;
        break;
      case MOp::HALT:
        p.kind = PKind::Halt;
        break;
    }
    return p;
}

} // namespace

Hash128
codeKeyOf(const std::vector<PInst> &insts)
{
    // Every field packed into eight words: the fields, not the
    // struct's bytes, which include padding.
    auto opnd = [](const POpnd &o) {
        return static_cast<uint64_t>(o.mask) |
               static_cast<uint64_t>(o.imm) << 32;
    };
    // reg, shift and isImm: 17 bits.
    auto small = [](const POpnd &o) {
        return static_cast<uint64_t>(o.reg) |
               static_cast<uint64_t>(o.shift) << 8 |
               static_cast<uint64_t>(o.isImm) << 16;
    };
    WordHash128 h;
    for (const PInst &p : insts) {
        const CounterContrib &c = p.contrib;
        h.add(static_cast<uint64_t>(p.kind) |
              static_cast<uint64_t>(p.aux) << 8 |
              static_cast<uint64_t>(p.cond) << 16 |
              static_cast<uint64_t>(p.readyMask) << 24 |
              small(p.b) << 40);
        h.add(small(p.dst) | small(p.a) << 24 |
              static_cast<uint64_t>(p.latency) << 48 |
              static_cast<uint64_t>(p.dstWrite) << 56);
        h.add(opnd(p.dst));
        h.add(opnd(p.a));
        h.add(opnd(p.b));
        h.add(static_cast<uint64_t>(p.target) |
              static_cast<uint64_t>(c.alu32) << 32 |
              static_cast<uint64_t>(c.alu8) << 40 |
              static_cast<uint64_t>(c.mulDiv) << 48 |
              static_cast<uint64_t>(c.rfRead32) << 56);
        h.add(static_cast<uint64_t>(c.rfRead8) |
              static_cast<uint64_t>(c.loads) << 8 |
              static_cast<uint64_t>(c.stores) << 16 |
              static_cast<uint64_t>(c.branches) << 24 |
              static_cast<uint64_t>(c.takenBranches) << 32 |
              static_cast<uint64_t>(c.calls) << 40 |
              static_cast<uint64_t>(c.outputs) << 48 |
              static_cast<uint64_t>(c.dynSpillLoads) << 56);
        h.add(static_cast<uint64_t>(c.dynSpillStores) |
              static_cast<uint64_t>(c.dynCopies) << 8);
    }
    h.add(insts.size());
    return h.digest();
}

PredecodedProgram::PredecodedProgram(const MachProgram &prog)
    : prog_(prog)
{
    insts_.reserve(prog.flat.size());
    for (const MachInst &inst : prog.flat)
        insts_.push_back(decodeInst(inst));
    codeKey_ = codeKeyOf(insts_);
}

} // namespace bitspec
