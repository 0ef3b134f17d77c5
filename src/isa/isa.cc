#include "isa/isa.h"

#include <sstream>

#include "support/error.h"

namespace bitspec
{

const char *
mopName(MOp op)
{
    switch (op) {
      case MOp::ADD: return "add";
      case MOp::SUB: return "sub";
      case MOp::MUL: return "mul";
      case MOp::UDIV: return "udiv";
      case MOp::SDIV: return "sdiv";
      case MOp::AND: return "and";
      case MOp::ORR: return "orr";
      case MOp::EOR: return "eor";
      case MOp::LSL: return "lsl";
      case MOp::LSR: return "lsr";
      case MOp::ASR: return "asr";
      case MOp::MOV: return "mov";
      case MOp::MVN: return "mvn";
      case MOp::MOVW: return "movw";
      case MOp::MOVT: return "movt";
      case MOp::CMP: return "cmp";
      case MOp::SETCC: return "setcc";
      case MOp::SXTH: return "sxth";
      case MOp::UXTH: return "uxth";
      case MOp::LDR: return "ldr";
      case MOp::STR: return "str";
      case MOp::LDRH: return "ldrh";
      case MOp::STRH: return "strh";
      case MOp::LDRB: return "ldrb";
      case MOp::STRB: return "strb";
      case MOp::B: return "b";
      case MOp::BL: return "bl";
      case MOp::BXLR: return "bxlr";
      case MOp::OUT: return "out";
      case MOp::NOP: return "nop";
      case MOp::HALT: return "halt";
      case MOp::ADD8: return "add8";
      case MOp::SUB8: return "sub8";
      case MOp::AND8: return "and8";
      case MOp::ORR8: return "orr8";
      case MOp::EOR8: return "eor8";
      case MOp::CMP8: return "cmp8";
      case MOp::MOV8: return "mov8";
      case MOp::LDRS8: return "ldrs8";
      case MOp::LDRB8: return "ldrb8";
      case MOp::STRB8: return "strb8";
      case MOp::UXT8: return "uxt8";
      case MOp::SXT8: return "sxt8";
      case MOp::TRN8: return "trn8";
      case MOp::SETDELTA: return "setdelta";
      case MOp::MODE: return "mode";
    }
    panic("mopName: bad opcode");
}

const char *
condName(Cond c)
{
    switch (c) {
      case Cond::AL: return "";
      case Cond::EQ: return "eq";
      case Cond::NE: return "ne";
      case Cond::LO: return "lo";
      case Cond::LS: return "ls";
      case Cond::HI: return "hi";
      case Cond::HS: return "hs";
      case Cond::LT: return "lt";
      case Cond::LE: return "le";
      case Cond::GT: return "gt";
      case Cond::GE: return "ge";
    }
    panic("condName: bad cond");
}

bool
mayMisspeculate(const MachInst &inst)
{
    switch (inst.op) {
      case MOp::ADD8:
      case MOp::SUB8:
      case MOp::TRN8:
        // The non-speculative variants wrap/truncate silently (used by
        // exact demanded-bits narrowing, RQ2); the speculative ones
        // detect per Table 1.
        return inst.speculative;
      case MOp::LDRS8:
        return true;
      default:
        return false;
    }
}

namespace
{

std::string
opndStr(const MOpnd &o)
{
    switch (o.kind) {
      case MOpndKind::None: return "";
      case MOpndKind::Reg:
        if (o.reg == kRegSP)
            return "sp";
        if (o.reg == kRegLR)
            return "lr";
        return "r" + std::to_string(o.reg);
      case MOpndKind::Slice:
        return "r" + std::to_string(o.reg) + "b" +
               std::to_string(o.slice);
      case MOpndKind::Imm:
        return "#" + std::to_string(o.imm);
      case MOpndKind::VReg:
        return (o.vregIsSlice ? "%b" : "%w") + std::to_string(o.vreg);
    }
    return "?";
}

} // namespace

std::string
MachInst::str() const
{
    std::ostringstream os;
    os << mopName(op) << condName(cond);
    if (speculative)
        os << ".s";
    bool first = true;
    auto emit = [&](const MOpnd &o) {
        if (o.kind == MOpndKind::None)
            return;
        os << (first ? " " : ", ") << opndStr(o);
        first = false;
    };
    emit(dst);
    emit(a);
    emit(b);
    if (target >= 0)
        os << (first ? " " : ", ") << "->" << target;
    return os.str();
}

} // namespace bitspec
