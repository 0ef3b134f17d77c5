#include "backend/mir_verifier.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/error.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

/** Allowed operand-kind bitmask. */
enum : unsigned
{
    kNone = 1u << 0,
    kReg = 1u << 1,
    kSlice = 1u << 2,
    kImm = 1u << 3,
};

unsigned
kindBit(const MOpnd &o)
{
    switch (o.kind) {
      case MOpndKind::None: return kNone;
      case MOpndKind::Reg: return kReg;
      case MOpndKind::Slice: return kSlice;
      case MOpndKind::Imm: return kImm;
      case MOpndKind::VReg: return 0;
    }
    return 0;
}

const char *
kindName(const MOpnd &o)
{
    switch (o.kind) {
      case MOpndKind::None: return "none";
      case MOpndKind::Reg: return "reg";
      case MOpndKind::Slice: return "slice";
      case MOpndKind::Imm: return "imm";
      case MOpndKind::VReg: return "vreg";
    }
    return "?";
}

/** Operand-class contract of one opcode (see uarch/core.cc). */
struct OpndClasses
{
    unsigned dst;
    unsigned a;
    unsigned b;
};

OpndClasses
classesOf(MOp op)
{
    const unsigned src = kReg | kImm;
    const unsigned src8 = kSlice | kImm;
    switch (op) {
      case MOp::ADD: case MOp::SUB: case MOp::MUL:
      case MOp::UDIV: case MOp::SDIV: case MOp::AND:
      case MOp::ORR: case MOp::EOR: case MOp::LSL:
      case MOp::LSR: case MOp::ASR:
        return {kReg, src, src};
      case MOp::MOV:
        // Register-allocator copies move between classes freely (the
        // core's read/write helpers accept either side).
        return {kReg | kSlice, kReg | kSlice | kImm, kNone};
      case MOp::MVN:
        return {kReg, src, kNone};
      case MOp::MOVW: case MOp::MOVT:
        return {kReg, kImm, kNone};
      case MOp::CMP:
        return {kNone, src, src};
      case MOp::CMP8:
        return {kNone, src8, src8};
      case MOp::SETCC:
        return {kReg, kNone, kNone};
      case MOp::SXTH: case MOp::UXTH:
        return {kReg, kReg, kNone};
      case MOp::LDR: case MOp::LDRH: case MOp::LDRB:
        return {kReg, kReg, src};
      case MOp::LDRB8: case MOp::LDRS8:
        return {kSlice, kReg, src};
      case MOp::STR: case MOp::STRH: case MOp::STRB:
        return {kReg, kReg, src}; // dst = store data.
      case MOp::STRB8:
        return {kSlice, kReg, src};
      case MOp::ADD8: case MOp::SUB8: case MOp::AND8:
      case MOp::ORR8: case MOp::EOR8:
        return {kSlice, src8, src8};
      case MOp::MOV8:
        return {kSlice, src8, kNone};
      case MOp::UXT8: case MOp::SXT8:
        return {kReg, kSlice, kNone};
      case MOp::TRN8:
        return {kSlice, src, kNone};
      case MOp::B: case MOp::BL: case MOp::BXLR:
      case MOp::NOP: case MOp::HALT:
        return {kNone, kNone, kNone};
      case MOp::OUT:
        return {kNone, kReg | kSlice | kImm, kNone};
      case MOp::SETDELTA: case MOp::MODE:
        return {kNone, kImm, kNone};
    }
    return {kNone, kNone, kNone};
}

bool
specFlagAllowed(MOp op)
{
    return op == MOp::ADD8 || op == MOp::SUB8 || op == MOp::TRN8 ||
           op == MOp::LDRS8;
}

/** True when control cannot fall through past @p inst. */
bool
endsFallthrough(const MachInst &inst)
{
    return (inst.op == MOp::B && inst.cond == Cond::AL) ||
           inst.op == MOp::BXLR || inst.op == MOp::HALT;
}

constexpr int64_t kNotEmitted = -1;

class MirVerifier
{
  public:
    /** Reads blockIndex once into a start per block id and flags
     *  over code indices [0, code.size()]; a start past the code is
     *  no index a branch may target. */
    explicit MirVerifier(const MachFunction &mf)
        : mf_(mf), startOf_(mf.blocks.size(), kNotEmitted),
          isStart_(mf.code.size() + 1, 0)
    {
        for (const auto &[id, at] : mf_.blockIndex) {
            if (id >= 0 && static_cast<size_t>(id) < startOf_.size())
                startOf_[id] = at;
            if (at < isStart_.size())
                isStart_[at] = 1;
        }
    }

    std::vector<std::string>
    run()
    {
        checkBlocks();
        checkCode();
        checkSpecGeometry();
        checkHandlerEntry();
        return std::move(problems_);
    }

  private:
    void
    problem(const std::string &msg)
    {
        problems_.push_back(mf_.name + ": " + msg);
    }

    void
    checkOperand(size_t idx, const MachInst &inst, const char *which,
                 const MOpnd &o, unsigned allowed)
    {
        if (o.isVReg()) {
            problem(strFormat(
                "code[%zu] %s: virtual register survived allocation "
                "(%s operand)", idx, mopName(inst.op), which));
            return;
        }
        if ((o.isReg() || o.isSlice()) && o.reg > kRegPC)
            problem(strFormat("code[%zu] %s: register %u out of range",
                              idx, mopName(inst.op), o.reg));
        if (o.isSlice() && o.slice > 3)
            problem(strFormat("code[%zu] %s: slice %u out of range",
                              idx, mopName(inst.op), o.slice));
        if ((kindBit(o) & allowed) == 0)
            problem(strFormat("code[%zu] %s: %s operand has kind %s",
                              idx, mopName(inst.op), which,
                              kindName(o)));
    }

    void
    checkBlocks()
    {
        for (size_t i = 0; i < mf_.blocks.size(); ++i) {
            if (mf_.blocks[i].id != static_cast<int>(i))
                problem(strFormat("blocks[%zu] has id %d", i,
                                  mf_.blocks[i].id));
            int h = mf_.blocks[i].handlerBlock;
            if (h >= 0) {
                if (static_cast<size_t>(h) >= mf_.blocks.size())
                    problem(strFormat(
                        "blocks[%zu]: handler id %d out of range", i,
                        h));
                else if (!mf_.blocks[h].isHandler)
                    problem(strFormat(
                        "blocks[%zu]: handler %d not marked isHandler",
                        i, h));
            }
        }
        if (!mf_.blocks.empty()) {
            auto it = mf_.blockIndex.find(0);
            if (it == mf_.blockIndex.end())
                problem("entry block missing from blockIndex");
            else if (mf_.entryIndex != it->second)
                problem(strFormat(
                    "entryIndex %u != blockIndex[entry] %u",
                    mf_.entryIndex, it->second));
        }
    }

    void
    checkCode()
    {
        for (size_t i = 0; i < mf_.code.size(); ++i) {
            const MachInst &inst = mf_.code[i];
            OpndClasses cls = classesOf(inst.op);
            checkOperand(i, inst, "dst", inst.dst, cls.dst);
            checkOperand(i, inst, "a", inst.a, cls.a);
            checkOperand(i, inst, "b", inst.b, cls.b);

            if (inst.speculative && !specFlagAllowed(inst.op))
                problem(strFormat(
                    "code[%zu] %s: speculative flag on an op without "
                    "a speculative variant", i, mopName(inst.op)));

            if (inst.op == MOp::B) {
                if (inst.target < 0 ||
                    static_cast<size_t>(inst.target) >=
                        mf_.code.size())
                    problem(strFormat(
                        "code[%zu] B: target %d outside code", i,
                        inst.target));
                else if (!isStart_[inst.target])
                    problem(strFormat(
                        "code[%zu] B: target %d is not a block start",
                        i, inst.target));
            } else if (inst.op == MOp::BL) {
                if (inst.target < 0)
                    problem(strFormat("code[%zu] BL: unresolved target",
                                      i));
            } else if (inst.op == MOp::SETDELTA) {
                if (inst.target == -2)
                    problem(strFormat(
                        "code[%zu] SETDELTA: unpatched placeholder",
                        i));
                else if (!inst.a.isImm() ||
                         inst.a.imm !=
                             static_cast<int64_t>(mf_.delta))
                    problem(strFormat(
                        "code[%zu] SETDELTA: imm %lld != delta %u", i,
                        static_cast<long long>(inst.a.imm),
                        mf_.delta));
            }
        }
    }

    /** Eq. 1/2 geometry: speculative area [0, Δ/4), skeleton area
     *  [Δ/4, 2·Δ/4), slot i targeting the handler of the region block
     *  owning emitted instruction i. */
    void
    checkSpecGeometry()
    {
        uint32_t spec_insts = mf_.delta / kInstBytes;
        if (mf_.delta % kInstBytes != 0)
            problem(strFormat("delta %u not a multiple of %u",
                              mf_.delta, kInstBytes));
        if (2ull * spec_insts > mf_.code.size()) {
            problem(strFormat(
                "delta %u implies %u skeleton slots but code has "
                "only %zu instructions", mf_.delta, spec_insts,
                mf_.code.size()));
            return;
        }

        // Emitted region blocks in emitted order, as (start, id): an
        // empty block shares its start with the next and sorts first,
        // as layout emits region blocks in id order.
        std::vector<std::pair<uint32_t, int>> region_blocks;
        for (const auto &mb : mf_.blocks) {
            if (mb.handlerBlock < 0)
                continue;
            int64_t at = startOf(mb.id);
            if (at == kNotEmitted) {
                problem(strFormat("region block %d was never emitted",
                                  mb.id));
                continue;
            }
            region_blocks.emplace_back(static_cast<uint32_t>(at), mb.id);
        }
        std::sort(region_blocks.begin(), region_blocks.end());

        for (size_t i = 0; i < mf_.code.size(); ++i) {
            const MachInst &inst = mf_.code[i];
            bool in_skeleton_area =
                i >= spec_insts && i < 2ull * spec_insts;
            if ((inst.tag == InstTag::Skeleton) != in_skeleton_area)
                problem(strFormat(
                    "code[%zu]: %s the skeleton area [%u, %u)", i,
                    inst.tag == InstTag::Skeleton
                        ? "skeleton instruction outside"
                        : "non-skeleton instruction inside",
                    spec_insts, 2 * spec_insts));
            if (mayMisspeculate(inst) && i >= spec_insts)
                problem(strFormat(
                    "code[%zu] %s: may misspeculate but sits outside "
                    "the speculative area [0, %u)", i,
                    mopName(inst.op), spec_insts));
        }

        for (size_t k = 0; k < region_blocks.size(); ++k) {
            const auto [start, id] = region_blocks[k];
            uint32_t end = k + 1 < region_blocks.size()
                               ? region_blocks[k + 1].first
                               : spec_insts;
            if (start > spec_insts || end > spec_insts) {
                problem(strFormat(
                    "region block %d emitted at [%u, %u), outside the "
                    "speculative area [0, %u)", id, start, end,
                    spec_insts));
                continue;
            }
            int64_t handler_at = startOf(mf_.blocks[id].handlerBlock);
            if (handler_at == kNotEmitted) {
                problem(strFormat(
                    "region block %d: handler %d was never emitted",
                    id, mf_.blocks[id].handlerBlock));
                continue;
            }
            for (uint32_t j = start; j < end; ++j) {
                const MachInst &sk = mf_.code[spec_insts + j];
                if (sk.op != MOp::B ||
                    sk.tag != InstTag::Skeleton ||
                    sk.target != static_cast<int>(handler_at)) {
                    problem(strFormat(
                        "skeleton slot %u (code[%u]) does not branch "
                        "to handler %d of region block %d (Eq. 1/2 "
                        "slot mapping)", j, spec_insts + j,
                        mf_.blocks[id].handlerBlock, id));
                }
            }
        }

        // Blocks outside all regions must sit past the skeleton area.
        for (const auto &mb : mf_.blocks) {
            if (mb.handlerBlock >= 0)
                continue;
            int64_t at = startOf(mb.id);
            if (at != kNotEmitted && at < 2 * int64_t{spec_insts} &&
                static_cast<size_t>(at) != mf_.code.size())
                problem(strFormat(
                    "non-region block %d emitted at %u, inside the "
                    "speculative/skeleton area [0, %u)", mb.id,
                    static_cast<uint32_t>(at), 2 * spec_insts));
        }
    }

    /** Handlers are entered by misspeculation only: never a branch
     *  target of normal code, never reachable by fall-through. */
    void
    checkHandlerEntry()
    {
        std::vector<char> handler_start(isStart_.size(), 0);
        for (const auto &mb : mf_.blocks) {
            if (!mb.isHandler)
                continue;
            int64_t start = startOf(mb.id);
            if (start == kNotEmitted)
                continue;
            uint32_t at = static_cast<uint32_t>(start);
            if (at < handler_start.size())
                handler_start[at] = 1;
            if (at > 0 && at <= mf_.code.size() &&
                !endsFallthrough(mf_.code[at - 1]))
                problem(strFormat(
                    "handler block %d at code[%u] is reachable by "
                    "fall-through from code[%u] (%s)", mb.id, at,
                    at - 1, mopName(mf_.code[at - 1].op)));
        }
        for (size_t i = 0; i < mf_.code.size(); ++i) {
            const MachInst &inst = mf_.code[i];
            if (inst.op == MOp::B &&
                inst.tag != InstTag::Skeleton && inst.target >= 0 &&
                static_cast<size_t>(inst.target) < handler_start.size() &&
                handler_start[inst.target])
                problem(strFormat(
                    "code[%zu]: non-skeleton branch targets a handler "
                    "block start (%d)", i, inst.target));
        }
    }

    /** Code index of block @p id, or kNotEmitted. */
    int64_t
    startOf(int id) const
    {
        return id >= 0 && static_cast<size_t>(id) < startOf_.size()
                   ? startOf_[id]
                   : kNotEmitted;
    }

    const MachFunction &mf_;
    std::vector<int64_t> startOf_; ///< By block id, from blockIndex.
    std::vector<char> isStart_;    ///< By code index: a block starts.
    std::vector<std::string> problems_;
};

} // namespace

std::vector<std::string>
verifyMachFunction(const MachFunction &mf)
{
    return MirVerifier(mf).run();
}

void
mirVerifyOrDie(const MachFunction &mf, const std::string &when)
{
    std::vector<std::string> problems = verifyMachFunction(mf);
    if (problems.empty())
        return;
    std::string msg =
        "MIR verification failed (" + when + "):";
    for (const std::string &p : problems)
        msg += "\n  " + p;
    panic(msg);
}

} // namespace bitspec
