#include "backend/isel.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "analysis/cfg.h"
#include "support/bits.h"
#include "support/error.h"

namespace bitspec
{

namespace
{

Cond
predToCond(CmpPred p)
{
    switch (p) {
      case CmpPred::EQ: return Cond::EQ;
      case CmpPred::NE: return Cond::NE;
      case CmpPred::ULT: return Cond::LO;
      case CmpPred::ULE: return Cond::LS;
      case CmpPred::UGT: return Cond::HI;
      case CmpPred::UGE: return Cond::HS;
      case CmpPred::SLT: return Cond::LT;
      case CmpPred::SLE: return Cond::LE;
      case CmpPred::SGT: return Cond::GT;
      case CmpPred::SGE: return Cond::GE;
    }
    panic("predToCond");
}

class ISel
{
  public:
    ISel(Function &f, int func_id, TargetISA isa,
         const std::map<const Function *, int> &ids)
        : f_(f), isa_(isa), funcIds_(ids)
    {
        mf_.name = f.name();
        mf_.id = func_id;
        if (isa == TargetISA::Thumb) {
            mf_.lastAllocReg = 7;
            mf_.twoAddress = true;
        }
    }

    /** Puts back the instruction ids numberValues() replaced. */
    ~ISel()
    {
        size_t k = 0;
        for (auto &bb : f_.blocks())
            for (auto &inst : bb->insts()) {
                if (k == savedIds_.size())
                    return;
                inst->setId(savedIds_[k++]);
            }
    }

    MachFunction
    run()
    {
        splitCriticalEdges();
        numberValues();
        countUses();

        // Create one MachBlock per IR block (ids follow order).
        mf_.blocks.resize(f_.blocks().size());
        for (size_t b = 0; b < mf_.blocks.size(); ++b) {
            mf_.blocks[b].id = static_cast<int>(b);
            mf_.blocks[b].name = f_.blocks()[b]->name();
        }
        // Region membership (SMIR propagation, §3.3.1). Region id and
        // source line ride along for misspeculation attribution.
        for (const auto &sr : f_.specRegions()) {
            int hid = blockId(sr->handler);
            mf_.blocks[hid].isHandler = true;
            mf_.blocks[hid].regionId = sr->id;
            mf_.blocks[hid].regionSrcLine = sr->srcLine;
            mf_.blocks[hid].regionLeakSites = sr->leakSites;
            mf_.blocks[hid].regionLeaksDischarged = sr->leaksDischarged;
            for (BasicBlock *member : sr->blocks) {
                MachBlock &mb = mf_.blocks[blockId(member)];
                mb.handlerBlock = hid;
                mb.regionId = sr->id;
                mb.regionSrcLine = sr->srcLine;
                mb.regionLeakSites = sr->leakSites;
                mb.regionLeaksDischarged = sr->leaksDischarged;
            }
        }

        for (size_t b = 0; b < mf_.blocks.size(); ++b) {
            cur_ = &mf_.blocks[b];
            emitBlock(*f_.blocks()[b]);
        }
        return std::move(mf_);
    }

  private:
    static constexpr uint32_t kNoVReg = UINT32_MAX;

    // Split edges from multi-successor blocks into blocks with phis
    // so phi copies have a unique home. One pass, by index: a split
    // rewrites only this block's terminator and the successor's phi
    // inputs, and appends a block with one successor and no phis, so
    // no other block gains or loses an edge to split, and the splits,
    // their order and the block names are those of rescanning from
    // the first block after every split. The successors are re-read
    // after each split: in `condbr c, A, A` both edges move to the one
    // new block, so A is split once.
    void
    splitCriticalEdges()
    {
        const size_t n = f_.blocks().size();
        for (size_t b = 0; b < n; ++b) {
            BasicBlock *bb = f_.blocks()[b].get();
            if (bb->successors().size() < 2)
                continue;
            for (size_t i = 0; i < bb->successors().size(); ++i) {
                BasicBlock *succ = bb->successors()[i];
                if (succ->hasPhis())
                    splitEdge(f_, bb, succ);
            }
        }
    }

    /**
     * Give every value an isel-local slot: arguments by index, then
     * instructions in block order. An instruction's slot lives in its
     * id for the duration of the selection; the destructor restores
     * the ids found, which the printer uses to name unnamed values.
     */
    void
    numberValues()
    {
        const unsigned nargs = static_cast<unsigned>(f_.numArgs());
        unsigned slot = nargs;
        blockOfSlot_.assign(nargs, -1);
        for (size_t b = 0; b < f_.blocks().size(); ++b) {
            for (auto &inst : f_.blocks()[b]->insts()) {
                savedIds_.push_back(inst->id());
                inst->setId(slot++);
                blockOfSlot_.push_back(static_cast<int>(b));
            }
        }
        vreg_.assign(slot, kNoVReg);
        uses_.assign(slot, 0);
    }

    void
    countUses()
    {
        for (auto &bb : f_.blocks())
            for (auto &inst : bb->insts())
                for (Value *op : inst->operands())
                    if (op->isInstruction())
                        ++uses_[static_cast<Instruction *>(op)->id()];
    }

    /** The id of @p bb's MachBlock: the block of its first
     *  instruction's slot. Blocks reaching the backend end in a
     *  terminator, so none is empty. */
    int
    blockId(const BasicBlock *bb) const
    {
        if (bb->empty())
            panic("isel: " + f_.name() + ": empty block " + bb->name());
        return blockOfSlot_[bb->insts().front()->id()];
    }

    /** The isel-local slot of argument or instruction @p v. */
    static unsigned
    slotOf(const Value *v)
    {
        if (v->kind() == ValueKind::Argument)
            return static_cast<const Argument *>(v)->index();
        if (!v->isInstruction())
            panic("isel: a constant or global has no vreg");
        return static_cast<const Instruction *>(v)->id();
    }

    /** Is this icmp's only consumer the terminator of its own block?
     *  Then the compare fuses into the branch. */
    bool
    fusesIntoBranch(const Instruction *icmp) const
    {
        if (uses_[icmp->id()] != 1)
            return false;
        const Instruction *term = icmp->parent()->terminator();
        return term->op() == Opcode::CondBr && term->operand(0) == icmp;
    }

    bool useSlices() const { return isa_ == TargetISA::BitSpec; }

    bool
    isSliceValue(const Value *v) const
    {
        return useSlices() && v->type().bits == 8;
    }

    void
    emit(MachInst inst)
    {
        cur_->insts.push_back(inst);
    }

    MachInst
    make(MOp op, MOpnd dst = MOpnd{}, MOpnd a = MOpnd{},
         MOpnd b = MOpnd{})
    {
        MachInst i;
        i.op = op;
        i.dst = dst;
        i.a = a;
        i.b = b;
        return i;
    }

    /** @p v's vreg, created on first request. */
    uint32_t
    vregOf(const Value *v)
    {
        uint32_t &vr = vreg_[slotOf(v)];
        if (vr == kNoVReg)
            vr = mf_.newVReg(isSliceValue(v));
        return vr;
    }

    MOpnd
    vregOpnd(const Value *v)
    {
        return MOpnd::makeVReg(vregOf(v), isSliceValue(v));
    }

    /** Materialise @p v into a register-class operand. */
    MOpnd
    regOperand(Value *v)
    {
        switch (v->kind()) {
          case ValueKind::Constant: {
            uint64_t c = static_cast<Constant *>(v)->value();
            if (isSliceValue(v)) {
                uint32_t t = mf_.newVReg(true);
                emit(make(MOp::MOV8, MOpnd::makeVReg(t, true),
                          MOpnd::makeImm(static_cast<int64_t>(c))));
                return MOpnd::makeVReg(t, true);
            }
            return materializeConst32(static_cast<uint32_t>(c));
          }
          case ValueKind::GlobalRef: {
            uint32_t addr =
                static_cast<GlobalRef *>(v)->global()->address();
            return materializeConst32(addr);
          }
          default:
            return vregOpnd(v);
        }
    }

    MOpnd
    materializeConst32(uint32_t c)
    {
        uint32_t t = mf_.newVReg(false);
        MOpnd d = MOpnd::makeVReg(t, false);
        emit(make(MOp::MOVW, d, MOpnd::makeImm(c & 0xffff)));
        if (c >> 16)
            emit(make(MOp::MOVT, d, MOpnd::makeImm(c >> 16)));
        return d;
    }

    /** Source operand for an ALU op: immediate when it fits. */
    MOpnd
    aluOperand(Value *v, bool slice_ctx)
    {
        if (v->isConstant()) {
            int64_t c = static_cast<int64_t>(
                static_cast<Constant *>(v)->value());
            // Table 1: 8-bit ops take imm4; 32-bit ALU takes the
            // encodable 10-bit immediate.
            if (slice_ctx && c >= 0 && c <= 15)
                return MOpnd::makeImm(c);
            if (!slice_ctx && c >= 0 && c <= 511)
                return MOpnd::makeImm(c);
        }
        return regOperand(v);
    }

    /** Zero-extend @p v (any class) into a fresh W vreg operand. */
    MOpnd
    wideOperand(Value *v)
    {
        MOpnd o = regOperand(v);
        if (o.isVReg() && o.vregIsSlice) {
            uint32_t t = mf_.newVReg(false);
            MOpnd d = MOpnd::makeVReg(t, false);
            emit(make(MOp::UXT8, d, o));
            return d;
        }
        return o;
    }

    // ---------------- Per-instruction selection ----------------

    void
    emitBinary(Instruction &inst)
    {
        unsigned bits = inst.type().bits;
        if (bits > 32)
            panic("64-bit values unsupported by EMB32: " + f_.name());
        bool slice = useSlices() && bits == 8;

        struct OpInfo
        {
            MOp wide, narrow;
            bool mask16;
        };
        auto info = [&]() -> OpInfo {
            switch (inst.op()) {
              case Opcode::Add: return {MOp::ADD, MOp::ADD8, true};
              case Opcode::Sub: return {MOp::SUB, MOp::SUB8, true};
              case Opcode::Mul: return {MOp::MUL, MOp::MUL, true};
              case Opcode::And: return {MOp::AND, MOp::AND8, false};
              case Opcode::Or: return {MOp::ORR, MOp::ORR8, false};
              case Opcode::Xor: return {MOp::EOR, MOp::EOR8, false};
              case Opcode::Shl: return {MOp::LSL, MOp::LSL, true};
              case Opcode::LShr: return {MOp::LSR, MOp::LSR, false};
              case Opcode::AShr: return {MOp::ASR, MOp::ASR, false};
              case Opcode::UDiv: return {MOp::UDIV, MOp::UDIV, false};
              case Opcode::SDiv: return {MOp::SDIV, MOp::SDIV, true};
              case Opcode::URem:
              case Opcode::SRem: return {MOp::NOP, MOp::NOP, false};
              default: panic("emitBinary: bad op");
            }
        }();

        if (inst.op() == Opcode::URem || inst.op() == Opcode::SRem) {
            emitRem(inst);
            return;
        }

        if (slice) {
            if (inst.op() != Opcode::Add && inst.op() != Opcode::Sub &&
                inst.op() != Opcode::And && inst.op() != Opcode::Or &&
                inst.op() != Opcode::Xor)
                panic("no slice form for op in " + f_.name());
            MachInst mi = make(info.narrow, vregOpnd(&inst),
                               regOperand(inst.operand(0)),
                               aluOperand(inst.operand(1), true));
            mi.speculative = inst.isSpeculative();
            emit(mi);
            return;
        }

        // i8 on the baseline ISA: compute in 32 bits, re-mask where
        // the operation can carry into the high bits.
        MOpnd a = wideOperand(inst.operand(0));
        MOpnd b = aluOperand(inst.operand(1), false);
        if (b.isVReg() && b.vregIsSlice)
            b = wideOperand(inst.operand(1));

        // Signed ops on sub-word values need sign extension first.
        if ((inst.op() == Opcode::SDiv || inst.op() == Opcode::AShr) &&
            bits < 32) {
            a = signExtendSub32(a, bits);
            if (!b.isImm())
                b = signExtendSub32(b, bits);
        }

        MOpnd d = vregOpnd(&inst);
        emit(make(info.wide, d, a, b));
        if (bits < 32 && (info.mask16 || inst.op() == Opcode::SDiv ||
                          inst.op() == Opcode::AShr)) {
            maskTo(d, bits == 8 ? 8 : 16);
        }
    }

    /** Mask register operand @p d down to @p bits in place. */
    void
    maskTo(MOpnd d, unsigned bits)
    {
        if (bits == 16) {
            emit(make(MOp::UXTH, d, d));
        } else {
            emit(make(MOp::AND, d, d, MOpnd::makeImm(0xff)));
        }
    }

    MOpnd
    signExtendSub32(MOpnd v, unsigned bits)
    {
        uint32_t t = mf_.newVReg(false);
        MOpnd d = MOpnd::makeVReg(t, false);
        emit(make(bits == 8 ? MOp::SXT8 : MOp::SXTH, d, v));
        return d;
    }

    void
    emitRem(Instruction &inst)
    {
        unsigned bits = inst.type().bits;
        bool is_signed = inst.op() == Opcode::SRem;
        MOpnd a = wideOperand(inst.operand(0));
        MOpnd b = wideOperand(inst.operand(1));
        if (is_signed && bits < 32) {
            a = signExtendSub32(a, bits);
            b = signExtendSub32(b, bits);
        }
        MOpnd q = MOpnd::makeVReg(mf_.newVReg(false), false);
        MOpnd p = MOpnd::makeVReg(mf_.newVReg(false), false);
        MOpnd d = vregOpnd(&inst);
        emit(make(is_signed ? MOp::SDIV : MOp::UDIV, q, a, b));
        emit(make(MOp::MUL, p, q, b));
        if (isSliceValue(&inst)) {
            MOpnd w = MOpnd::makeVReg(mf_.newVReg(false), false);
            emit(make(MOp::SUB, w, a, p));
            MachInst tr = make(MOp::TRN8, d, w);
            emit(tr);
        } else {
            emit(make(MOp::SUB, d, a, p));
            if (bits < 32)
                maskTo(d, bits);
        }
    }

    void
    emitCompare(const Instruction &icmp)
    {
        Value *a = icmp.operand(0);
        Value *b = icmp.operand(1);
        unsigned bits = a->type().bits;
        bool slice = useSlices() && bits == 8;
        bool sext_needed =
            bits < 32 &&
            (icmp.pred() == CmpPred::SLT || icmp.pred() == CmpPred::SLE ||
             icmp.pred() == CmpPred::SGT || icmp.pred() == CmpPred::SGE);

        if (slice) {
            if (sext_needed)
                panic("signed slice compare");
            emit(make(MOp::CMP8, MOpnd{}, regOperand(a),
                      aluOperand(b, true)));
            return;
        }
        MOpnd ma = wideOperand(a);
        MOpnd mb = aluOperand(b, false);
        if (mb.isVReg() && mb.vregIsSlice)
            mb = wideOperand(b);
        if (sext_needed) {
            ma = signExtendSub32(ma, bits == 8 ? 8 : 16);
            if (!mb.isImm())
                mb = signExtendSub32(mb, bits == 8 ? 8 : 16);
        }
        emit(make(MOp::CMP, MOpnd{}, ma, mb));
    }

    void
    emitPhiCopies(BasicBlock &pred, BasicBlock &succ)
    {
        if (!succ.hasPhis())
            return;

        struct Pair
        {
            MOpnd dst;
            MOpnd src;
        };
        std::vector<Pair> pending;
        for (const auto &ip : succ.insts()) {
            if (!ip->isPhi())
                break;
            Instruction *phi = ip.get();
            for (size_t i = 0; i < phi->numOperands(); ++i) {
                if (phi->blockOperand(i) != &pred)
                    continue;
                MOpnd dst = vregOpnd(phi);
                MOpnd src = regOperandOrImm(phi->operand(i),
                                            isSliceValue(phi));
                pending.push_back({dst, src});
            }
        }

        // Sequentialise the parallel copy (cycles via a temp).
        auto is_pending_src = [&](const MOpnd &d) {
            for (const Pair &p : pending)
                if (p.src.isVReg() && d.isVReg() &&
                    p.src.vreg == d.vreg) {
                    return true;
                }
            return false;
        };
        while (!pending.empty()) {
            bool progress = false;
            for (size_t i = 0; i < pending.size(); ++i) {
                if (!is_pending_src(pending[i].dst)) {
                    emitCopy(pending[i].dst, pending[i].src);
                    pending.erase(pending.begin() +
                                  static_cast<long>(i));
                    progress = true;
                    break;
                }
            }
            if (progress)
                continue;
            // Cycle: save one destination's old value in a temp.
            Pair &p = pending.front();
            bool slice = p.dst.vregIsSlice;
            MOpnd t = MOpnd::makeVReg(mf_.newVReg(slice), slice);
            emitCopy(t, p.dst);
            for (Pair &q : pending) {
                if (q.src.isVReg() && q.src.vreg == p.dst.vreg)
                    q.src = t;
            }
        }
    }

    /** Phi sources: immediates stay immediates where a MOV accepts
     *  them; others become register operands. */
    MOpnd
    regOperandOrImm(Value *v, bool slice_dst)
    {
        if (v->isConstant()) {
            int64_t c = static_cast<int64_t>(
                static_cast<Constant *>(v)->value());
            if (slice_dst && c <= 255)
                return MOpnd::makeImm(c);
            if (!slice_dst && c >= 0 && c <= 511)
                return MOpnd::makeImm(c);
        }
        return regOperand(v);
    }

    void
    emitCopy(MOpnd dst, MOpnd src)
    {
        MachInst mi = make(dst.vregIsSlice || dst.isSlice()
                               ? MOp::MOV8
                               : MOp::MOV,
                           dst, src);
        mi.tag = InstTag::Copy;
        emit(mi);
    }

    void
    emitTerminator(BasicBlock &bb, Instruction &term)
    {
        switch (term.op()) {
          case Opcode::Br: {
            BasicBlock *dest = term.blockOperand(0);
            emitPhiCopies(bb, *dest);
            MachInst br = make(MOp::B);
            br.target = blockId(dest);
            emit(br);
            return;
          }
          case Opcode::CondBr: {
            // Critical edges are split: CondBr targets carry no phis.
            Value *cond = term.operand(0);
            Cond cc;
            if (cond->isInstruction() &&
                static_cast<Instruction *>(cond)->op() == Opcode::ICmp) {
                auto *icmp = static_cast<Instruction *>(cond);
                emitCompare(*icmp);
                cc = predToCond(icmp->pred());
            } else {
                emit(make(MOp::CMP, MOpnd{}, wideOperand(cond),
                          MOpnd::makeImm(0)));
                cc = Cond::NE;
            }
            MachInst bt = make(MOp::B);
            bt.cond = cc;
            bt.target = blockId(term.blockOperand(0));
            emit(bt);
            MachInst bf = make(MOp::B);
            bf.target = blockId(term.blockOperand(1));
            emit(bf);
            return;
          }
          case Opcode::Ret: {
            if (term.numOperands()) {
                MOpnd v = wideOperand(term.operand(0));
                emit(make(MOp::MOV, MOpnd::makeReg(0), v));
            }
            emit(make(MOp::BXLR));
            return;
          }
          case Opcode::Unreachable:
            emit(make(MOp::HALT));
            return;
          default:
            panic("emitTerminator: bad opcode");
        }
    }

    void
    emitBlock(BasicBlock &bb)
    {
        // Entry: receive arguments from r0..r3.
        if (&bb == f_.entry()) {
            if (f_.numArgs() > 4)
                panic("more than 4 arguments unsupported: " + f_.name());
            for (size_t i = 0; i < f_.numArgs(); ++i) {
                Argument *arg = f_.arg(i);
                if (isSliceValue(arg)) {
                    emit(make(MOp::TRN8, vregOpnd(arg),
                              MOpnd::makeReg(static_cast<unsigned>(i))));
                } else {
                    MachInst mi = make(MOp::MOV, vregOpnd(arg),
                                       MOpnd::makeReg(
                                           static_cast<unsigned>(i)));
                    mi.tag = InstTag::Copy;
                    emit(mi);
                }
            }
        }

        for (auto &instp : bb.insts()) {
            Instruction &inst = *instp;
            switch (inst.op()) {
              case Opcode::Phi:
                // Defined by predecessor copies.
                (void)vregOf(&inst);
                break;
              case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
              case Opcode::UDiv: case Opcode::SDiv: case Opcode::URem:
              case Opcode::SRem: case Opcode::And: case Opcode::Or:
              case Opcode::Xor: case Opcode::Shl: case Opcode::LShr:
              case Opcode::AShr:
                emitBinary(inst);
                break;
              case Opcode::ICmp:
                if (!fusesIntoBranch(&inst)) {
                    emitCompare(inst);
                    MachInst mi = make(MOp::SETCC, vregOpnd(&inst));
                    mi.cond = predToCond(inst.pred());
                    emit(mi);
                }
                break;
              case Opcode::Select:
                emitSelect(inst);
                break;
              case Opcode::ZExt:
                emitZExt(inst);
                break;
              case Opcode::SExt:
                emitSExt(inst);
                break;
              case Opcode::Trunc:
                emitTrunc(inst);
                break;
              case Opcode::Load:
                emitLoad(inst);
                break;
              case Opcode::Store:
                emitStore(inst);
                break;
              case Opcode::Call:
                emitCall(inst);
                break;
              case Opcode::Output: {
                MOpnd v = wideOperand(inst.operand(0));
                emit(make(MOp::OUT, MOpnd{}, v));
                break;
              }
              case Opcode::Br:
              case Opcode::CondBr:
              case Opcode::Ret:
              case Opcode::Unreachable:
                emitTerminator(bb, inst);
                break;
            }
        }
    }

    void
    emitSelect(Instruction &inst)
    {
        MOpnd c = wideOperand(inst.operand(0));
        bool slice = isSliceValue(&inst);
        MOpnd d = vregOpnd(&inst);
        MOpnd fv = regOperandOrImm(inst.operand(2), slice);
        MOpnd tv = regOperandOrImm(inst.operand(1), slice);
        emit(make(MOp::CMP, MOpnd{}, c, MOpnd::makeImm(0)));
        MachInst mf = make(slice ? MOp::MOV8 : MOp::MOV, d, fv);
        emit(mf);
        MachInst mt = make(slice ? MOp::MOV8 : MOp::MOV, d, tv);
        mt.cond = Cond::NE;
        emit(mt);
    }

    void
    emitZExt(Instruction &inst)
    {
        Value *src = inst.operand(0);
        unsigned from = src->type().bits;
        MOpnd d = vregOpnd(&inst);
        if (useSlices() && from == 8) {
            emit(make(MOp::UXT8, d, regOperand(src)));
        } else {
            // Sub-word values are kept zero-extended in W registers.
            MachInst mi = make(MOp::MOV, d, wideOperand(src));
            mi.tag = InstTag::Copy;
            emit(mi);
        }
    }

    void
    emitSExt(Instruction &inst)
    {
        Value *src = inst.operand(0);
        unsigned from = src->type().bits;
        MOpnd d = vregOpnd(&inst);
        if (from == 8) {
            emit(make(MOp::SXT8, d, regOperand(src)));
        } else if (from == 16) {
            emit(make(MOp::SXTH, d, wideOperand(src)));
        } else {
            if (from != 1)
                panic("bad sext width");
            // i1: 0/-0 stays 0; 1 -> 0xffffffff via 0 - v.
            MOpnd z = materializeConst32(0);
            emit(make(MOp::SUB, d, z, wideOperand(src)));
        }
        if (inst.type().bits < 32)
            maskTo(d, inst.type().bits);
    }

    void
    emitTrunc(Instruction &inst)
    {
        Value *src = inst.operand(0);
        unsigned to = inst.type().bits;
        MOpnd d = vregOpnd(&inst);
        if (to == 8 && useSlices()) {
            MachInst tr = make(MOp::TRN8, d, wideOperand(src));
            tr.speculative = inst.isSpeculative();
            emit(tr);
            return;
        }
        MOpnd s = wideOperand(src);
        if (to == 8) {
            emit(make(MOp::AND, d, s, MOpnd::makeImm(0xff)));
        } else if (to == 16) {
            emit(make(MOp::UXTH, d, s));
        } else {
            MachInst mi = make(MOp::MOV, d, s);
            mi.tag = InstTag::Copy;
            emit(mi);
        }
    }

    void
    emitLoad(Instruction &inst)
    {
        MOpnd addr = regOperand(inst.operand(0));
        MOpnd d = vregOpnd(&inst);
        unsigned bits = inst.type().bits;
        MOpnd off = MOpnd::makeImm(0);
        if (bits == 8 && useSlices()) {
            if (inst.isSpeculative()) {
                MachInst ld = make(MOp::LDRS8, d, addr, off);
                ld.speculative = true;
                ld.origBits = static_cast<uint8_t>(inst.specOrigBits());
                emit(ld);
            } else {
                emit(make(MOp::LDRB8, d, addr, off));
            }
            return;
        }
        if (inst.isSpeculative())
            panic("speculative load outside slice ISA");
        switch (bits) {
          case 8: emit(make(MOp::LDRB, d, addr, off)); break;
          case 16: emit(make(MOp::LDRH, d, addr, off)); break;
          case 32: emit(make(MOp::LDR, d, addr, off)); break;
          default: fatal("unsupported load width in " + f_.name());
        }
    }

    void
    emitStore(Instruction &inst)
    {
        MOpnd addr = regOperand(inst.operand(0));
        Value *v = inst.operand(1);
        unsigned bits = v->type().bits;
        MOpnd off = MOpnd::makeImm(0);
        if (bits == 8 && useSlices()) {
            emit(make(MOp::STRB8, regOperand(v), addr, off));
            return;
        }
        MOpnd data = wideOperand(v);
        switch (bits) {
          case 8: emit(make(MOp::STRB, data, addr, off)); break;
          case 16: emit(make(MOp::STRH, data, addr, off)); break;
          case 32: emit(make(MOp::STR, data, addr, off)); break;
          default: fatal("unsupported store width in " + f_.name());
        }
    }

    void
    emitCall(Instruction &inst)
    {
        if (inst.numOperands() > 4)
            panic("more than 4 call arguments: " + f_.name());
        mf_.hasCalls = true;
        for (size_t i = 0; i < inst.numOperands(); ++i) {
            MOpnd v = wideOperand(inst.operand(i));
            emit(make(MOp::MOV,
                      MOpnd::makeReg(static_cast<unsigned>(i)), v));
        }
        MachInst bl = make(MOp::BL);
        bl.target = funcIds_.at(inst.callee());
        emit(bl);
        // Restore this function's misspec redirect distance (the
        // callee overwrote it). Patched during layout.
        MachInst sd = make(MOp::SETDELTA, MOpnd{},
                           MOpnd::makeImm(0));
        sd.tag = InstTag::FrameSetup;
        sd.target = -2; // "patch with this function's delta".
        emit(sd);
        if (!inst.type().isVoid()) {
            if (isSliceValue(&inst)) {
                emit(make(MOp::TRN8, vregOpnd(&inst),
                          MOpnd::makeReg(0)));
            } else {
                MachInst mi = make(MOp::MOV, vregOpnd(&inst),
                                   MOpnd::makeReg(0));
                mi.tag = InstTag::Copy;
                emit(mi);
            }
        }
    }

    Function &f_;
    TargetISA isa_;
    const std::map<const Function *, int> &funcIds_;
    MachFunction mf_;
    MachBlock *cur_ = nullptr;
    std::vector<unsigned> savedIds_;   ///< Ids found, in block order.
    std::vector<int> blockOfSlot_;     ///< By slot; -1 for arguments.
    std::vector<uint32_t> vreg_;       ///< By slot; kNoVReg until used.
    std::vector<unsigned> uses_;       ///< By slot: operand uses.
};

} // namespace

MachFunction
selectFunction(Function &f, int func_id, TargetISA isa,
               const std::map<const Function *, int> &ids)
{
    return ISel(f, func_id, isa, ids).run();
}

} // namespace bitspec
