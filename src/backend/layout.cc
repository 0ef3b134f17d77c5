#include "backend/layout.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.h"

namespace bitspec
{

namespace
{

constexpr int64_t kImmMax = 511; ///< Encodable ALU/memory immediate.

/** Does @p inst's b operand hold an immediate it cannot encode? */
bool
needsFixB(const MachInst &inst)
{
    if (!inst.b.isImm())
        return false;
    switch (inst.op) {
      case MOp::MOVW: case MOp::MOVT: case MOp::SETDELTA:
      case MOp::MODE: case MOp::B: case MOp::BL:
        return false;
      default:
        return inst.b.imm < 0 || inst.b.imm > kImmMax;
    }
}

/** Does @p inst's a operand (MOV/MOV8/OUT-style single-source
 *  immediates) hold an immediate it cannot encode? */
bool
needsFixA(const MachInst &inst)
{
    if (!inst.a.isImm())
        return false;
    if (inst.op == MOp::MOVW || inst.op == MOp::MOVT ||
        inst.op == MOp::SETDELTA || inst.op == MOp::MODE) {
        return false;
    }
    if (inst.op == MOp::MOV8)
        return inst.a.imm < 0 || inst.a.imm > 255;
    return inst.a.imm < 0 || inst.a.imm > kImmMax;
}

/** Three-address ALU ops, which the two-address form constrains. */
bool
isAlu3(MOp op)
{
    switch (op) {
      case MOp::ADD: case MOp::SUB: case MOp::MUL:
      case MOp::AND: case MOp::ORR: case MOp::EOR:
      case MOp::LSL: case MOp::LSR: case MOp::ASR:
      case MOp::UDIV: case MOp::SDIV:
        return true;
      default:
        return false;
    }
}

MachInst
frameInst(MOp op, MOpnd d, MOpnd a, MOpnd b)
{
    MachInst i;
    i.op = op;
    i.dst = d;
    i.a = a;
    i.b = b;
    i.tag = InstTag::FrameSetup;
    return i;
}

MachInst
copyInst(MOpnd d, MOpnd a)
{
    MachInst i;
    i.op = MOp::MOV;
    i.dst = d;
    i.a = a;
    i.tag = InstTag::Copy;
    return i;
}

/**
 * The post-allocation rewrite, one pass over each block: Thumb-like
 * two-address form, frame code and immediate legalisation. Each
 * instruction becomes, in order:
 *
 *  - with mf.twoAddress, for an ALU op whose destination differs from
 *    its first source: a save of a second source that aliases the
 *    destination (into r12, which the op then reads), and a move of
 *    the first source into the destination, which the op then reads;
 *  - before a BXLR: the epilogue (callee-saved registers and LR
 *    reloaded, the frame popped);
 *  - the instruction.
 *
 * The entry block starts with the Δ placeholder when @p set_delta,
 * then the prologue (frame pushed, callee-saved registers and LR
 * stored). Every instruction placed, frame code included, has its
 * out-of-range immediates loaded through the r12 scratch just before
 * it (b first, then a).
 */
void
rewriteBlocks(MachFunction &mf, bool set_delta)
{
    const unsigned save_lr = mf.hasCalls ? 1 : 0;
    const unsigned frame_bytes =
        (mf.spillSlots +
         static_cast<unsigned>(mf.usedCalleeSaved.size()) + save_lr) *
        4;
    const MOpnd sp = MOpnd::makeReg(kRegSP);

    std::vector<MachInst> out;
    auto materialize = [&](MOpnd &o) {
        auto v = static_cast<uint32_t>(o.imm);
        MachInst w;
        w.op = MOp::MOVW;
        w.dst = MOpnd::makeReg(kScratchAddr);
        w.a = MOpnd::makeImm(v & 0xffff);
        out.push_back(w);
        if (v >> 16) {
            MachInst t;
            t.op = MOp::MOVT;
            t.dst = MOpnd::makeReg(kScratchAddr);
            t.a = MOpnd::makeImm(v >> 16);
            out.push_back(t);
        }
        o = MOpnd::makeReg(kScratchAddr);
    };
    auto place = [&](MachInst inst) {
        if (needsFixB(inst))
            materialize(inst.b);
        if (needsFixA(inst))
            materialize(inst.a);
        out.push_back(inst);
    };
    // Callee-saved registers, then LR, above the spill slots.
    auto save_area = [&](MOp op) {
        unsigned off = mf.spillSlots * 4;
        for (unsigned r : mf.usedCalleeSaved) {
            place(frameInst(op, MOpnd::makeReg(r), sp,
                            MOpnd::makeImm(off)));
            off += 4;
        }
        if (save_lr)
            place(frameInst(op, MOpnd::makeReg(kRegLR), sp,
                            MOpnd::makeImm(off)));
    };

    auto two_address_moves = [&](const MachInst &inst) {
        return mf.twoAddress && isAlu3(inst.op) && inst.dst.isReg() &&
               inst.a.isReg() && inst.dst.reg != inst.a.reg;
    };
    auto changes = [&](const MachInst &inst) {
        return two_address_moves(inst) ||
               (inst.op == MOp::BXLR && frame_bytes > 0) ||
               needsFixB(inst) || needsFixA(inst);
    };

    for (size_t b = 0; b < mf.blocks.size(); ++b) {
        MachBlock &mb = mf.blocks[b];
        // Most blocks need none of it and keep their instructions.
        if ((b > 0 || (!set_delta && frame_bytes == 0)) &&
            std::none_of(mb.insts.begin(), mb.insts.end(), changes))
            continue;
        out.clear();
        out.reserve(mb.insts.size() + 4);
        if (b == 0) {
            if (set_delta) {
                MachInst sd;
                sd.op = MOp::SETDELTA;
                sd.a = MOpnd::makeImm(0);
                sd.tag = InstTag::FrameSetup;
                sd.target = -2;
                out.push_back(sd);
            }
            if (frame_bytes > 0) {
                place(frameInst(MOp::SUB, sp, sp,
                                MOpnd::makeImm(frame_bytes)));
                save_area(MOp::STR);
            }
        }
        for (MachInst inst : mb.insts) {
            if (two_address_moves(inst)) {
                if (inst.b.isReg() && inst.b.reg == inst.dst.reg) {
                    place(copyInst(MOpnd::makeReg(kScratchAddr), inst.b));
                    inst.b = MOpnd::makeReg(kScratchAddr);
                }
                place(copyInst(inst.dst, inst.a));
                inst.a = inst.dst;
            }
            if (inst.op == MOp::BXLR && frame_bytes > 0) {
                save_area(MOp::LDR);
                place(frameInst(MOp::ADD, sp, sp,
                                MOpnd::makeImm(frame_bytes)));
            }
            place(inst);
        }
        mb.insts.swap(out);
    }
}

} // namespace

unsigned
layoutFunction(MachFunction &mf)
{
    const size_t n = mf.blocks.size();
    if (n == 0)
        panic("layout: " + mf.name + " has no blocks");

    // Functions with speculative regions load Δ at entry (placeholder
    // patched below, once the speculative area size is known).
    bool any_region = false;
    for (auto &mb : mf.blocks)
        any_region |= mb.handlerBlock >= 0;
    rewriteBlocks(mf, any_region);

    // Block order: speculative-region blocks first (contiguously),
    // then everything else; skeletons sit between the two areas.
    std::vector<int> region_blocks, other_blocks;
    size_t total = 0, region_total = 0;
    for (auto &mb : mf.blocks) {
        total += mb.insts.size();
        if (mb.handlerBlock >= 0) {
            region_blocks.push_back(mb.id);
            region_total += mb.insts.size();
        } else {
            other_blocks.push_back(mb.id);
        }
    }

    mf.code.clear();
    mf.code.reserve(total + region_total); // At most one skeleton each.
    std::vector<uint32_t> start(n); ///< Block id -> code index.

    // Fall-through elision: an unconditional branch to the next block
    // in layout order is dead weight (CFG preparation splits blocks
    // aggressively, so this matters a lot for the speculative area).
    auto emit_area = [&](const std::vector<int> &ids) {
        for (size_t k = 0; k < ids.size(); ++k) {
            int id = ids[k];
            start[id] = static_cast<uint32_t>(mf.code.size());
            auto &insts = mf.blocks[id].insts;
            for (size_t j = 0; j < insts.size(); ++j) {
                const MachInst &inst = insts[j];
                bool last = j + 1 == insts.size();
                if (last && inst.op == MOp::B &&
                    inst.cond == Cond::AL && k + 1 < ids.size() &&
                    inst.target == ids[k + 1]) {
                    continue; // Falls through.
                }
                mf.code.push_back(inst);
            }
        }
    };

    emit_area(region_blocks);
    uint32_t spec_insts = static_cast<uint32_t>(mf.code.size());
    mf.delta = spec_insts * kInstBytes;

    // Skeleton area: slot i serves the speculative-area instruction i
    // (Eq. 1/2: a misspeculation at code index i redirects to index
    // i + Δ/4). Slot counts must follow the EMITTED per-block ranges
    // — fall-through elision above can drop a terminator, and using
    // the original instruction counts would skew every later slot's
    // handler mapping. The emitted range of each region block runs to
    // the next region block's start.
    unsigned skeletons = 0;
    for (size_t k = 0; k < region_blocks.size(); ++k) {
        int id = region_blocks[k];
        uint32_t end = k + 1 < region_blocks.size()
                           ? start[region_blocks[k + 1]]
                           : spec_insts;
        for (uint32_t j = start[id]; j < end; ++j) {
            MachInst sk;
            sk.op = MOp::B;
            sk.tag = InstTag::Skeleton;
            sk.target = mf.blocks[id].handlerBlock;
            mf.code.push_back(sk);
            ++skeletons;
        }
    }

    // Chain the non-speculative area greedily along unconditional
    // branches so elision fires as often as possible.
    {
        std::vector<char> in_other(n, 0), placed(n, 0);
        for (int id : other_blocks)
            in_other[id] = 1;
        std::vector<int> chained;
        chained.reserve(other_blocks.size());
        for (int seed : other_blocks) {
            int cur = seed;
            while (cur >= 0 && !placed[cur]) {
                placed[cur] = 1;
                chained.push_back(cur);
                const auto &insts = mf.blocks[cur].insts;
                int next = -1;
                if (!insts.empty() && insts.back().op == MOp::B &&
                    insts.back().cond == Cond::AL) {
                    int t = insts.back().target;
                    if (t >= 0 && static_cast<size_t>(t) < n &&
                        in_other[t] && !placed[t])
                        next = t;
                }
                cur = next;
            }
        }
        other_blocks = std::move(chained);
    }

    emit_area(other_blocks);
    // The blocks' instructions now live in mf.code alone.
    for (MachBlock &mb : mf.blocks)
        std::vector<MachInst>().swap(mb.insts);

    mf.blockIndex.clear();
    for (size_t id = 0; id < n; ++id)
        mf.blockIndex.emplace_hint(mf.blockIndex.end(),
                                   static_cast<int>(id), start[id]);
    mf.entryIndex = start[0];

    // Patch SETDELTA placeholders (entry + post-call restores) and
    // resolve local branch targets (block id -> code index).
    for (auto &inst : mf.code) {
        if (inst.op == MOp::SETDELTA && inst.target == -2) {
            inst.a = MOpnd::makeImm(mf.delta);
            inst.target = -1;
        } else if (inst.op == MOp::B) {
            if (inst.target < 0)
                panic("unresolved branch");
            if (static_cast<size_t>(inst.target) >= n)
                panic("layout: " + mf.name + ": branch to block " +
                      std::to_string(inst.target) + " of " +
                      std::to_string(n));
            inst.target = static_cast<int>(start[inst.target]);
        }
    }
    return skeletons;
}

MachProgram
linkProgram(std::vector<MachFunction> funcs, int entry_func)
{
    MachProgram prog;
    prog.entryFunc = entry_func;

    // _start stub: sp = kStackTop; lr = HALT sentinel; call main; HALT.
    std::vector<MachInst> stub;
    {
        MachInst w;
        w.op = MOp::MOVW;
        w.dst = MOpnd::makeReg(kRegSP);
        w.a = MOpnd::makeImm(MachProgram::kStackTop & 0xffff);
        stub.push_back(w);
        MachInst t;
        t.op = MOp::MOVT;
        t.dst = MOpnd::makeReg(kRegSP);
        t.a = MOpnd::makeImm(MachProgram::kStackTop >> 16);
        stub.push_back(t);
        MachInst bl;
        bl.op = MOp::BL;
        bl.target = entry_func;
        stub.push_back(bl);
        MachInst h;
        h.op = MOp::HALT;
        stub.push_back(h);
    }

    // Assign flat offsets; entries by function id.
    constexpr uint32_t kUnlinked = UINT32_MAX;
    uint32_t offset = static_cast<uint32_t>(stub.size());
    std::vector<uint32_t> func_entry; // Func id -> flat entry index.
    for (auto &mf : funcs) {
        if (mf.id < 0)
            panic("linkProgram: function " + mf.name + " has no id");
        if (func_entry.size() <= static_cast<size_t>(mf.id))
            func_entry.resize(mf.id + 1, kUnlinked);
        func_entry[mf.id] = offset + mf.entryIndex;
        mf.baseAddr = MachProgram::kCodeBase + offset * kInstBytes;
        mf.codeSize = static_cast<uint32_t>(mf.code.size());
        offset += mf.codeSize;
    }
    auto entry_of = [&](int id) {
        if (id < 0 || static_cast<size_t>(id) >= func_entry.size() ||
            func_entry[id] == kUnlinked)
            panic("linkProgram: call to unknown function " +
                  std::to_string(id));
        return static_cast<int>(func_entry[id]);
    };

    // Emit, rebasing local targets and resolving calls.
    prog.flat.reserve(offset);
    prog.funcOfIndex.reserve(offset);
    for (auto &inst : stub) {
        if (inst.op == MOp::BL)
            inst.target = entry_of(inst.target);
        prog.flat.push_back(inst);
        prog.funcOfIndex.push_back(0);
    }
    // Each function's code moves into flat; the function keeps only
    // its metadata.
    uint32_t base = static_cast<uint32_t>(stub.size());
    for (auto &mf : funcs) {
        for (MachInst inst : mf.code) {
            if (inst.op == MOp::B)
                inst.target += static_cast<int>(base);
            else if (inst.op == MOp::BL)
                inst.target = entry_of(inst.target);
            prog.flat.push_back(inst);
            prog.funcOfIndex.push_back(static_cast<uint32_t>(mf.id));
        }
        base += mf.codeSize;
        std::vector<MachInst>().swap(mf.code);
    }
    prog.funcs = std::move(funcs);
    return prog;
}

} // namespace bitspec
