#include <gtest/gtest.h>

#include "isa/encoding.h"
#include "isa/isa.h"

namespace bitspec
{
namespace
{

MachInst
inst(MOp op, MOpnd d = {}, MOpnd a = {}, MOpnd b = {})
{
    MachInst i;
    i.op = op;
    i.dst = d;
    i.a = a;
    i.b = b;
    return i;
}

void
expectRoundTrip(const MachInst &in, uint32_t self = 100)
{
    uint32_t word = encodeInst(in, self);
    MachInst out = decodeInst(word, self);
    EXPECT_EQ(out.op, in.op) << in.str();
    EXPECT_EQ(out.cond, in.cond) << in.str();
    EXPECT_EQ(out.speculative, in.speculative) << in.str();
    EXPECT_EQ(static_cast<int>(out.dst.kind),
              static_cast<int>(in.dst.kind)) << in.str();
    if (in.dst.isReg() || in.dst.isSlice()) {
        EXPECT_EQ(out.dst.reg, in.dst.reg) << in.str();
        EXPECT_EQ(out.dst.slice, in.dst.slice) << in.str();
    }
    if (in.a.isImm()) {
        EXPECT_EQ(out.a.imm, in.a.imm) << in.str();
    }
    if (in.b.isImm()) {
        EXPECT_EQ(out.b.imm, in.b.imm) << in.str();
    }
    if (in.b.isReg() || in.b.isSlice()) {
        EXPECT_EQ(out.b.reg, in.b.reg) << in.str();
        EXPECT_EQ(out.b.slice, in.b.slice) << in.str();
    }
    if (in.op == MOp::B || in.op == MOp::BL) {
        EXPECT_EQ(out.target, in.target) << in.str();
    }
    if (in.op == MOp::LDRS8) {
        EXPECT_EQ(out.origBits, in.origBits) << in.str();
    }
}

TEST(Encoding, AluRegisterForms)
{
    expectRoundTrip(inst(MOp::ADD, MOpnd::makeReg(4), MOpnd::makeReg(5),
                         MOpnd::makeReg(6)));
    expectRoundTrip(inst(MOp::EOR, MOpnd::makeReg(11),
                         MOpnd::makeReg(4), MOpnd::makeReg(11)));
    expectRoundTrip(inst(MOp::MUL, MOpnd::makeReg(7), MOpnd::makeReg(8),
                         MOpnd::makeReg(9)));
}

TEST(Encoding, AluImmediateForms)
{
    expectRoundTrip(inst(MOp::ADD, MOpnd::makeReg(4), MOpnd::makeReg(5),
                         MOpnd::makeImm(511)));
    expectRoundTrip(inst(MOp::LSR, MOpnd::makeReg(4), MOpnd::makeReg(5),
                         MOpnd::makeImm(31)));
    expectRoundTrip(inst(MOp::CMP, MOpnd{}, MOpnd::makeReg(5),
                         MOpnd::makeImm(0)));
}

TEST(Encoding, SliceOperands)
{
    MachInst add8 = inst(MOp::ADD8, MOpnd::makeSlice(4, 2),
                         MOpnd::makeSlice(4, 3), MOpnd::makeImm(15));
    add8.speculative = true;
    expectRoundTrip(add8);

    expectRoundTrip(inst(MOp::EOR8, MOpnd::makeSlice(10, 0),
                         MOpnd::makeSlice(9, 1),
                         MOpnd::makeSlice(8, 2)));
    expectRoundTrip(inst(MOp::UXT8, MOpnd::makeReg(5),
                         MOpnd::makeSlice(6, 3)));
}

TEST(Encoding, SpeculativeMemory)
{
    MachInst ld = inst(MOp::LDRS8, MOpnd::makeSlice(4, 1),
                       MOpnd::makeReg(6), MOpnd::makeImm(0));
    ld.speculative = true;
    ld.origBits = 32;
    expectRoundTrip(ld);
    ld.origBits = 16;
    expectRoundTrip(ld);

    MachInst tr = inst(MOp::TRN8, MOpnd::makeSlice(4, 0),
                       MOpnd::makeReg(7));
    tr.speculative = true;
    expectRoundTrip(tr);
    tr.speculative = false;
    expectRoundTrip(tr);
}

TEST(Encoding, Branches)
{
    MachInst b = inst(MOp::B);
    b.target = 500;
    expectRoundTrip(b, 100);
    b.cond = Cond::LS;
    b.target = 3;
    expectRoundTrip(b, 100); // Backwards.
    MachInst bl = inst(MOp::BL);
    bl.target = 0;
    expectRoundTrip(bl, 2000);
}

TEST(Encoding, MovFamily)
{
    expectRoundTrip(inst(MOp::MOV, MOpnd::makeReg(4),
                         MOpnd::makeReg(5)));
    MachInst cmov = inst(MOp::MOV, MOpnd::makeReg(4),
                         MOpnd::makeReg(5));
    cmov.cond = Cond::NE;
    expectRoundTrip(cmov);
    expectRoundTrip(inst(MOp::MOV8, MOpnd::makeSlice(4, 1),
                         MOpnd::makeImm(255)));
    expectRoundTrip(inst(MOp::MOVW, MOpnd::makeReg(12),
                         MOpnd::makeImm(0xbeef)));
    expectRoundTrip(inst(MOp::MOVT, MOpnd::makeReg(12),
                         MOpnd::makeImm(0xdead)));
    MachInst scc = inst(MOp::SETCC, MOpnd::makeReg(6));
    scc.cond = Cond::GT;
    expectRoundTrip(scc);
}

TEST(Encoding, System)
{
    MachInst sd = inst(MOp::SETDELTA, MOpnd{}, MOpnd::makeImm(4096));
    expectRoundTrip(sd);
    MachInst mode = inst(MOp::MODE, MOpnd{}, MOpnd::makeImm(1));
    expectRoundTrip(mode);
    expectRoundTrip(inst(MOp::BXLR));
    expectRoundTrip(inst(MOp::HALT));
    expectRoundTrip(inst(MOp::OUT, MOpnd{}, MOpnd::makeReg(3)));
}

TEST(Encoding, WholeProgramRoundTrip)
{
    std::vector<MachInst> prog;
    prog.push_back(inst(MOp::MOVW, MOpnd::makeReg(13),
                        MOpnd::makeImm(0xfff0)));
    prog.push_back(inst(MOp::ADD, MOpnd::makeReg(4),
                        MOpnd::makeReg(5), MOpnd::makeImm(1)));
    MachInst b = inst(MOp::B);
    b.target = 0;
    prog.push_back(b);
    auto words = encodeProgram(prog);
    auto back = decodeProgram(words);
    ASSERT_EQ(back.size(), prog.size());
    EXPECT_EQ(back[2].target, 0);
}

TEST(Isa, MisspeculationTable)
{
    // Table 1: add/sub misspeculate (speculative forms), logic and
    // compares never do, spec loads/truncs by flag.
    MachInst add8 = inst(MOp::ADD8);
    add8.speculative = true;
    EXPECT_TRUE(mayMisspeculate(add8));
    add8.speculative = false;
    EXPECT_FALSE(mayMisspeculate(add8));
    EXPECT_FALSE(mayMisspeculate(inst(MOp::AND8)));
    EXPECT_FALSE(mayMisspeculate(inst(MOp::CMP8)));
    EXPECT_TRUE(mayMisspeculate(inst(MOp::LDRS8)));
    MachInst tr = inst(MOp::TRN8);
    tr.speculative = true;
    EXPECT_TRUE(mayMisspeculate(tr));
}

TEST(Isa, Disassembly)
{
    MachInst i = inst(MOp::ADD8, MOpnd::makeSlice(4, 2),
                      MOpnd::makeSlice(5, 0), MOpnd::makeImm(3));
    i.speculative = true;
    EXPECT_EQ(i.str(), "add8.s r4b2, r5b0, #3");
    MachInst b = inst(MOp::B);
    b.cond = Cond::LO;
    b.target = 12;
    EXPECT_EQ(b.str(), "blo ->12");
}

} // namespace
} // namespace bitspec
