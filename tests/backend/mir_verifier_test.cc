#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/mir.h"
#include "backend/mir_verifier.h"

namespace bitspec
{
namespace
{

MachInst
inst(MOp op, MOpnd dst = {}, MOpnd a = {}, MOpnd b = {})
{
    MachInst mi;
    mi.op = op;
    mi.dst = dst;
    mi.a = a;
    mi.b = b;
    return mi;
}

MachInst
branch(int target, InstTag tag = InstTag::Normal)
{
    MachInst mi;
    mi.op = MOp::B;
    mi.target = target;
    mi.tag = tag;
    return mi;
}

/** Smallest well-formed function: entry computes and returns. */
MachFunction
makePlain()
{
    MachFunction mf;
    mf.name = "plain";
    mf.blocks.push_back({"entry", 0, {}, -1, false});
    mf.code.push_back(
        inst(MOp::MOVW, MOpnd::makeReg(0), MOpnd::makeImm(7)));
    mf.code.push_back(inst(MOp::BXLR));
    mf.blockIndex[0] = 0;
    mf.entryIndex = 0;
    return mf;
}

/**
 * Well-formed speculative layout (Eq. 1/2, delta = 8):
 *
 *   code[0] ADD8!spec  \ speculative area = region block 0
 *   code[1] B -> 5     /
 *   code[2] B -> 4 (skeleton slot 0)
 *   code[3] B -> 4 (skeleton slot 1)
 *   code[4] B -> 5          handler (block 1)
 *   code[5] BXLR            exit (block 2)
 */
MachFunction
makeSpec()
{
    MachFunction mf;
    mf.name = "spec";
    mf.blocks.push_back({"entry", 0, {}, /*handlerBlock=*/1, false});
    mf.blocks.push_back({"hand", 1, {}, -1, /*isHandler=*/true});
    mf.blocks.push_back({"exit", 2, {}, -1, false});

    MachInst add8 = inst(MOp::ADD8, MOpnd::makeSlice(4, 0),
                         MOpnd::makeSlice(4, 0), MOpnd::makeImm(1));
    add8.speculative = true;
    mf.code.push_back(add8);
    mf.code.push_back(branch(5));
    mf.code.push_back(branch(4, InstTag::Skeleton));
    mf.code.push_back(branch(4, InstTag::Skeleton));
    mf.code.push_back(branch(5));
    mf.code.push_back(inst(MOp::BXLR));

    mf.blockIndex = {{0, 0}, {1, 4}, {2, 5}};
    mf.entryIndex = 0;
    mf.delta = 8;
    return mf;
}

bool
mentions(const std::vector<std::string> &problems,
         const std::string &needle)
{
    for (const std::string &p : problems)
        if (p.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(MirVerifier, AcceptsPlainFunction)
{
    EXPECT_TRUE(verifyMachFunction(makePlain()).empty());
}

TEST(MirVerifier, AcceptsSpeculativeGeometry)
{
    MachFunction mf = makeSpec();
    EXPECT_TRUE(verifyMachFunction(mf).empty())
        << verifyMachFunction(mf)[0];
}

TEST(MirVerifier, RejectsHandlerReachableByFallthrough)
{
    // A block of straight-line code placed directly before the
    // handler: control would fall off its end into recovery code that
    // only misspeculation may enter.
    MachFunction mf;
    mf.name = "fallthrough";
    mf.blocks.push_back({"entry", 0, {}, 1, false});
    mf.blocks.push_back({"hand", 1, {}, -1, true});
    mf.blocks.push_back({"mid", 2, {}, -1, false});
    mf.blocks.push_back({"exit", 3, {}, -1, false});

    MachInst add8 = inst(MOp::ADD8, MOpnd::makeSlice(4, 0),
                         MOpnd::makeSlice(4, 0), MOpnd::makeImm(1));
    add8.speculative = true;
    mf.code.push_back(add8);                            // 0: entry
    mf.code.push_back(branch(4));                       // 1
    mf.code.push_back(branch(5, InstTag::Skeleton));    // 2
    mf.code.push_back(branch(5, InstTag::Skeleton));    // 3
    mf.code.push_back(inst(MOp::MOVW, MOpnd::makeReg(0),
                           MOpnd::makeImm(0)));         // 4: mid
    mf.code.push_back(branch(6));                       // 5: handler
    mf.code.push_back(inst(MOp::BXLR));                 // 6: exit

    mf.blockIndex = {{0, 0}, {1, 5}, {2, 4}, {3, 6}};
    mf.entryIndex = 0;
    mf.delta = 8;

    auto problems = verifyMachFunction(mf);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(mentions(problems, "fall-through")) << problems[0];
}

TEST(MirVerifier, RejectsNonSkeletonBranchToHandler)
{
    MachFunction mf = makeSpec();
    mf.code[1].target = 4; // Entry branches straight to the handler.
    auto problems = verifyMachFunction(mf);
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(mentions(problems, "targets a handler"))
        << problems[0];
}

TEST(MirVerifier, RejectsSurvivingVReg)
{
    MachFunction mf = makePlain();
    mf.code[0].dst = MOpnd::makeVReg(3, false);
    EXPECT_TRUE(mentions(verifyMachFunction(mf), "virtual register"));
}

TEST(MirVerifier, RejectsOperandClassViolation)
{
    MachFunction mf = makePlain();
    mf.code[0].a = MOpnd::makeSlice(4, 0); // MOVW needs an immediate.
    EXPECT_TRUE(
        mentions(verifyMachFunction(mf), "a operand has kind slice"));
}

TEST(MirVerifier, RejectsSpecFlagOnNonSpecOp)
{
    MachFunction mf = makePlain();
    mf.code[0].speculative = true;
    EXPECT_TRUE(mentions(verifyMachFunction(mf),
                         "speculative flag on an op without"));
}

TEST(MirVerifier, RejectsBranchOutsideBlockStarts)
{
    MachFunction mf = makePlain();
    mf.code.insert(mf.code.begin() + 1, branch(1));
    // Target 1 is mid-block (only index 0 is a block start).
    auto problems = verifyMachFunction(mf);
    EXPECT_TRUE(mentions(problems, "not a block start"));
}

TEST(MirVerifier, RejectsBrokenSkeletonSlotMapping)
{
    MachFunction mf = makeSpec();
    mf.code[3].target = 5; // Slot 1 must redirect to the handler.
    EXPECT_TRUE(
        mentions(verifyMachFunction(mf), "slot mapping"));
}

TEST(MirVerifier, RejectsMisspeculatorOutsideSpecArea)
{
    MachFunction mf = makeSpec();
    MachInst ld = inst(MOp::LDRS8, MOpnd::makeSlice(4, 0),
                       MOpnd::makeReg(0), MOpnd::makeImm(0));
    ld.origBits = 32;
    mf.code.insert(mf.code.begin() + 5, ld); // Into the exit block.
    mf.blockIndex[2] = 5;
    // Exit grew: branches to it keep pointing at its (unmoved) start.
    EXPECT_TRUE(mentions(verifyMachFunction(mf),
                         "outside the speculative area"));
}

TEST(MirVerifier, RejectsUnemittedRegionBlock)
{
    // A fourth region block that layout never placed: the verifier
    // reports it and checks the rest of the geometry as before.
    MachFunction mf = makeSpec();
    mf.blocks.push_back({"lost", 3, {}, /*handlerBlock=*/1, false});
    std::vector<std::string> problems;
    ASSERT_NO_THROW(problems = verifyMachFunction(mf));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_EQ(problems[0], "spec: region block 3 was never emitted");
}

TEST(MirVerifier, RejectsUnpatchedSetDelta)
{
    MachFunction mf = makeSpec();
    MachInst sd = inst(MOp::SETDELTA, {}, MOpnd::makeImm(4));
    mf.code.insert(mf.code.begin() + 5, sd); // imm 4 != delta 8.
    mf.blockIndex[2] = 5;
    EXPECT_TRUE(mentions(verifyMachFunction(mf), "SETDELTA"));
}

} // namespace
} // namespace bitspec
