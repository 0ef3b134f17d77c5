/**
 * @file
 * EMB32: a 32-bit ARM-class RISC ISA with the BitSpec extensions of
 * paper Table 1.
 *
 * Conventions:
 *  - r0..r3, r12: scratch/argument registers (never allocated).
 *  - r4..r11: allocatable, callee-saved.
 *  - r13 = sp, r14 = lr, r15 = pc.
 *  - Fixed 4-byte instructions; large constants via MOVW/MOVT.
 *
 * BitSpec extensions operate on 8-bit register slices B = (reg,
 * slice). Speculative forms misspeculate per Table 1; on
 * misspeculation the core writes no result and sets PC += Δ, where Δ
 * is a special register loaded by SETDELTA (paper §3.3.4/§3.5). MODE
 * switches between bitspec and classic decoding (paper §3.4).
 */

#ifndef BITSPEC_ISA_ISA_H_
#define BITSPEC_ISA_ISA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bitspec
{

/** Machine opcodes. */
enum class MOp : uint8_t
{
    // 32-bit ALU, register or immediate second operand.
    ADD, SUB, MUL, UDIV, SDIV,
    AND, ORR, EOR, LSL, LSR, ASR,
    MOV, MVN,
    MOVW,  ///< rd = imm16 (upper half cleared).
    MOVT,  ///< rd[31:16] = imm16.
    CMP,   ///< Set NZCV from rn - op2.
    SETCC, ///< rd = cond ? 1 : 0.
    SXTH, UXTH, ///< 16-bit sign/zero extension (for i16 support).

    // Memory: [rn + imm] or [rn + rm].
    LDR, STR, LDRH, STRH, LDRB, STRB,

    // Control flow.
    B,     ///< Unconditional (or cond != AL: conditional) branch.
    BL,    ///< Call: lr = next pc.
    BXLR,  ///< Return: pc = lr.

    // System.
    OUT,   ///< Emit rn to the observable output channel (volatile).
    NOP,
    HALT,

    // --- BitSpec extensions (Table 1) ---
    ADD8,   ///< Bd = Bn + (Bm|imm4); misspec on carry out.
    SUB8,   ///< Bd = Bn - (Bm|imm4); misspec on borrow.
    AND8, ORR8, EOR8, ///< Logic; never misspeculates.
    CMP8,   ///< cond(Bn op (Bm|imm4)); never misspeculates.
    MOV8,   ///< Bd = Bn|imm4..8 (slice move); never misspeculates.
    LDRS8,  ///< Spec. load: Bd = Mem_orig[rn+off]; misspec if > 255.
    LDRB8,  ///< Bd = Mem8[rn+off]; never misspeculates.
    STRB8,  ///< Mem8[rn+off] = Bd; never misspeculates.
    UXT8,   ///< rd = ZeroExtend(Bn).
    SXT8,   ///< rd = SignExtend(Bn).
    TRN8,   ///< Bd = Truncate(rn); spec variant misspecs if rn > 255.

    SETDELTA, ///< delta = imm (misspeculation redirect distance).
    MODE,     ///< imm != 0: bitspec mode; 0: classic mode.
};

/** Condition codes for B/SETCC/… */
enum class Cond : uint8_t
{
    AL, EQ, NE, LO, LS, HI, HS, LT, LE, GT, GE,
};

const char *mopName(MOp op);
const char *condName(Cond c);

/** Operand classification of a machine instruction operand. */
enum class MOpndKind : uint8_t
{
    None,
    Reg,    ///< 32-bit register r0..r15.
    Slice,  ///< 8-bit slice: reg r0..r15, slice 0..3.
    Imm,    ///< Immediate (16-bit in the encoding).
    VReg,   ///< Virtual register (pre-allocation only).
};

/** One machine operand. The wide fields come first, so an operand
 *  packs into 16 bytes with no interior padding. */
struct MOpnd
{
    int64_t imm = 0;    ///< Imm value.
    uint32_t vreg = 0;  ///< VReg id.
    MOpndKind kind = MOpndKind::None;
    uint8_t reg = 0;    ///< Reg/Slice: register number.
    uint8_t slice = 0;  ///< Slice: byte index 0..3.
    bool vregIsSlice = false; ///< VReg wants a slice, not a full reg.

    static MOpnd
    makeReg(unsigned r)
    {
        MOpnd o;
        o.kind = MOpndKind::Reg;
        o.reg = static_cast<uint8_t>(r);
        return o;
    }

    static MOpnd
    makeSlice(unsigned r, unsigned s)
    {
        MOpnd o;
        o.kind = MOpndKind::Slice;
        o.reg = static_cast<uint8_t>(r);
        o.slice = static_cast<uint8_t>(s);
        return o;
    }

    static MOpnd
    makeImm(int64_t v)
    {
        MOpnd o;
        o.kind = MOpndKind::Imm;
        o.imm = v;
        return o;
    }

    static MOpnd
    makeVReg(uint32_t id, bool is_slice)
    {
        MOpnd o;
        o.kind = MOpndKind::VReg;
        o.vreg = id;
        o.vregIsSlice = is_slice;
        return o;
    }

    bool isReg() const { return kind == MOpndKind::Reg; }
    bool isSlice() const { return kind == MOpndKind::Slice; }
    bool isImm() const { return kind == MOpndKind::Imm; }
    bool isVReg() const { return kind == MOpndKind::VReg; }
};
static_assert(sizeof(MOpnd) == 16, "MOpnd packs into 16 bytes");

/** Provenance tag for the Fig. 10 spill/copy accounting. */
enum class InstTag : uint8_t
{
    Normal,
    SpillLoad,   ///< Reload injected by the register allocator.
    SpillStore,  ///< Spill injected by the register allocator.
    Copy,        ///< Register-register copy (phi/copy resolution).
    Skeleton,    ///< Skeleton-block branch (misspec landing pad).
    FrameSetup,  ///< Prologue/epilogue.
};

/** One (decoded) machine instruction. */
struct MachInst
{
    MOp op = MOp::NOP;
    Cond cond = Cond::AL;
    MOpnd dst;            ///< Destination (or store data).
    MOpnd a;              ///< First source / base register.
    MOpnd b;              ///< Second source / offset.
    bool speculative = false; ///< TRN8/LDRS8: speculative variant.
    uint8_t origBits = 0;     ///< LDRS8: memory width to check.
    InstTag tag = InstTag::Normal;
    int target = -1;      ///< B/BL: symbolic target (block/function id).

    std::string str() const; ///< Disassembly.
};
static_assert(sizeof(MachInst) == 64, "MachInst packs into 64 bytes");

/** Fixed instruction size (bytes). */
constexpr uint32_t kInstBytes = 4;

/** @name Registers */
/// @{
constexpr unsigned kRegSP = 13;
constexpr unsigned kRegLR = 14;
constexpr unsigned kRegPC = 15;
constexpr unsigned kFirstAlloc = 4; ///< r4..r11 allocatable.
constexpr unsigned kLastAlloc = 11;
constexpr unsigned kScratch0 = 0;   ///< r0..r3 scratch/args.
constexpr unsigned kScratch3 = 3;
constexpr unsigned kScratchAddr = 12;
/// @}

/** True when @p op writes flags rather than a register. */
bool writesFlags(MOp op);

/** True when @p op may misspeculate (given its speculative flag). */
bool mayMisspeculate(const MachInst &inst);

} // namespace bitspec

#endif // BITSPEC_ISA_ISA_H_
