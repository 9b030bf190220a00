/**
 * @file
 * RISC-V RV32IM(F) operation definitions: the canonical operation
 * enumeration, functional-unit operation classes, and predicates used
 * across the decoder, emulator, DFG builder, and accelerator model.
 */

#ifndef MESA_RISCV_ISA_HH
#define MESA_RISCV_ISA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mesa::riscv
{

/** Canonical operation identifiers for the supported RV32IMF subset. */
enum class Op : uint8_t
{
    Invalid = 0,
    // RV32I upper-immediate / jumps
    Lui, Auipc, Jal, Jalr,
    // Branches
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    // Loads / stores
    Lb, Lh, Lw, Lbu, Lhu, Sb, Sh, Sw,
    // Integer immediate ALU
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    // Integer register ALU
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    // System
    Fence, Ecall, Ebreak,
    // RV32M
    Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu,
    // RV32F loads/stores
    Flw, Fsw,
    // RV32F compute
    FaddS, FsubS, FmulS, FdivS, FsqrtS, FminS, FmaxS,
    FsgnjS, FsgnjnS, FsgnjxS,
    FmvXW, FmvWX, FcvtSW, FcvtSWu, FcvtWS, FcvtWuS,
    FeqS, FltS, FleS,
    // RV32F fused multiply-add (R4-type, three source operands; more
    // predecessors than MESA's two-input DFG model supports, so C2
    // disqualifies loops containing them)
    FmaddS, FmsubS, FnmaddS, FnmsubS,
    NumOps
};

/** Functional-unit classes; each PE/FU supports a subset of these. */
enum class OpClass : uint8_t
{
    Nop = 0,
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,
    Jump,
    System,
    NumClasses
};

/** Register file an operation reads its sources from or writes. */
enum class RegFile : uint8_t
{
    None = 0, ///< No destination (stores, branches, system ops).
    Int,
    Fp,
};

/**
 * Static properties of one operation: everything the decoder,
 * emulator, timing models and DFG builder derive from the opcode
 * alone. One row per Op, in enum order, in detail::opPropsRows.
 */
struct OpProps
{
    Op op;
    const char *name;    ///< Assembly mnemonic.
    OpClass cls;         ///< Functional-unit class that executes it.
    uint8_t num_sources; ///< Register source operands (0..3).
    /// File of the register sources. Loads and stores always take an
    /// integer base address in rs1 whatever this says.
    RegFile src;
    RegFile dest;        ///< File of rd; None when rd is not written.
};

namespace detail
{
using enum OpClass;
using enum RegFile;

// clang-format off
inline constexpr std::array<OpProps, size_t(Op::NumOps)> opPropsRows = {{
    // op             name         class   srcs src   dest
    {Op::Invalid,   "invalid",   Nop,    0,   Int,  None},
    {Op::Lui,       "lui",       IntAlu, 0,   Int,  Int},
    {Op::Auipc,     "auipc",     IntAlu, 0,   Int,  Int},
    {Op::Jal,       "jal",       Jump,   0,   Int,  Int},
    {Op::Jalr,      "jalr",      Jump,   1,   Int,  Int},
    {Op::Beq,       "beq",       Branch, 2,   Int,  None},
    {Op::Bne,       "bne",       Branch, 2,   Int,  None},
    {Op::Blt,       "blt",       Branch, 2,   Int,  None},
    {Op::Bge,       "bge",       Branch, 2,   Int,  None},
    {Op::Bltu,      "bltu",      Branch, 2,   Int,  None},
    {Op::Bgeu,      "bgeu",      Branch, 2,   Int,  None},
    {Op::Lb,        "lb",        Load,   1,   Int,  Int},
    {Op::Lh,        "lh",        Load,   1,   Int,  Int},
    {Op::Lw,        "lw",        Load,   1,   Int,  Int},
    {Op::Lbu,       "lbu",       Load,   1,   Int,  Int},
    {Op::Lhu,       "lhu",       Load,   1,   Int,  Int},
    {Op::Sb,        "sb",        Store,  2,   Int,  None},
    {Op::Sh,        "sh",        Store,  2,   Int,  None},
    {Op::Sw,        "sw",        Store,  2,   Int,  None},
    {Op::Addi,      "addi",      IntAlu, 1,   Int,  Int},
    {Op::Slti,      "slti",      IntAlu, 1,   Int,  Int},
    {Op::Sltiu,     "sltiu",     IntAlu, 1,   Int,  Int},
    {Op::Xori,      "xori",      IntAlu, 1,   Int,  Int},
    {Op::Ori,       "ori",       IntAlu, 1,   Int,  Int},
    {Op::Andi,      "andi",      IntAlu, 1,   Int,  Int},
    {Op::Slli,      "slli",      IntAlu, 1,   Int,  Int},
    {Op::Srli,      "srli",      IntAlu, 1,   Int,  Int},
    {Op::Srai,      "srai",      IntAlu, 1,   Int,  Int},
    {Op::Add,       "add",       IntAlu, 2,   Int,  Int},
    {Op::Sub,       "sub",       IntAlu, 2,   Int,  Int},
    {Op::Sll,       "sll",       IntAlu, 2,   Int,  Int},
    {Op::Slt,       "slt",       IntAlu, 2,   Int,  Int},
    {Op::Sltu,      "sltu",      IntAlu, 2,   Int,  Int},
    {Op::Xor,       "xor",       IntAlu, 2,   Int,  Int},
    {Op::Srl,       "srl",       IntAlu, 2,   Int,  Int},
    {Op::Sra,       "sra",       IntAlu, 2,   Int,  Int},
    {Op::Or,        "or",        IntAlu, 2,   Int,  Int},
    {Op::And,       "and",       IntAlu, 2,   Int,  Int},
    {Op::Fence,     "fence",     System, 0,   Int,  None},
    {Op::Ecall,     "ecall",     System, 0,   Int,  None},
    {Op::Ebreak,    "ebreak",    System, 0,   Int,  None},
    {Op::Mul,       "mul",       IntMul, 2,   Int,  Int},
    {Op::Mulh,      "mulh",      IntMul, 2,   Int,  Int},
    {Op::Mulhsu,    "mulhsu",    IntMul, 2,   Int,  Int},
    {Op::Mulhu,     "mulhu",     IntMul, 2,   Int,  Int},
    {Op::Div,       "div",       IntDiv, 2,   Int,  Int},
    {Op::Divu,      "divu",      IntDiv, 2,   Int,  Int},
    {Op::Rem,       "rem",       IntDiv, 2,   Int,  Int},
    {Op::Remu,      "remu",      IntDiv, 2,   Int,  Int},
    {Op::Flw,       "flw",       Load,   1,   Int,  Fp},
    {Op::Fsw,       "fsw",       Store,  2,   Fp,   None},
    {Op::FaddS,     "fadd.s",    FpAlu,  2,   Fp,   Fp},
    {Op::FsubS,     "fsub.s",    FpAlu,  2,   Fp,   Fp},
    {Op::FmulS,     "fmul.s",    FpMul,  2,   Fp,   Fp},
    {Op::FdivS,     "fdiv.s",    FpDiv,  2,   Fp,   Fp},
    {Op::FsqrtS,    "fsqrt.s",   FpDiv,  1,   Fp,   Fp},
    {Op::FminS,     "fmin.s",    FpAlu,  2,   Fp,   Fp},
    {Op::FmaxS,     "fmax.s",    FpAlu,  2,   Fp,   Fp},
    {Op::FsgnjS,    "fsgnj.s",   FpAlu,  2,   Fp,   Fp},
    {Op::FsgnjnS,   "fsgnjn.s",  FpAlu,  2,   Fp,   Fp},
    {Op::FsgnjxS,   "fsgnjx.s",  FpAlu,  2,   Fp,   Fp},
    {Op::FmvXW,     "fmv.x.w",   FpAlu,  1,   Fp,   Int},
    {Op::FmvWX,     "fmv.w.x",   FpAlu,  1,   Int,  Fp},
    {Op::FcvtSW,    "fcvt.s.w",  FpAlu,  1,   Int,  Fp},
    {Op::FcvtSWu,   "fcvt.s.wu", FpAlu,  1,   Int,  Fp},
    {Op::FcvtWS,    "fcvt.w.s",  FpAlu,  1,   Fp,   Int},
    {Op::FcvtWuS,   "fcvt.wu.s", FpAlu,  1,   Fp,   Int},
    {Op::FeqS,      "feq.s",     FpAlu,  2,   Fp,   Int},
    {Op::FltS,      "flt.s",     FpAlu,  2,   Fp,   Int},
    {Op::FleS,      "fle.s",     FpAlu,  2,   Fp,   Int},
    {Op::FmaddS,    "fmadd.s",   FpMul,  3,   Fp,   Fp},
    {Op::FmsubS,    "fmsub.s",   FpMul,  3,   Fp,   Fp},
    {Op::FnmaddS,   "fnmadd.s",  FpMul,  3,   Fp,   Fp},
    {Op::FnmsubS,   "fnmsub.s",  FpMul,  3,   Fp,   Fp},
}};
// clang-format on

// A missing row leaves a value-initialised one (op == Invalid) behind.
constexpr bool
rowsInEnumOrder()
{
    for (size_t i = 0; i < opPropsRows.size(); ++i)
        if (opPropsRows[i].op != Op(i))
            return false;
    return true;
}
static_assert(rowsInEnumOrder(),
              "opPropsRows needs exactly one row per Op, in enum order");

/** Report an Op outside [0, NumOps) as an internal error (panics). */
[[noreturn]] void badOp(Op op);

} // namespace detail

/** The property row of @p op; panics on an out-of-range value. */
inline const OpProps &
opProps(Op op)
{
    const auto i = static_cast<size_t>(op);
    if (i >= size_t(Op::NumOps)) [[unlikely]]
        detail::badOp(op);
    return detail::opPropsRows[i];
}

/** Map an operation to the functional-unit class that executes it. */
inline OpClass
opClass(Op op)
{
    return opProps(op).cls;
}

/** Human-readable mnemonic for an operation ("???" if out of range). */
inline const char *
opName(Op op)
{
    return static_cast<size_t>(op) < size_t(Op::NumOps)
               ? detail::opPropsRows[size_t(op)].name
               : "???";
}

/** Human-readable name for an operation class. */
const char *opClassName(OpClass cls);

/** True if the op writes its destination to the FP register file. */
inline bool
fpDest(Op op)
{
    return opProps(op).dest == RegFile::Fp;
}

/** True if the op reads FP registers as sources. */
inline bool
fpSources(Op op)
{
    return opProps(op).src == RegFile::Fp;
}

/** Number of register source operands (0..3). */
inline int
numSources(Op op)
{
    return opProps(op).num_sources;
}

/** True if the op writes a destination register. */
inline bool
writesDest(Op op)
{
    return opProps(op).dest != RegFile::None;
}

inline bool
isLoad(Op op)
{
    return opClass(op) == OpClass::Load;
}

inline bool
isStore(Op op)
{
    return opClass(op) == OpClass::Store;
}

inline bool
isBranch(Op op)
{
    return opClass(op) == OpClass::Branch;
}

inline bool
isJump(Op op)
{
    return opClass(op) == OpClass::Jump;
}

inline bool
isMem(Op op)
{
    return isLoad(op) || isStore(op);
}

inline bool
isSystem(Op op)
{
    return opClass(op) == OpClass::System;
}

inline bool
isControl(Op op)
{
    return isBranch(op) || isJump(op);
}

/**
 * Register identifiers. Integer registers are 0..31 (x0..x31); FP
 * registers are folded into a unified 0..63 space as 32..63 by the
 * DFG rename stage.
 */
constexpr int NumIntRegs = 32;
constexpr int NumFpRegs = 32;
constexpr int NumUnifiedRegs = NumIntRegs + NumFpRegs;

/** ABI register aliases used by the assembler and disassembly. */
namespace reg
{
constexpr uint8_t zero = 0, ra = 1, sp = 2, gp = 3, tp = 4;
constexpr uint8_t t0 = 5, t1 = 6, t2 = 7;
constexpr uint8_t s0 = 8, s1 = 9;
constexpr uint8_t a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15,
                  a6 = 16, a7 = 17;
constexpr uint8_t s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23,
                  s8 = 24, s9 = 25, s10 = 26, s11 = 27;
constexpr uint8_t t3 = 28, t4 = 29, t5 = 30, t6 = 31;
// FP registers (raw 0..31 indices into the FP file).
constexpr uint8_t ft0 = 0, ft1 = 1, ft2 = 2, ft3 = 3, ft4 = 4, ft5 = 5,
                  ft6 = 6, ft7 = 7;
constexpr uint8_t fs0 = 8, fs1 = 9;
constexpr uint8_t fa0 = 10, fa1 = 11, fa2 = 12, fa3 = 13, fa4 = 14,
                  fa5 = 15, fa6 = 16, fa7 = 17;
} // namespace reg

} // namespace mesa::riscv

#endif // MESA_RISCV_ISA_HH
