/**
 * @file
 * Pure functional semantics of RV32IMF compute operations, shared by
 * the emulator and the accelerator's PE model so that golden-model
 * equivalence holds by construction.
 */

#ifndef MESA_RISCV_ALU_HH
#define MESA_RISCV_ALU_HH

#include <bit>
#include <cmath>
#include <cstdint>

#include "riscv/isa.hh"
#include "util/logging.hh"

namespace mesa::riscv
{

/** RV32F's canonical quiet NaN: every NaN an F op computes is this. */
constexpr uint32_t CanonicalNan = 0x7FC00000u;

/** Raw bits of an F op's result, with any NaN made canonical. */
inline uint32_t
fresultBits(float v)
{
    return std::isnan(v) ? CanonicalNan : std::bit_cast<uint32_t>(v);
}

/**
 * RV32F fmin.s (@p want_max false) / fmax.s on raw bits: -0 orders
 * below +0, a single NaN operand yields the other operand, and two
 * NaNs yield the canonical NaN.
 */
inline uint32_t
fminmaxBits(uint32_t a, uint32_t b, bool want_max)
{
    const float fa = std::bit_cast<float>(a);
    const float fb = std::bit_cast<float>(b);
    if (std::isnan(fa))
        return std::isnan(fb) ? CanonicalNan : b;
    if (std::isnan(fb))
        return a;
    if (fa == fb) {
        // Equal values with different bits are -0 and +0: the min
        // keeps the sign bit, the max drops it.
        return want_max ? (a & b) : (a | b);
    }
    return (fa < fb) == want_max ? b : a;
}

/**
 * Evaluate a non-memory, non-control operation.
 *
 * @param a raw bits of operand 1 (integer or float)
 * @param b raw bits of operand 2
 * @param imm immediate field
 * @param pc instruction address (for auipc)
 * @return raw bits of the result
 */
inline uint32_t
aluEval(Op op, uint32_t a, uint32_t b, int32_t imm, uint32_t pc)
{
    const int32_t sa = int32_t(a);
    const int32_t sb = int32_t(b);
    const float fa = std::bit_cast<float>(a);
    const float fb = std::bit_cast<float>(b);

    switch (op) {
      case Op::Lui: return uint32_t(imm);
      case Op::Auipc: return pc + uint32_t(imm);

      case Op::Addi: return a + uint32_t(imm);
      case Op::Slti: return sa < imm ? 1 : 0;
      case Op::Sltiu: return a < uint32_t(imm) ? 1 : 0;
      case Op::Xori: return a ^ uint32_t(imm);
      case Op::Ori: return a | uint32_t(imm);
      case Op::Andi: return a & uint32_t(imm);
      case Op::Slli: return a << (imm & 0x1F);
      case Op::Srli: return a >> (imm & 0x1F);
      case Op::Srai: return uint32_t(sa >> (imm & 0x1F));

      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Sll: return a << (b & 0x1F);
      case Op::Slt: return sa < sb ? 1 : 0;
      case Op::Sltu: return a < b ? 1 : 0;
      case Op::Xor: return a ^ b;
      case Op::Srl: return a >> (b & 0x1F);
      case Op::Sra: return uint32_t(sa >> (b & 0x1F));
      case Op::Or: return a | b;
      case Op::And: return a & b;

      case Op::Mul: return a * b; // Wraps mod 2^32, like the hardware.
      case Op::Mulh:
        return uint32_t((int64_t(sa) * int64_t(sb)) >> 32);
      case Op::Mulhsu:
        return uint32_t((int64_t(sa) * uint64_t(b)) >> 32);
      case Op::Mulhu:
        return uint32_t((uint64_t(a) * uint64_t(b)) >> 32);
      case Op::Div:
        if (b == 0)
            return uint32_t(-1);
        if (a == 0x80000000u && b == uint32_t(-1))
            return a;
        return uint32_t(sa / sb);
      case Op::Divu: return b == 0 ? uint32_t(-1) : a / b;
      case Op::Rem:
        if (b == 0)
            return a;
        if (a == 0x80000000u && b == uint32_t(-1))
            return 0;
        return uint32_t(sa % sb);
      case Op::Remu: return b == 0 ? a : a % b;

      case Op::FaddS: return fresultBits(fa + fb);
      case Op::FsubS: return fresultBits(fa - fb);
      case Op::FmulS: return fresultBits(fa * fb);
      case Op::FdivS: return fresultBits(fa / fb);
      case Op::FsqrtS: return fresultBits(std::sqrt(fa));
      case Op::FminS: return fminmaxBits(a, b, false);
      case Op::FmaxS: return fminmaxBits(a, b, true);
      case Op::FsgnjS: return (a & 0x7FFFFFFFu) | (b & 0x80000000u);
      case Op::FsgnjnS: return (a & 0x7FFFFFFFu) | (~b & 0x80000000u);
      case Op::FsgnjxS: return a ^ (b & 0x80000000u);
      case Op::FmvXW:
      case Op::FmvWX:
        return a;
      case Op::FcvtSW: return fresultBits(float(sa));
      case Op::FcvtSWu: return fresultBits(float(a));
      // RV32F saturates out-of-range inputs; NaN converts as +inf.
      case Op::FcvtWS:
        if (std::isnan(fa) || fa >= 0x1p31f)
            return 0x7FFFFFFFu;
        if (fa < -0x1p31f)
            return 0x80000000u;
        return uint32_t(int32_t(fa));
      case Op::FcvtWuS:
        if (std::isnan(fa) || fa >= 0x1p32f)
            return 0xFFFFFFFFu;
        if (fa <= -1.0f)
            return 0;
        return uint32_t(fa);
      case Op::FeqS: return fa == fb ? 1 : 0;
      case Op::FltS: return fa < fb ? 1 : 0;
      case Op::FleS: return fa <= fb ? 1 : 0;

      default:
        panic("aluEval: op ", opName(op), " is not an ALU operation");
    }
}

/**
 * Evaluate an R4-type fused multiply-add (fmadd/fmsub/fnmsub/fnmadd.s)
 * on raw operand bits: one rounding of +-(a * b) +- c, as RV32F
 * requires, and a canonical NaN result.
 */
inline uint32_t
fusedEval(Op op, uint32_t a, uint32_t b, uint32_t c)
{
    const float fa = std::bit_cast<float>(a);
    const float fb = std::bit_cast<float>(b);
    const float fc = std::bit_cast<float>(c);
    switch (op) {
      case Op::FmaddS: return fresultBits(std::fma(fa, fb, fc));
      case Op::FmsubS: return fresultBits(std::fma(fa, fb, -fc));
      case Op::FnmsubS: return fresultBits(std::fma(-fa, fb, fc));
      case Op::FnmaddS: return fresultBits(std::fma(-fa, fb, -fc));
      default:
        panic("fusedEval: op ", opName(op), " is not a fused op");
    }
}

/** Evaluate a branch condition on raw integer operand bits. */
inline bool
branchEval(Op op, uint32_t a, uint32_t b)
{
    const int32_t sa = int32_t(a);
    const int32_t sb = int32_t(b);
    switch (op) {
      case Op::Beq: return a == b;
      case Op::Bne: return a != b;
      case Op::Blt: return sa < sb;
      case Op::Bge: return sa >= sb;
      case Op::Bltu: return a < b;
      case Op::Bgeu: return a >= b;
      default:
        panic("branchEval: op ", opName(op), " is not a branch");
    }
}

} // namespace mesa::riscv

#endif // MESA_RISCV_ALU_HH
