/**
 * @file
 * Functional emulator tests: arithmetic semantics, control flow,
 * memory accesses, FP operations, and trace observation.
 */

#include <gtest/gtest.h>

#include <bit>

#include "cpu/system.hh"
#include "riscv/alu.hh"
#include "riscv/assembler.hh"
#include "riscv/emulator.hh"

namespace
{

using namespace mesa;
using namespace mesa::riscv;
using namespace mesa::riscv::reg;

/** Assemble, load, and run a program; return the emulator. */
struct Harness
{
    mem::MainMemory memory;
    Emulator emu{memory};

    void
    run(const Assembler &as,
        const std::function<void(ArchState &)> &init = nullptr,
        uint64_t max_steps = 100000)
    {
        const Program prog = as.assemble();
        cpu::loadProgram(memory, prog);
        emu.reset(prog.base_pc);
        if (init)
            init(emu.state());
        emu.run(max_steps);
    }
};

TEST(Emulator, BasicArithmetic)
{
    Assembler as;
    as.li(a0, 20);
    as.li(a1, 22);
    as.add(a2, a0, a1);
    as.sub(a3, a0, a1);
    as.mul(a4, a0, a1);
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(h.emu.x(a2), 42u);
    EXPECT_EQ(int32_t(h.emu.x(a3)), -2);
    EXPECT_EQ(h.emu.x(a4), 440u);
}

TEST(Emulator, MulWrapsModulo32Bits)
{
    // mul keeps the low 32 bits of the product, even when the signed
    // product overflows int32_t.
    struct Row
    {
        uint32_t a, b, want;
    };
    const Row rows[] = {
        {0x7fffffffu, 3u, 0x7ffffffdu},
        {0x80000000u, uint32_t(-1), 0x80000000u}, // INT_MIN * -1
    };
    for (const Row &r : rows) {
        EXPECT_EQ(aluEval(Op::Mul, r.a, r.b, 0, 0), r.want);

        Assembler as;
        as.li(a0, int32_t(r.a));
        as.li(a1, int32_t(r.b));
        as.mul(a2, a0, a1);
        as.ecall();
        Harness h;
        h.run(as);
        EXPECT_EQ(h.emu.x(a2), r.want);
    }
}

TEST(Emulator, FcvtSaturatesOutOfRange)
{
    // fcvt.w.s / fcvt.wu.s round toward zero in range and saturate
    // outside it; NaN converts like +inf (RV32F).
    struct Row
    {
        uint32_t f, w, wu; // input float bits, fcvt.w.s, fcvt.wu.s
    };
    const Row rows[] = {
        {0x7fc00000u, 0x7fffffffu, 0xffffffffu}, // NaN
        {0x7f800000u, 0x7fffffffu, 0xffffffffu}, // +inf
        {0xff800000u, 0x80000000u, 0x00000000u}, // -inf
        {0x4f000000u, 0x7fffffffu, 0x80000000u}, // 2^31
        {0xcf000000u, 0x80000000u, 0x00000000u}, // -2^31
        {0x4f800000u, 0x7fffffffu, 0xffffffffu}, // 2^32
        {0xbf800000u, 0xffffffffu, 0x00000000u}, // -1.0
        {0xbf000000u, 0x00000000u, 0x00000000u}, // -0.5
        {0xc0200000u, 0xfffffffeu, 0x00000000u}, // -2.5
        {0x402ccccdu, 0x00000002u, 0x00000002u}, // 2.7
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(r.f);
        EXPECT_EQ(aluEval(Op::FcvtWS, r.f, 0, 0, 0), r.w);
        EXPECT_EQ(aluEval(Op::FcvtWuS, r.f, 0, 0, 0), r.wu);

        for (const bool decode_cache : {true, false}) {
            Assembler as;
            as.li(a0, int32_t(r.f));
            as.fmv_w_x(ft0, a0);
            as.fcvt_w_s(a1, ft0);
            as.ecall();
            Harness h;
            h.emu.setDecodeCache(decode_cache);
            h.run(as);
            EXPECT_EQ(h.emu.x(a1), r.w);
        }
    }
}

TEST(Emulator, FminFmaxFollowRv32f)
{
    // fmin.s / fmax.s: -0 orders below +0, one NaN operand returns the
    // other operand, two NaNs return the canonical NaN 0x7fc00000.
    struct Row
    {
        uint32_t a, b, min, max; // operand bits, fmin.s, fmax.s
    };
    const Row rows[] = {
        {0x3f800000u, 0x40000000u, 0x3f800000u, 0x40000000u}, // 1, 2
        {0x40000000u, 0x3f800000u, 0x3f800000u, 0x40000000u}, // 2, 1
        {0xbf800000u, 0x3f800000u, 0xbf800000u, 0x3f800000u}, // -1, 1
        {0x80000000u, 0x00000000u, 0x80000000u, 0x00000000u}, // -0, +0
        {0x00000000u, 0x80000000u, 0x80000000u, 0x00000000u}, // +0, -0
        {0x80000000u, 0x80000000u, 0x80000000u, 0x80000000u}, // -0, -0
        {0x7fc00000u, 0x3f800000u, 0x3f800000u, 0x3f800000u}, // qNaN, 1
        {0xbf800000u, 0x7fc00000u, 0xbf800000u, 0xbf800000u}, // -1, qNaN
        {0x7f800001u, 0x80000000u, 0x80000000u, 0x80000000u}, // sNaN, -0
        {0xffc12345u, 0x7fc00001u, 0x7fc00000u, 0x7fc00000u}, // NaN, NaN
        {0x7f800001u, 0x7f800001u, 0x7fc00000u, 0x7fc00000u}, // sNaN x2
        {0xff800000u, 0x7f800000u, 0xff800000u, 0x7f800000u}, // -inf, inf
        {0x7f800000u, 0x7fc00000u, 0x7f800000u, 0x7f800000u}, // inf, NaN
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(::testing::Message() << std::hex << r.a << ", " << r.b);
        EXPECT_EQ(aluEval(Op::FminS, r.a, r.b, 0, 0), r.min);
        EXPECT_EQ(aluEval(Op::FmaxS, r.a, r.b, 0, 0), r.max);

        for (const bool decode_cache : {true, false}) {
            Assembler as;
            as.li(a0, int32_t(r.a));
            as.li(a1, int32_t(r.b));
            as.fmv_w_x(ft0, a0);
            as.fmv_w_x(ft1, a1);
            as.fmin_s(ft2, ft0, ft1);
            as.fmax_s(ft3, ft0, ft1);
            as.fmv_x_w(a2, ft2);
            as.fmv_x_w(a3, ft3);
            as.ecall();
            Harness h;
            h.emu.setDecodeCache(decode_cache);
            h.run(as);
            EXPECT_EQ(h.emu.x(a2), r.min);
            EXPECT_EQ(h.emu.x(a3), r.max);
        }
    }
}

TEST(Emulator, LiLargeConstants)
{
    Assembler as;
    as.li(a0, 0x12345678);
    as.li(a1, -123456);
    as.li(a2, 2047);
    as.li(a3, -2048);
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(h.emu.x(a0), 0x12345678u);
    EXPECT_EQ(int32_t(h.emu.x(a1)), -123456);
    EXPECT_EQ(h.emu.x(a2), 2047u);
    EXPECT_EQ(int32_t(h.emu.x(a3)), -2048);
}

TEST(Emulator, DivisionEdgeCases)
{
    Assembler as;
    as.li(a0, -8);
    as.li(a1, 0);
    as.div(a2, a0, a1);  // div by zero -> -1
    as.rem(a3, a0, a1);  // rem by zero -> dividend
    as.li(a4, 3);
    as.div(a5, a0, a4);  // -8 / 3 = -2 (trunc)
    as.rem(a6, a0, a4);  // -8 % 3 = -2
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(h.emu.x(a2), uint32_t(-1));
    EXPECT_EQ(int32_t(h.emu.x(a3)), -8);
    EXPECT_EQ(int32_t(h.emu.x(a5)), -2);
    EXPECT_EQ(int32_t(h.emu.x(a6)), -2);
}

TEST(Emulator, LoopSum)
{
    // sum = 0; for (i = 0; i < 10; ++i) sum += i;
    Assembler as;
    as.li(a0, 0);  // sum
    as.li(a1, 0);  // i
    as.li(a2, 10); // bound
    as.label("loop");
    as.add(a0, a0, a1);
    as.addi(a1, a1, 1);
    as.blt(a1, a2, "loop");
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(h.emu.x(a0), 45u);
    EXPECT_EQ(h.emu.x(a1), 10u);
}

TEST(Emulator, MemoryAccessWidths)
{
    Assembler as;
    as.li(a0, 0x2000);
    as.li(a1, -2);            // 0xFFFFFFFE
    as.sw(a1, 0, a0);
    as.lb(a2, 0, a0);         // sign-extended byte
    as.lbu(a3, 0, a0);        // zero-extended byte
    as.lh(a4, 0, a0);
    as.lhu(a5, 0, a0);
    as.lw(a6, 0, a0);
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(int32_t(h.emu.x(a2)), -2);
    EXPECT_EQ(h.emu.x(a3), 0xFEu);
    EXPECT_EQ(int32_t(h.emu.x(a4)), -2);
    EXPECT_EQ(h.emu.x(a5), 0xFFFEu);
    EXPECT_EQ(h.emu.x(a6), 0xFFFFFFFEu);
}

/** Run one F op (two or three sources) on raw operand bits through
 *  the emulator and return the raw result bits. */
uint32_t
emulateFp(Op op, uint32_t a, uint32_t b, uint32_t c, bool decode_cache)
{
    Assembler as;
    as.li(a0, int32_t(a));
    as.li(a1, int32_t(b));
    as.li(a2, int32_t(c));
    as.fmv_w_x(ft0, a0);
    as.fmv_w_x(ft1, a1);
    as.fmv_w_x(ft2, a2);
    switch (op) {
      case Op::FaddS: as.fadd_s(ft3, ft0, ft1); break;
      case Op::FsubS: as.fsub_s(ft3, ft0, ft1); break;
      case Op::FmulS: as.fmul_s(ft3, ft0, ft1); break;
      case Op::FdivS: as.fdiv_s(ft3, ft0, ft1); break;
      case Op::FsqrtS: as.fsqrt_s(ft3, ft0); break;
      case Op::FmaddS: as.fmadd_s(ft3, ft0, ft1, ft2); break;
      case Op::FmsubS: as.fmsub_s(ft3, ft0, ft1, ft2); break;
      case Op::FnmsubS: as.fnmsub_s(ft3, ft0, ft1, ft2); break;
      case Op::FnmaddS: as.fnmadd_s(ft3, ft0, ft1, ft2); break;
      default: ADD_FAILURE() << "no row form for " << opName(op);
    }
    as.fmv_x_w(a3, ft3);
    as.ecall();
    Harness h;
    h.emu.setDecodeCache(decode_cache);
    h.run(as);
    return h.emu.x(a3);
}

TEST(Emulator, FusedMultiplyAddRoundsOnce)
{
    // a = b = 1 + 2^-12, so a * b = 1 + 2^-11 + 2^-24 exactly. Rounded
    // on its own the product loses the 2^-24 (a tie, to even), and
    // adding -(1 + 2^-11) gives 0; one rounding of the whole sum keeps
    // it. Each op below computes +-2^-24.
    struct Row
    {
        Op op;
        uint32_t c, want;
    };
    const uint32_t ab = 0x3f800800u;     // 1 + 2^-12
    const uint32_t pos_c = 0x3f801000u;  // 1 + 2^-11
    const uint32_t neg_c = 0xbf801000u;  // -(1 + 2^-11)
    const Row rows[] = {
        {Op::FmaddS, neg_c, 0x33800000u},  // a*b + c = 2^-24
        {Op::FmsubS, pos_c, 0x33800000u},  // a*b - c = 2^-24
        {Op::FnmsubS, pos_c, 0xb3800000u}, // -(a*b) + c = -2^-24
        {Op::FnmaddS, neg_c, 0xb3800000u}, // -(a*b) - c = -2^-24
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(opName(r.op));
        EXPECT_EQ(fusedEval(r.op, ab, ab, r.c), r.want);
        for (const bool decode_cache : {true, false})
            EXPECT_EQ(emulateFp(r.op, ab, ab, r.c, decode_cache), r.want);
    }
}

TEST(Emulator, FpNanResultsAreCanonical)
{
    // RV32F: an F op that computes a NaN writes the canonical quiet
    // NaN 0x7fc00000, whatever the operands' NaN payloads or signs
    // (the host's default NaN is 0xffc00000, and it quiets an sNaN
    // operand by keeping its payload).
    struct Row
    {
        Op op;
        uint32_t a, b, c;
    };
    const uint32_t one = 0x3f800000u, inf = 0x7f800000u;
    const uint32_t snan = 0x7f800001u;
    const Row rows[] = {
        {Op::FsqrtS, 0xbf800000u, 0, 0},    // sqrt(-1)
        {Op::FsubS, inf, inf, 0},           // inf - inf
        {Op::FdivS, 0, 0, 0},               // 0 / 0
        {Op::FaddS, snan, one, 0},          // sNaN + 1
        {Op::FmulS, 0xffc12345u, one, 0},   // -NaN with payload * 1
        {Op::FmaddS, inf, 0, one},          // inf * 0 + 1
        {Op::FmsubS, snan, one, one},       // sNaN * 1 - 1
        {Op::FnmsubS, inf, one, inf},       // -(inf * 1) + inf
        {Op::FnmaddS, one, one, 0xffc00000u}, // -(1 * 1) - NaN
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(::testing::Message() << opName(r.op) << std::hex
                                          << " " << r.a << ", " << r.b);
        const uint32_t direct = opProps(r.op).num_sources == 3
                                    ? fusedEval(r.op, r.a, r.b, r.c)
                                    : aluEval(r.op, r.a, r.b, 0, 0);
        EXPECT_EQ(direct, CanonicalNan);
        for (const bool decode_cache : {true, false})
            EXPECT_EQ(emulateFp(r.op, r.a, r.b, r.c, decode_cache),
                      CanonicalNan);
    }
}

TEST(Emulator, FloatingPoint)
{
    Assembler as;
    as.li(a0, 0x2000);
    as.flw(ft0, 0, a0);
    as.flw(ft1, 4, a0);
    as.fadd_s(ft2, ft0, ft1);
    as.fmul_s(ft3, ft0, ft1);
    as.fsub_s(ft4, ft0, ft1);
    as.fdiv_s(ft5, ft0, ft1);
    as.fsqrt_s(ft6, ft0);
    as.fsw(ft2, 8, a0);
    as.ecall();

    Harness h;
    h.memory.writeFloat(0x2000, 9.0f);
    h.memory.writeFloat(0x2004, 2.0f);
    h.run(as);
    EXPECT_FLOAT_EQ(h.emu.fval(ft2), 11.0f);
    EXPECT_FLOAT_EQ(h.emu.fval(ft3), 18.0f);
    EXPECT_FLOAT_EQ(h.emu.fval(ft4), 7.0f);
    EXPECT_FLOAT_EQ(h.emu.fval(ft5), 4.5f);
    EXPECT_FLOAT_EQ(h.emu.fval(ft6), 3.0f);
    EXPECT_FLOAT_EQ(h.memory.readFloat(0x2008), 11.0f);
}

TEST(Emulator, FpCompareAndConvert)
{
    Assembler as;
    as.li(a0, 7);
    as.fcvt_s_w(ft0, a0);
    as.fcvt_w_s(a1, ft0);
    as.li(a2, 3);
    as.fcvt_s_w(ft1, a2);
    as.flt_s(a3, ft1, ft0); // 3 < 7 -> 1
    as.fle_s(a4, ft0, ft1); // 7 <= 3 -> 0
    as.feq_s(a5, ft0, ft0); // 7 == 7 -> 1
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(h.emu.x(a1), 7u);
    EXPECT_EQ(h.emu.x(a3), 1u);
    EXPECT_EQ(h.emu.x(a4), 0u);
    EXPECT_EQ(h.emu.x(a5), 1u);
}

TEST(Emulator, ForwardBranchSkips)
{
    Assembler as;
    as.li(a0, 1);
    as.li(a1, 5);
    as.beq(a0, a0, "skip"); // always taken
    as.li(a1, 99);          // skipped
    as.label("skip");
    as.addi(a1, a1, 1);
    as.ecall();

    Harness h;
    h.run(as);
    EXPECT_EQ(h.emu.x(a1), 6u);
}

TEST(Emulator, ObserverSeesCommittedStream)
{
    Assembler as;
    as.li(a0, 0);
    as.label("loop");
    as.addi(a0, a0, 1);
    as.slti(a1, a0, 3);
    as.bne(a1, zero, "loop");
    as.ecall();

    Harness h;
    uint64_t count = 0;
    uint64_t branches_taken = 0;
    h.emu.setObserver([&](const TraceEntry &te) {
        ++count;
        if (te.inst.isBranch() && te.branch_taken)
            ++branches_taken;
    });
    h.run(as);
    EXPECT_EQ(h.emu.x(a0), 3u);
    EXPECT_EQ(branches_taken, 2u);
    EXPECT_EQ(count, h.emu.instret());
}

TEST(Emulator, HaltsOnEcallAndInvalid)
{
    Assembler as;
    as.li(a0, 1);
    as.ecall();
    Harness h;
    h.run(as);
    EXPECT_TRUE(h.emu.halted());

    // Executing from empty memory halts immediately (invalid word).
    mem::MainMemory m2;
    Emulator e2(m2);
    e2.reset(0x9000);
    EXPECT_FALSE(e2.step());
    EXPECT_TRUE(e2.halted());
}

TEST(Emulator, RunWhileInRegion)
{
    Assembler as;
    as.li(a0, 0);          // pc 0x1000
    as.label("loop");      // 0x1004
    as.addi(a0, a0, 1);
    as.slti(a1, a0, 100);
    as.bne(a1, zero, "loop");
    as.ecall();

    Harness h;
    const Program prog = as.assemble();
    cpu::loadProgram(h.memory, prog);
    h.emu.reset(prog.base_pc);
    h.emu.step(); // execute li
    const uint32_t lo = prog.labelPc("loop");
    const uint32_t hi = lo + 3 * 4;
    h.emu.runWhileInRegion(lo, hi, 1000000);
    // Leaves the region only when the loop exits.
    EXPECT_EQ(h.emu.x(a0), 100u);
    EXPECT_FALSE(h.emu.halted());
}

} // namespace
