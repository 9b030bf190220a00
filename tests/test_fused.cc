/**
 * @file
 * R4-type fused multiply-add tests: encoding round trip with the
 * third source register, emulator semantics, and the C2 story — the
 * paper's DFG model allows at most two predecessors per node, so a
 * hot loop containing fused ops runs correctly on the CPU but is
 * never offloaded.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "riscv/assembler.hh"
#include "riscv/encoding.hh"

namespace
{

using namespace mesa;
using namespace mesa::riscv;
using namespace mesa::riscv::reg;

TEST(Fused, EncodeDecodeRoundTripWithRs3)
{
    for (Op op : {Op::FmaddS, Op::FmsubS, Op::FnmaddS, Op::FnmsubS}) {
        Instruction in;
        in.op = op;
        in.rd = 4;
        in.rs1 = 7;
        in.rs2 = 12;
        in.rs3 = 29;
        const Instruction out = decode(encode(in), 0x1000);
        EXPECT_EQ(out.op, op) << opName(op);
        EXPECT_EQ(out.rd, 4);
        EXPECT_EQ(out.rs1, 7);
        EXPECT_EQ(out.rs2, 12);
        EXPECT_EQ(out.rs3, 29);
        EXPECT_EQ(out.numSources(), 3);
        EXPECT_EQ(out.unifiedSrc(2), 32 + 29);
    }
}

TEST(Fused, EmulatorSemantics)
{
    Assembler as;
    as.fmadd_s(ft3, ft0, ft1, ft2);  //  a*b + c
    as.fmsub_s(ft4, ft0, ft1, ft2);  //  a*b - c
    as.fnmsub_s(ft5, ft0, ft1, ft2); // -a*b + c
    as.fnmadd_s(ft6, ft0, ft1, ft2); // -a*b - c
    as.ecall();

    mem::MainMemory memory;
    cpu::loadProgram(memory, as.assemble());
    Emulator emu(memory);
    emu.reset(0x1000);
    emu.setF(ft0, 3.0f);
    emu.setF(ft1, 4.0f);
    emu.setF(ft2, 5.0f);
    emu.run(100);

    EXPECT_FLOAT_EQ(emu.fval(ft3), 17.0f);
    EXPECT_FLOAT_EQ(emu.fval(ft4), 7.0f);
    EXPECT_FLOAT_EQ(emu.fval(ft5), -7.0f);
    EXPECT_FLOAT_EQ(emu.fval(ft6), -17.0f);
}

/** A kmeans-like hot loop compiled with fused multiply-adds. */
workloads::Kernel
makeFusedKernel(uint64_t n)
{
    workloads::Kernel k;
    k.name = "kmeans-fused";
    k.parallel = true;
    k.fp = true;
    k.mesa_supported = false; // three-operand nodes fail C2
    k.iterations = n;

    Assembler as(0x1000);
    as.label("loop");
    as.flw(ft0, 0, a0);
    as.fsub_s(ft0, ft0, fa0);
    as.flw(ft1, 4, a0);
    as.fsub_s(ft1, ft1, fa1);
    as.fmul_s(ft2, ft0, ft0);
    as.fmadd_s(ft2, ft1, ft1, ft2); // dist = d1*d1 + d0*d0 (fused)
    as.fsw(ft2, 0, a1);
    as.addi(a0, a0, 8);
    as.addi(a1, a1, 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        uint32_t seed = 77;
        for (uint64_t i = 0; i < 2 * n; ++i) {
            seed = seed * 1664525u + 1013904223u;
            m.writeFloat(0x00100000 + uint32_t(4 * i),
                         float(seed >> 8) / float(1 << 24));
        }
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = 0x00100000 + uint32_t(8 * b);
        st.x[a1] = 0x00300000 + uint32_t(4 * b);
        st.x[a2] = 0x00100000 + uint32_t(8 * e);
        st.f[fa0] = std::bit_cast<uint32_t>(0.5f);
        st.f[fa1] = std::bit_cast<uint32_t>(0.25f);
    };
    k.program = as.assemble();
    k.loop_start = 0x1000;
    k.loop_end = k.program.labelPc("exit");
    return k;
}

TEST(Fused, LdfgRejectsThreeOperandNodes)
{
    const auto kernel = makeFusedKernel(64);
    dfg::BuildError err;
    EXPECT_FALSE(
        dfg::Ldfg::build(kernel.loopBody(), {}, 0, &err).has_value());
    EXPECT_EQ(err, dfg::BuildError::UnsupportedOp);
}

TEST(Fused, MonitorRejectsViaC2)
{
    const auto kernel = makeFusedKernel(2048);
    mem::MainMemory memory;
    kernel.plant(memory);

    Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());

    cpu::RegionMonitor monitor{cpu::MonitorParams{}};
    std::optional<cpu::MonitorDecision> decision;
    emu.setObserver([&](const TraceEntry &te) {
        monitor.observe(te);
        if (!decision && monitor.decision())
            decision = monitor.decision();
    });
    uint64_t steps = 0;
    while (!emu.halted() && steps++ < 500000 && !decision)
        emu.step();

    ASSERT_TRUE(decision.has_value());
    EXPECT_FALSE(decision->qualified);
    EXPECT_EQ(decision->reason, cpu::RejectReason::UnsupportedInstr);
}

TEST(Fused, TransparentRunStaysOnCpuAndIsCorrect)
{
    const auto kernel = makeFusedKernel(512);
    const auto want = test::runReference(kernel);

    mem::MainMemory memory;
    kernel.init_data(memory);
    core::MesaParams params;
    core::MesaController mesa(params, memory);
    const auto res = mesa.runTransparent(
        kernel.program, kernel.fullRange(), kernel.parallel);

    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(res.offloads.empty())
        << "fused-op loop must never offload";
    EXPECT_FALSE(res.rejections.empty());
    EXPECT_TRUE(test::sameMemory(memory.snapshot(), want.memory));
    EXPECT_EQ(res.final_state, want.state);
}

} // namespace
