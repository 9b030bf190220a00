/**
 * @file
 * Region-monitor and controller edge cases: C3 instruction-mix
 * rejection, equality-exit loops with unknowable trip counts, loops
 * that finish while MESA is still configuring (overlap abort), and
 * tiny-trip loops that never amortize.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "riscv/assembler.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using namespace mesa::riscv::reg;
using riscv::Assembler;

constexpr uint32_t ArrA = 0x00100000;
constexpr uint32_t ArrB = 0x00200000;

std::optional<cpu::MonitorDecision>
monitorProgram(const riscv::Program &prog,
               const std::function<void(riscv::ArchState &)> &init,
               const cpu::MonitorParams &mp = {})
{
    mem::MainMemory memory;
    // Touch the data arrays so loads read zeroes deterministically.
    cpu::loadProgram(memory, prog);

    riscv::Emulator emu(memory);
    emu.reset(prog.base_pc);
    init(emu.state());

    cpu::RegionMonitor monitor(mp);
    std::optional<cpu::MonitorDecision> decision;
    emu.setObserver([&](const riscv::TraceEntry &te) {
        monitor.observe(te);
        if (!decision && monitor.decision())
            decision = monitor.decision();
    });
    uint64_t steps = 0;
    while (!emu.halted() && steps++ < 2'000'000 && !decision)
        emu.step();
    return decision;
}

TEST(MonitorEdges, MemoryOnlyLoopFailsC3Mix)
{
    // Eight loads, one induction, one branch: 80% memory.
    Assembler as;
    as.label("loop");
    for (int i = 0; i < 8; ++i)
        as.lw(uint8_t(t0 + (i % 3)), 4 * i, a0);
    as.addi(a0, a0, 32);
    as.blt(a0, a1, "loop");
    as.ecall();

    const auto decision =
        monitorProgram(as.assemble(), [](riscv::ArchState &st) {
            st.x[a0] = ArrA;
            st.x[a1] = ArrA + 32 * 4096;
        });
    ASSERT_TRUE(decision.has_value());
    EXPECT_FALSE(decision->qualified);
    EXPECT_EQ(decision->reason, cpu::RejectReason::PoorMix);
    EXPECT_GT(decision->mem_frac, 0.7);
}

TEST(MonitorEdges, EqualityExitGivesUnknownTripEstimate)
{
    // Exit via bne on a value loaded from memory: both operands static
    // across iterations except the induction; actually make BOTH
    // branch operands non-moving so the rate is zero -> unknown trip.
    Assembler as;
    as.label("loop");
    as.lw(t0, 0, a0);       // flag (stays 0 for a long time)
    as.add(t1, t1, t0);
    as.addi(a0, a0, 4);
    as.beq(t0, zero, "loop"); // loop while flag == 0
    as.ecall();

    const auto decision =
        monitorProgram(as.assemble(), [](riscv::ArchState &st) {
            st.x[a0] = ArrA; // zero-filled until a sentinel
        });
    // flag==0 forever (memory is zero) until... never; monitor gets 2
    // passes then must reject with FewIterations (no estimate).
    ASSERT_TRUE(decision.has_value());
    EXPECT_FALSE(decision->qualified);
    EXPECT_EQ(decision->reason, cpu::RejectReason::FewIterations);
    EXPECT_EQ(decision->est_remaining_iterations, 0u);
}

TEST(MonitorEdges, UnsignedCompareLoopEstimatesTrip)
{
    // A bltu-closed loop (pointers compare unsigned): the estimator's
    // gap/rate arithmetic must still project the remaining trip.
    Assembler as;
    as.label("loop");
    as.lw(t0, 0, a0);
    as.add(t1, t1, t0);
    as.sw(t1, 0, a1);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.bltu(a0, a2, "loop");
    as.ecall();

    const auto decision =
        monitorProgram(as.assemble(), [](riscv::ArchState &st) {
            st.x[a0] = ArrA;
            st.x[a1] = ArrB;
            st.x[a2] = ArrA + 4 * 3000;
        });
    ASSERT_TRUE(decision.has_value());
    EXPECT_TRUE(decision->qualified);
    EXPECT_GT(decision->est_remaining_iterations, 2500u);
    EXPECT_LT(decision->est_remaining_iterations, 3001u);
}

TEST(MonitorEdges, ShortLoopNeverOffloadsButCompletes)
{
    // 30 iterations: below the 50-iteration amortization threshold.
    const auto kernel = workloads::makeKmeans(30);
    const GoldenResult want = runReference(kernel);

    mem::MainMemory memory;
    kernel.init_data(memory);
    core::MesaParams params;
    core::MesaController mesa(params, memory);
    const auto res = mesa.runTransparent(
        kernel.program, kernel.fullRange(), kernel.parallel);

    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(res.offloads.empty());
    ASSERT_FALSE(res.rejections.empty());
    EXPECT_EQ(res.rejections.front().reason,
              cpu::RejectReason::FewIterations);
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
    EXPECT_EQ(res.final_state, want.state);
}

TEST(MonitorEdges, LoopEndingDuringConfigurationAborts)
{
    // Trip count just above the monitor threshold: by the time the
    // monitor qualifies (2+ passes) and the CPU covers the overlap
    // iterations, the loop may already be done. Whatever happens, the
    // result must be exact and nothing may crash.
    for (uint64_t trip : {52u, 60u, 80u, 120u}) {
        const auto kernel = workloads::makeGaussian(trip);
        const GoldenResult want = runReference(kernel);

        mem::MainMemory memory;
        kernel.init_data(memory);
        core::MesaParams params;
        params.monitor.min_expected_iterations = 40;
        core::MesaController mesa(params, memory);
        const auto res = mesa.runTransparent(
            kernel.program, kernel.fullRange(), kernel.parallel);

        EXPECT_TRUE(res.halted) << trip;
        EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory))
            << trip;
        EXPECT_EQ(res.final_state, want.state) << trip;
    }
}

TEST(MonitorEdges, BlacklistedRegionStaysOnCpuForever)
{
    // A kernel whose mapping always fails (FP ops, FP disabled in the
    // backend) is blacklisted after the first attempt; the program
    // still completes correctly with exactly one structural failure.
    const auto kernel = workloads::makeKmeans(4096);
    const GoldenResult want = runReference(kernel);

    mem::MainMemory memory;
    kernel.init_data(memory);
    core::MesaParams params;
    params.accel.fp_slices = false; // no PE supports FP
    core::MesaController mesa(params, memory);
    const auto res = mesa.runTransparent(
        kernel.program, kernel.fullRange(), kernel.parallel);

    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(res.offloads.empty());
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
    EXPECT_EQ(res.final_state, want.state);
}

TEST(MonitorEdges, TraceCachePartialFillBackfills)
{
    // A loop whose first monitored pass skips instructions (forward
    // branch) leaves trace-cache holes; backfill must complete it.
    const auto kernel = workloads::makeBfs(4096);
    mem::MainMemory memory;
    kernel.plant(memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());

    cpu::RegionMonitor monitor{cpu::MonitorParams{}};
    emu.setObserver(
        [&](const riscv::TraceEntry &te) { monitor.observe(te); });
    uint64_t steps = 0;
    while (!emu.halted() && steps++ < 500000) {
        emu.step();
        if (monitor.decision() && monitor.decision()->qualified)
            break;
    }
    ASSERT_TRUE(monitor.decision() && monitor.decision()->qualified);
    // The guarded store may never have committed during monitoring.
    monitor.traceCache().backfill(memory);
    EXPECT_TRUE(monitor.traceCache().complete());
    const auto body = monitor.traceCache().body();
    EXPECT_EQ(body.size(),
              size_t(kernel.loop_end - kernel.loop_start) / 4);
}

} // namespace
