/**
 * @file
 * Tests for the extensions the paper lists as future work / current
 * limitations: PE time-multiplexing (folding oversized loops onto a
 * virtual grid) and loop unrolling. Each must preserve golden-model
 * equivalence and exhibit the documented performance behaviour.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "dfg/unroll.hh"
#include "interconnect/folded.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using core::MesaParams;
using workloads::Kernel;
using workloads::kernelByName;

TEST(FoldedInterconnect, FoldsRowsOntoPhysicalGrid)
{
    ic::AccelNocInterconnect phys(16, 8, 4);
    ic::FoldedInterconnect folded(phys, 16);

    // Virtual rows 0 and 16 are the same physical row.
    EXPECT_EQ(folded.latency({16, 0}, {0, 1}),
              phys.latency({0, 0}, {0, 1}));
    EXPECT_EQ(folded.latency({18, 3}, {35, 5}),
              phys.latency({2, 3}, {3, 5}));
    EXPECT_EQ(folded.busId({17, 0}, {20, 4}),
              phys.busId({1, 0}, {4, 4}));
    EXPECT_EQ(folded.fold({33, 2}).r, 1);
}

TEST(TimeMultiplex, SradQualifiesOnM64WithFolding)
{
    // srad's ~78-instruction body exceeds M-64's 64 PEs; with the
    // time-multiplexing extension it folds onto a virtual grid and
    // still runs bit-exact.
    const Kernel kernel = kernelByName("srad", {512});
    const GoldenResult want = runReference(kernel);

    MesaParams off;
    off.accel = accel::AccelParams::m64();
    off.iterative_optimization = false;
    {
        // Paper behaviour: C1 rejects the loop outright.
        mem::MainMemory memory;
        kernel.plant(memory);
        core::MesaController mesa(off, memory);
        riscv::Emulator emu(memory);
        kernel.enterLoop(emu);
        EXPECT_FALSE(mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                      kernel.parallel)
                         .has_value());
    }

    MesaParams on = off;
    on.enable_time_multiplexing = true;
    const OffloadRun run = runWithOffload(kernel, on);
    ASSERT_TRUE(run.stats.has_value())
        << "folded mapping should qualify";
    EXPECT_EQ(run.stats->accel_iterations, kernel.iterations);
    EXPECT_TRUE(sameMemory(run.memory, want.memory));
}

TEST(TimeMultiplex, SharedPesSlowerThanPureSpatial)
{
    const Kernel kernel = kernelByName("srad", {1024});

    MesaParams folded;
    folded.accel = accel::AccelParams::m64();
    folded.enable_time_multiplexing = true;
    folded.iterative_optimization = false;
    const OffloadRun small = runWithOffload(kernel, folded);

    MesaParams spatial;
    spatial.accel = accel::AccelParams::m128();
    spatial.iterative_optimization = false;
    const OffloadRun big = runWithOffload(kernel, spatial);

    ASSERT_TRUE(small.stats && big.stats);
    // Folding time-shares PEs: per-iteration throughput must be
    // strictly worse than the purely spatial mapping on enough PEs.
    EXPECT_GT(small.stats->accel_cycles, big.stats->accel_cycles);
    EXPECT_TRUE(sameMemory(small.memory, big.memory));
}

TEST(TimeMultiplex, EquivalenceAcrossKernelsAndFolds)
{
    // Force folding even for small kernels by shrinking the array.
    for (const char *name : {"kmeans", "cfd", "pathfinder"}) {
        const Kernel kernel = kernelByName(name, {256});
        const GoldenResult want = runReference(kernel);

        MesaParams params;
        params.accel.rows = 4;
        params.accel.cols = 4; // 16 PEs: everything needs folding
        params.accel.mem_ports = 8;
        params.enable_time_multiplexing = true;
        params.max_time_multiplex = 4;
        params.iterative_optimization = false;
        const OffloadRun run = runWithOffload(kernel, params);
        ASSERT_TRUE(run.stats.has_value()) << name;
        EXPECT_TRUE(sameMemory(run.memory, want.memory)) << name;
    }
}

// ---------------------------------------------------------------------
// Loop unrolling (extension).
// ---------------------------------------------------------------------

TEST(Unroll, TransformShapeAndAdjustments)
{
    const Kernel kernel = kernelByName("gaussian", {256});
    const auto body = kernel.loopBody(); // 8 instructions, 3 inductions
    const auto unrolled = dfg::unrollBody(body, 4);
    ASSERT_TRUE(unrolled.has_value());
    // 5 replicated instructions x4 + 3 scaled updates + branch.
    EXPECT_EQ(unrolled->body.size(), 4 * 5 + 2 + 1);
    // The bound register is tightened by (f-1)*step.
    ASSERT_EQ(unrolled->live_in_adjustments.size(), 1u);
    EXPECT_EQ(unrolled->live_in_adjustments.begin()->second, -3 * 4);
    // Induction updates are scaled by the factor.
    int scaled = 0;
    for (const auto &inst : unrolled->body)
        if (inst.op == riscv::Op::Addi && inst.imm == 16)
            ++scaled;
    EXPECT_EQ(scaled, 2);
    // Still a well-formed loop body.
    EXPECT_TRUE(dfg::Ldfg::build(unrolled->body).has_value());
}

TEST(Unroll, RejectsUnsafeBodies)
{
    // bfs: forward branch (predication) -> reject.
    EXPECT_FALSE(
        dfg::unrollBody(kernelByName("bfs", {256}).loopBody(), 2)
            .has_value());
    // backprop: ends in blt but carries fa0; the induction-use test
    // passes, so it unrolls -- but a trip-dependent reduction stays
    // exact because the tail runs on the CPU. Just check it builds.
    const auto red =
        dfg::unrollBody(kernelByName("backprop", {256}).loopBody(), 2);
    EXPECT_TRUE(red.has_value());
    // Factor 1 or empty bodies are rejected.
    EXPECT_FALSE(dfg::unrollBody({}, 2).has_value());
    EXPECT_FALSE(
        dfg::unrollBody(kernelByName("nn", {64}).loopBody(), 1)
            .has_value());
}

class UnrollEquivalence : public ::testing::TestWithParam<
                              std::tuple<const char *, uint64_t>>
{
};

TEST_P(UnrollEquivalence, GoldenWithTailOnCpu)
{
    const auto [name, trip] = GetParam();
    const Kernel kernel = kernelByName(name, {trip});
    const GoldenResult want = runReference(kernel);

    MesaParams params;
    params.enable_unrolling = true;
    params.unroll_factor = 4;
    params.iterative_optimization = false;
    const OffloadRun run = runWithOffload(kernel, params);
    ASSERT_TRUE(run.stats.has_value());
    EXPECT_TRUE(sameMemory(run.memory, want.memory));
    EXPECT_EQ(run.state, want.state)
        << "CPU tail must finish the leftover iterations exactly";
}

// Trip counts chosen to exercise every tail size (0..3 for f=4).
INSTANTIATE_TEST_SUITE_P(
    TailSizes, UnrollEquivalence,
    ::testing::Values(std::tuple{"gaussian", uint64_t(256)},
                      std::tuple{"gaussian", uint64_t(257)},
                      std::tuple{"gaussian", uint64_t(258)},
                      std::tuple{"gaussian", uint64_t(259)},
                      std::tuple{"nn", uint64_t(255)},
                      std::tuple{"lud", uint64_t(253)},
                      std::tuple{"backprop", uint64_t(130)}),
    [](const auto &param_info) {
        return std::string(std::get<0>(param_info.param)) + "_" +
               std::to_string(std::get<1>(param_info.param));
    });

TEST(Unroll, ImprovesSmallLoopThroughput)
{
    // gaussian's 8-instruction body underuses even one tile; covering
    // 4 iterations per pass must not be slower.
    const Kernel kernel = kernelByName("gaussian", {4096});
    MesaParams off;
    off.iterative_optimization = false;
    off.enable_tiling = false;
    MesaParams on = off;
    on.enable_unrolling = true;
    const OffloadRun a = runWithOffload(kernel, on);
    const OffloadRun b = runWithOffload(kernel, off);
    ASSERT_TRUE(a.stats && b.stats);
    EXPECT_LT(a.stats->accel_cycles, b.stats->accel_cycles);
}

TEST(ShadowConfig, HidesReconfigurationCost)
{
    const Kernel kernel = kernelByName("nn", {4096});
    MesaParams plain;
    plain.iterative_optimization = true;
    plain.profile_epoch_iterations = 64;
    MesaParams shadow = plain;
    shadow.shadow_config = true;

    const OffloadRun a = runWithOffload(kernel, plain);
    const OffloadRun b = runWithOffload(kernel, shadow);
    ASSERT_TRUE(a.stats && b.stats);
    ASSERT_GT(a.stats->reconfigurations, 0);
    EXPECT_EQ(a.stats->reconfigurations, b.stats->reconfigurations);
    EXPECT_LT(b.stats->reconfig_cycles, a.stats->reconfig_cycles);
    // Results stay identical, only the charged cycles change.
    EXPECT_TRUE(sameMemory(a.memory, b.memory));
}

TEST(TimeMultiplex, DisabledByDefault)
{
    const Kernel kernel = kernelByName("srad", {256});
    MesaParams params;
    params.accel = accel::AccelParams::m64();
    // Default MesaParams: extension off -> C1-style rejection.
    EXPECT_FALSE(params.enable_time_multiplexing);
    const OffloadRun run = runWithOffload(kernel, params);
    EXPECT_FALSE(run.stats.has_value());
}

} // namespace
