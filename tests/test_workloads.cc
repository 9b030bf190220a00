/**
 * @file
 * Workload-suite tests: every kernel assembles, runs to completion on
 * the emulator, computes plausible results, splits into chunks that
 * reproduce the sequential outcome, and carries consistent metadata.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using workloads::Kernel;
using workloads::rodiniaSuite;

class SuiteKernels : public ::testing::TestWithParam<std::string>
{
  protected:
    Kernel
    kernel() const
    {
        return workloads::kernelByName(GetParam(), {512});
    }
};

TEST_P(SuiteKernels, AssemblesAndDecodes)
{
    const Kernel k = kernel();
    EXPECT_FALSE(k.program.words.empty());
    EXPECT_GE(k.loop_end, k.loop_start + 4u);
    // Every word decodes to a valid instruction.
    for (const auto &inst : k.program.decodeAll()) {
        if (inst.pc + 4 == k.program.endPc())
            continue; // trailing ecall decodes as system
        EXPECT_NE(inst.op, riscv::Op::Invalid)
            << "at pc 0x" << std::hex << inst.pc;
    }
    // The loop body closes with a backward branch.
    const auto body = k.loopBody();
    ASSERT_FALSE(body.empty());
    EXPECT_TRUE(body.back().isBackwardBranch());
}

TEST_P(SuiteKernels, RunsToCompletion)
{
    const Kernel k = kernel();
    const GoldenResult res = runReference(k);
    EXPECT_GT(res.instructions, k.iterations)
        << "the hot loop must dominate the instruction count";
    // Ends at the ecall.
    EXPECT_GE(res.state.pc, k.loop_end);
}

TEST_P(SuiteKernels, ChunksReproduceSequentialResult)
{
    const Kernel k = kernel();
    if (!k.parallel)
        GTEST_SKIP() << "serial kernel";

    const GoldenResult want = runReference(k);

    mem::MainMemory memory;
    k.plant(memory);
    for (const auto &init : k.chunks(8)) {
        riscv::Emulator emu(memory);
        emu.reset(k.program.base_pc);
        init(emu.state());
        emu.run(20'000'000);
        EXPECT_TRUE(emu.halted());
    }
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
}

INSTANTIATE_TEST_SUITE_P(
    All, SuiteKernels,
    ::testing::Values("nn", "kmeans", "hotspot", "cfd", "backprop",
                      "bfs", "srad", "lud", "pathfinder", "b+tree",
                      "streamcluster", "lavaMD", "gaussian",
                      "heartwall", "leukocyte", "hotspot3D"),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        std::string name = param_info.param;
        for (auto &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(Suite, ContainsAllKernels)
{
    const auto suite = rodiniaSuite({256});
    EXPECT_EQ(suite.size(), 16u);
    int parallel = 0, fp = 0, unsupported = 0;
    for (const auto &k : suite) {
        parallel += k.parallel;
        fp += k.fp;
        unsupported += !k.mesa_supported;
    }
    EXPECT_GE(parallel, 11);
    EXPECT_GE(fp, 12);
    EXPECT_EQ(unsupported, 1); // b+tree
}

TEST(Suite, NnComputesEuclideanDistance)
{
    const Kernel k = workloads::makeNn(64);
    mem::MainMemory memory;
    k.plant(memory);
    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);

    // Check element 5 against a host-computed reference.
    const float lat = memory.readFloat(0x00100000 + 4 * 5);
    const float lng = memory.readFloat(0x00200000 + 4 * 5);
    const float want = std::sqrt((lat - 37.4f) * (lat - 37.4f) +
                                 (lng + 122.1f) * (lng + 122.1f));
    const float got = memory.readFloat(0x00300000 + 4 * 5);
    EXPECT_FLOAT_EQ(got, want);
}

TEST(Suite, PathfinderComputesMinPlusCost)
{
    const Kernel k = workloads::makePathfinder(64);
    mem::MainMemory memory;
    k.plant(memory);

    // Host reference for element 7.
    const uint32_t p0 = memory.read32(0x00100000 + 4 * 7);
    const uint32_t p1 = memory.read32(0x00100000 + 4 * 8);
    const uint32_t p2 = memory.read32(0x00100000 + 4 * 9);
    const uint32_t cost = memory.read32(0x00200000 + 4 * 7);
    const uint32_t want = std::min({p0, p1, p2}) + cost;

    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);
    EXPECT_EQ(memory.read32(0x00300000 + 4 * 7), want);
}

TEST(Suite, BfsMarksReachableNodes)
{
    const Kernel k = workloads::makeBfs(256);
    mem::MainMemory memory;
    k.plant(memory);
    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);

    // Every edge destination must now be visited.
    for (uint64_t i = 0; i < 256; ++i) {
        const uint32_t dst = memory.read32(0x00100000 + uint32_t(4 * i));
        EXPECT_NE(memory.read32(0x00200000 + 4 * dst), 0u);
    }
}

TEST(Suite, HeartwallComputesNormalizedCorrelation)
{
    const Kernel k = workloads::makeHeartwall(64);
    mem::MainMemory memory;
    k.plant(memory);

    // Host reference for element 9.
    const float f = memory.readFloat(0x00100000 + 4 * 9) - 127.5f;
    const float t = memory.readFloat(0x00200000 + 4 * 9) - 127.5f;
    const float want = (f * t) / std::sqrt((f * f + 0.5f) * (t * t));

    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);
    EXPECT_FLOAT_EQ(memory.readFloat(0x00300000 + 4 * 9), want);
}

TEST(Suite, LeukocyteComputesDirectionalDerivative)
{
    const Kernel k = workloads::makeLeukocyte(64);
    mem::MainMemory memory;
    k.plant(memory);

    const float gx = memory.readFloat(0x00100000 + 8 * 3);
    const float gy = memory.readFloat(0x00100000 + 8 * 3 + 4);
    const float sin_t = memory.readFloat(0x00200000 + 8 * 3);
    const float cos_t = memory.readFloat(0x00200000 + 8 * 3 + 4);
    const float want = gx * cos_t + gy * sin_t;

    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);
    EXPECT_FLOAT_EQ(memory.readFloat(0x00300000 + 8 * 3), want);
    EXPECT_FLOAT_EQ(memory.readFloat(0x00300000 + 8 * 3 + 4),
                    want * want);
}

TEST(Suite, GaussianEliminatesRow)
{
    const Kernel k = workloads::makeGaussian(64);
    mem::MainMemory memory;
    k.plant(memory);

    const float a5 = memory.readFloat(0x00100000 + 4 * 5);
    const float b5 = memory.readFloat(0x00200000 + 4 * 5);
    const float want = a5 - 0.75f * b5;

    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);
    EXPECT_FLOAT_EQ(memory.readFloat(0x00100000 + 4 * 5), want);
}

TEST(Suite, HotspotStencilMatchesHostMath)
{
    const Kernel k = workloads::makeHotspot(64);
    mem::MainMemory memory;
    k.plant(memory);

    const uint32_t T = 0x00100000, P = 0x00200000;
    const int i = 7; // interior element (offset by padding)
    const float c = memory.readFloat(T + 4 * (i + 1));
    const float w = memory.readFloat(T + 4 * i);
    const float e = memory.readFloat(T + 4 * (i + 2));
    const float p = memory.readFloat(P + 4 * (i + 1));
    const float want = c + 0.1f * (w + e - 2.0f * c) + p;

    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);
    EXPECT_FLOAT_EQ(memory.readFloat(0x00300000 + 4 * (i + 1)), want);
}

TEST(Suite, BackpropAccumulatesDotProduct)
{
    const Kernel k = workloads::makeBackprop(128);
    mem::MainMemory memory;
    k.plant(memory);

    float want = 0.0f;
    for (int i = 0; i < 128; ++i) {
        want += memory.readFloat(0x00100000 + uint32_t(4 * i)) *
                memory.readFloat(0x00200000 + uint32_t(4 * i));
    }

    riscv::Emulator emu(memory);
    emu.reset(k.program.base_pc);
    k.fullRange()(emu.state());
    emu.run(1'000'000);
    EXPECT_FLOAT_EQ(memory.readFloat(0x00300000), want);
}

} // namespace
