/**
 * @file
 * Property-based sweeps across the whole stack: golden equivalence
 * over every (kernel x accelerator size) pair, timing-model
 * monotonicity properties (issue width, ROB, memory latency, node
 * weights), randomized LSU ordering against a flat memory oracle, and
 * mapper determinism.
 */

#include <gtest/gtest.h>

#include <random>

#include "helpers.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using core::MesaParams;
using workloads::Kernel;
using workloads::kernelByName;

// ---------------------------------------------------------------------
// Golden equivalence: kernel x accelerator configuration.
// ---------------------------------------------------------------------

class KernelByAccel
    : public ::testing::TestWithParam<
          std::tuple<const char *, const char *>>
{
  protected:
    static accel::AccelParams
    accelFor(const std::string &name)
    {
        if (name == "M-64")
            return accel::AccelParams::m64();
        if (name == "M-512")
            return accel::AccelParams::m512();
        return accel::AccelParams::m128();
    }
};

TEST_P(KernelByAccel, GoldenAcrossSizes)
{
    const auto [kernel_name, accel_name] = GetParam();
    const Kernel kernel = kernelByName(kernel_name, {384});
    const GoldenResult want = runReference(kernel);

    MesaParams params;
    params.accel = accelFor(accel_name);
    params.iterative_optimization = false;
    // srad exceeds M-64: fold it (extension) instead of skipping.
    params.enable_time_multiplexing = true;

    const OffloadRun run = runWithOffload(kernel, params);
    ASSERT_TRUE(run.stats.has_value())
        << kernel_name << " on " << accel_name;
    EXPECT_TRUE(sameMemory(run.memory, want.memory))
        << kernel_name << " on " << accel_name;
    EXPECT_EQ(run.state.pc, want.state.pc);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KernelByAccel,
    ::testing::Combine(
        ::testing::Values("nn", "kmeans", "hotspot", "cfd", "backprop",
                          "bfs", "srad", "lud", "pathfinder",
                          "streamcluster", "lavaMD", "gaussian",
                          "heartwall", "leukocyte", "hotspot3D"),
        ::testing::Values("M-64", "M-128", "M-512")),
    [](const auto &param_info) {
        std::string name = std::get<0>(param_info.param);
        name += "_";
        name += std::get<1>(param_info.param);
        for (auto &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// OoO core monotonicity.
// ---------------------------------------------------------------------

uint64_t
cpuCycles(const Kernel &kernel, const cpu::CoreParams &core,
          const mem::HierarchyParams &mem_params = {})
{
    mem::MainMemory memory;
    kernel.plant(memory);
    return cpu::runSingleCore(core, mem_params, memory, kernel.program,
                              kernel.fullRange())
        .cycles;
}

TEST(CoreProperties, WiderIssueNeverSlower)
{
    const Kernel kernel = kernelByName("cfd", {1024});
    uint64_t prev = ~uint64_t(0);
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        cpu::CoreParams core;
        core.issue_width = width;
        const uint64_t cyc = cpuCycles(kernel, core);
        EXPECT_LE(cyc, prev) << "width " << width;
        prev = cyc;
    }
}

TEST(CoreProperties, BiggerRobNeverSlower)
{
    const Kernel kernel = kernelByName("lud", {1024});
    uint64_t prev = ~uint64_t(0);
    for (unsigned rob : {8u, 32u, 128u, 512u}) {
        cpu::CoreParams core;
        core.rob_size = rob;
        const uint64_t cyc = cpuCycles(kernel, core);
        EXPECT_LE(cyc, prev) << "rob " << rob;
        prev = cyc;
    }
}

TEST(CoreProperties, SlowerDramNeverFaster)
{
    const Kernel kernel = kernelByName("bfs", {1024});
    uint64_t prev = 0;
    for (uint32_t dram : {60u, 120u, 240u}) {
        mem::HierarchyParams mp;
        mp.dram_latency = dram;
        const uint64_t cyc = cpuCycles(kernel, cpu::defaultCore(), mp);
        EXPECT_GE(cyc, prev) << "dram " << dram;
        prev = cyc;
    }
}

TEST(CoreProperties, HigherMispredictPenaltyNeverFaster)
{
    const Kernel kernel = kernelByName("b+tree", {512});
    uint64_t prev = 0;
    for (unsigned pen : {4u, 12u, 30u}) {
        cpu::CoreParams core;
        core.mispredict_penalty = pen;
        const uint64_t cyc = cpuCycles(kernel, core);
        EXPECT_GE(cyc, prev) << "penalty " << pen;
        prev = cyc;
    }
}

// ---------------------------------------------------------------------
// Randomized LSU ordering vs a flat-memory oracle.
// ---------------------------------------------------------------------

TEST(LsuProperties, RandomProgramOrderMatchesOracle)
{
    std::mt19937 rng(99);
    auto addr_dist =
        std::uniform_int_distribution<uint32_t>(0, 63); // word slots
    auto val_dist = std::uniform_int_distribution<uint32_t>();
    auto cycle_dist = std::uniform_int_distribution<uint64_t>(0, 50);

    for (int trial = 0; trial < 50; ++trial) {
        mem::MainMemory real, oracle;
        mem::MemHierarchy hierarchy;
        mem::PortPool ports(2);
        mem::LoadStoreUnit lsu(real, hierarchy, ports, 40);
        lsu.beginIteration();

        // A random interleaving of stores and loads in program order;
        // issue (ready) cycles are random, but semantics must follow
        // program order exactly.
        for (unsigned seq = 0; seq < 40; ++seq) {
            const uint32_t addr = 0x8000 + 4 * addr_dist(rng);
            if (rng() % 2 == 0) {
                const uint32_t value = val_dist(rng);
                lsu.store(seq, addr, value, riscv::Op::Sw,
                          cycle_dist(rng));
                oracle.write32(addr, value);
            } else {
                const auto res = lsu.load(seq, addr, riscv::Op::Lw,
                                          cycle_dist(rng));
                ASSERT_EQ(res.value, oracle.read32(addr))
                    << "trial " << trial << " seq " << seq;
            }
        }
        lsu.commitStores();
        // After commit, memory holds the oracle's final words.
        for (uint32_t slot = 0; slot < 64; ++slot) {
            const uint32_t addr = 0x8000 + 4 * slot;
            ASSERT_EQ(real.read32(addr), oracle.read32(addr))
                << "trial " << trial;
        }
    }
}

// ---------------------------------------------------------------------
// Latency-model and mapper properties.
// ---------------------------------------------------------------------

TEST(ModelProperties, RaisingNodeWeightNeverLowersTotal)
{
    auto ldfg = dfg::Ldfg::build(kernelByName("cfd", {64}).loopBody());
    ASSERT_TRUE(ldfg.has_value());
    const auto accel = accel::AccelParams::m128();
    ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
    core::InstructionMapper mapper(accel, ic);
    const auto map = mapper.map(*ldfg);

    dfg::LatencyModel model(*ldfg, map.sdfg, ic);
    const double base = model.evaluate().total;
    for (size_t i = 0; i < ldfg->size(); ++i) {
        const double saved = ldfg->node(int(i)).op_latency;
        ldfg->node(int(i)).op_latency = saved + 10.0;
        EXPECT_GE(model.evaluate().total, base) << "node " << i;
        ldfg->node(int(i)).op_latency = saved;
    }
    EXPECT_DOUBLE_EQ(model.evaluate().total, base);
}

TEST(MapperProperties, Deterministic)
{
    auto ldfg =
        dfg::Ldfg::build(kernelByName("streamcluster", {64}).loopBody());
    ASSERT_TRUE(ldfg.has_value());
    const auto accel = accel::AccelParams::m128();
    ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
    core::InstructionMapper mapper(accel, ic);

    const auto a = mapper.map(*ldfg);
    const auto b = mapper.map(*ldfg);
    ASSERT_EQ(a.completion.size(), b.completion.size());
    for (size_t i = 0; i < ldfg->size(); ++i) {
        EXPECT_EQ(a.sdfg.coordOf(int(i)).r, b.sdfg.coordOf(int(i)).r);
        EXPECT_EQ(a.sdfg.coordOf(int(i)).c, b.sdfg.coordOf(int(i)).c);
        EXPECT_DOUBLE_EQ(a.completion[i], b.completion[i]);
    }
    EXPECT_EQ(a.mapping_cycles, b.mapping_cycles);
}

TEST(MapperProperties, GridGrowthNeverWorsensModel)
{
    auto ldfg = dfg::Ldfg::build(kernelByName("srad", {64}).loopBody());
    ASSERT_TRUE(ldfg.has_value());
    double prev = std::numeric_limits<double>::infinity();
    for (int pes : {64, 128, 256, 512}) {
        const auto accel = accel::AccelParams::withPeCount(pes);
        ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
        core::InstructionMapper mapper(accel, ic);
        const auto map = mapper.map(*ldfg);
        // More PEs: no more unmapped nodes, model no worse than 1.2x
        // (greedy placement may wobble slightly with geometry).
        EXPECT_LE(map.model_latency, prev * 1.2) << pes << " PEs";
        prev = std::min(prev, map.model_latency);
    }
}

} // namespace
