/**
 * @file
 * Accelerator golden-model equivalence and feature tests: executing a
 * mapped loop on the spatial-accelerator simulator must produce
 * bit-identical memory (and, untiled, architectural state) to the
 * functional RISC-V emulator — across kernels, optimizations, tiling,
 * and pipelining (parameterized sweep). Also covers predication,
 * store->load forwarding, vectorization, and counter behaviour, and
 * pins the device loop's exact outcomes on hand-built configurations
 * (DeviceLoopGolden).
 */

#include <algorithm>
#include <bit>
#include <map>
#include <ostream>

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "helpers.hh"
#include "util/crc32.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using core::MesaParams;
using workloads::Kernel;
using workloads::kernelByName;

MesaParams
baseParams()
{
    MesaParams p;
    p.accel = accel::AccelParams::m128();
    p.iterative_optimization = false;
    return p;
}

/** The whole architectural state must survive the offload: merged
 *  induction registers equal the sequential exit values, and
 *  temporaries come from the globally last iteration. */
void
expectStateMatches(const Kernel &kernel, const riscv::ArchState &got,
                   const riscv::ArchState &want)
{
    (void)kernel;
    for (int r = 0; r < 32; ++r) {
        EXPECT_EQ(got.x[size_t(r)], want.x[size_t(r)])
            << "x" << r << " mismatch";
        EXPECT_EQ(got.f[size_t(r)], want.f[size_t(r)])
            << "f" << r << " mismatch";
    }
}

// ---------------------------------------------------------------------
// Parameterized golden-equivalence sweep: kernel x configuration.
// ---------------------------------------------------------------------

struct SweepCase
{
    const char *kernel;
    bool tiling;
    bool pipelining;
    bool vectorization;
    bool forwarding;
    bool prefetch;
};

std::string
caseName(const ::testing::TestParamInfo<SweepCase> &info)
{
    const SweepCase &c = info.param;
    std::string name = c.kernel;
    for (auto &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    name += c.tiling ? "_tile" : "_notile";
    name += c.pipelining ? "_pipe" : "_nopipe";
    if (!c.vectorization)
        name += "_novec";
    if (!c.forwarding)
        name += "_nofwd";
    if (!c.prefetch)
        name += "_nopf";
    return name;
}

class GoldenEquivalence : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(GoldenEquivalence, MemoryMatchesEmulator)
{
    const SweepCase &c = GetParam();
    const Kernel kernel = kernelByName(c.kernel, {512});
    ASSERT_TRUE(kernel.mesa_supported);

    MesaParams params = baseParams();
    params.enable_tiling = c.tiling;
    params.enable_pipelining = c.pipelining;
    params.enable_vectorization = c.vectorization;
    params.enable_forwarding = c.forwarding;
    params.enable_prefetch = c.prefetch;

    const GoldenResult want = runReference(kernel);
    const OffloadRun got = runWithOffload(kernel, params);

    ASSERT_TRUE(got.stats.has_value()) << "offload failed";
    EXPECT_GT(got.stats->accel_iterations, 0u);
    EXPECT_TRUE(sameMemory(got.memory, want.memory));
    expectStateMatches(kernel, got.state, want.state);
    EXPECT_EQ(got.state.pc, want.state.pc);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GoldenEquivalence,
    ::testing::Values(
        SweepCase{"nn", false, false, true, true, true},
        SweepCase{"nn", true, true, true, true, true},
        SweepCase{"kmeans", false, false, true, true, true},
        SweepCase{"kmeans", true, true, true, true, true},
        SweepCase{"hotspot", false, false, true, true, true},
        SweepCase{"hotspot", true, true, true, true, true},
        SweepCase{"hotspot", true, true, false, false, false},
        SweepCase{"cfd", false, false, true, true, true},
        SweepCase{"cfd", true, true, true, true, true},
        SweepCase{"backprop", false, false, true, true, true},
        SweepCase{"bfs", false, false, true, true, true},
        SweepCase{"bfs", true, false, true, true, true},
        SweepCase{"srad", false, false, true, true, true},
        SweepCase{"srad", true, true, true, true, true},
        SweepCase{"lud", false, false, true, true, true},
        SweepCase{"pathfinder", false, false, true, true, true},
        SweepCase{"pathfinder", true, true, true, true, true},
        SweepCase{"streamcluster", true, true, true, true, true},
        SweepCase{"lavaMD", true, true, true, true, true},
        SweepCase{"gaussian", false, false, true, true, true},
        SweepCase{"gaussian", true, true, true, true, true}),
    caseName);

// ---------------------------------------------------------------------
// Untiled runs must reproduce the *entire* architectural state.
// ---------------------------------------------------------------------

class UntiledExactState : public ::testing::TestWithParam<const char *>
{
};

TEST_P(UntiledExactState, AllRegistersMatch)
{
    const Kernel kernel = kernelByName(GetParam(), {256});
    MesaParams params = baseParams();
    params.enable_tiling = false;
    params.enable_pipelining = false;

    const GoldenResult want = runReference(kernel);
    const OffloadRun got = runWithOffload(kernel, params);
    ASSERT_TRUE(got.stats.has_value());
    EXPECT_EQ(got.state, want.state)
        << "architectural state diverged from the golden model";
    EXPECT_TRUE(sameMemory(got.memory, want.memory));
}

INSTANTIATE_TEST_SUITE_P(Suite, UntiledExactState,
                         ::testing::Values("nn", "kmeans", "hotspot",
                                           "cfd", "backprop", "bfs",
                                           "lud", "pathfinder",
                                           "gaussian", "streamcluster",
                                           "lavaMD", "srad"));

// ---------------------------------------------------------------------
// Feature-specific behaviour.
// ---------------------------------------------------------------------

TEST(AccelFeatures, PredicationDisablesOps)
{
    // bfs has a guarded store; some iterations must be predicated off.
    const Kernel kernel = kernelByName("bfs", {512});
    MesaParams params = baseParams();
    params.enable_tiling = false;
    const OffloadRun got = runWithOffload(kernel, params);
    ASSERT_TRUE(got.stats.has_value());
    EXPECT_GT(got.stats->accel.disabled_ops, 0u)
        << "expected predicated-off executions in bfs";
    // Not every iteration stores: stores < iterations.
    EXPECT_LT(got.stats->accel.stores, got.stats->accel_iterations);
}

TEST(AccelFeatures, TilingMultipliesInstances)
{
    const Kernel kernel = kernelByName("nn", {512});
    MesaParams params = baseParams();
    params.enable_tiling = true;
    params.enable_pipelining = false;

    const OffloadRun got = runWithOffload(kernel, params);
    ASSERT_TRUE(got.stats.has_value());
    EXPECT_GT(got.stats->tile_factor, 1) << "nn should tile on M-128";

    // Tiling must improve throughput over untiled.
    MesaParams solo = params;
    solo.enable_tiling = false;
    const OffloadRun ref = runWithOffload(kernel, solo);
    ASSERT_TRUE(ref.stats.has_value());
    EXPECT_LT(got.stats->accel_cycles, ref.stats->accel_cycles);
}

TEST(AccelFeatures, PipeliningOverlapsIterations)
{
    const Kernel kernel = kernelByName("kmeans", {512});
    MesaParams with = baseParams();
    with.enable_tiling = false;
    with.enable_pipelining = true;
    MesaParams without = with;
    without.enable_pipelining = false;

    const OffloadRun a = runWithOffload(kernel, with);
    const OffloadRun b = runWithOffload(kernel, without);
    ASSERT_TRUE(a.stats.has_value());
    ASSERT_TRUE(b.stats.has_value());
    EXPECT_LT(a.stats->accel_cycles, b.stats->accel_cycles)
        << "pipelining should overlap iterations";
    EXPECT_TRUE(sameMemory(a.memory, b.memory));
}

TEST(AccelFeatures, VectorizationReducesPortPressure)
{
    // hotspot's three t[] loads share a base register.
    const Kernel kernel = kernelByName("hotspot", {512});
    MesaParams with = baseParams();
    with.enable_tiling = false;
    with.enable_pipelining = false;
    MesaParams without = with;
    without.enable_vectorization = false;

    const OffloadRun a = runWithOffload(kernel, with);
    const OffloadRun b = runWithOffload(kernel, without);
    ASSERT_TRUE(a.stats && b.stats);
    // The wide access couples member completion to the leader, so
    // allow a small latency wobble; throughput must stay comparable
    // while the results remain bit-identical.
    EXPECT_LE(double(a.stats->accel_cycles),
              double(b.stats->accel_cycles) * 1.10);
    EXPECT_TRUE(sameMemory(a.memory, b.memory));
}

TEST(AccelFeatures, IdealMemoryNeverSlower)
{
    const Kernel kernel = kernelByName("nn", {512});
    MesaParams normal = baseParams();
    MesaParams ideal = normal;
    ideal.accel.ideal_memory = true;

    const OffloadRun a = runWithOffload(kernel, ideal);
    const OffloadRun b = runWithOffload(kernel, normal);
    ASSERT_TRUE(a.stats && b.stats);
    EXPECT_LE(a.stats->accel_cycles, b.stats->accel_cycles);
}

TEST(AccelFeatures, EpochRunResumesCorrectly)
{
    // Run a kernel in small epochs (profiling mode) and confirm the
    // final memory still matches the golden model exactly.
    const Kernel kernel = kernelByName("gaussian", {300});
    MesaParams params = baseParams();
    params.enable_tiling = false;
    params.enable_pipelining = false;

    mem::MainMemory memory;
    kernel.plant(memory);
    core::MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());

    // Three partial runs then completion.
    uint64_t total_iters = 0;
    for (int i = 0; i < 3; ++i) {
        auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                   false, 64);
        ASSERT_TRUE(os.has_value());
        total_iters += os->accel_iterations;
    }
    auto final_os =
        mesa.offloadLoop(kernel.loopBody(), emu.state(), false);
    ASSERT_TRUE(final_os.has_value());
    total_iters += final_os->accel_iterations;
    EXPECT_EQ(total_iters, kernel.iterations);

    emu.run(10'000'000);
    const GoldenResult want = runReference(kernel);
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
    EXPECT_EQ(emu.state(), want.state);
}

TEST(AccelFeatures, MeasuredCountersPopulated)
{
    const Kernel kernel = kernelByName("nn", {256});
    MesaParams params = baseParams();
    mem::MainMemory memory;
    kernel.plant(memory);
    core::MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    ASSERT_TRUE(os.has_value());

    auto &accel = mesa.accelerator();
    // The loads' measured latency reflects real memory behaviour.
    const auto body = kernel.loopBody();
    bool saw_load_latency = false;
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i].isLoad()) {
            const double lat = accel.measuredNodeLatency(int(i));
            EXPECT_GT(lat, 0.0);
            saw_load_latency = true;
        }
    }
    EXPECT_TRUE(saw_load_latency);
    // Edge counters exist for dependent nodes.
    bool saw_edge = false;
    for (size_t i = 0; i < body.size(); ++i)
        if (accel.measuredEdgeLatency(int(i), 0) >= 0.0)
            saw_edge = true;
    EXPECT_TRUE(saw_edge);
}

// ---------------------------------------------------------------------
// Device-loop golden: hand-built configurations driven straight on the
// Accelerator, with every run outcome pinned to recorded constants.
// Any change to the per-iteration loop (routing, bus booking, fault
// matching, LSQ forwarding, cache state) that moves a modeled number
// shows up here as a field-by-field diff.
// ---------------------------------------------------------------------

constexpr uint32_t kLoopPc = 0x1000;
constexpr uint32_t kArrayA = 0x10000;
constexpr uint32_t kOutOffset = 0x4000;
constexpr int kTrips = 24;
constexpr uint64_t kCycleBudget = 6000;

accel::PeSlot
makeSlot(int node, riscv::Op op, int rd, int32_t imm, ic::Coord pos,
         double latency = 1.0)
{
    accel::PeSlot s;
    s.node = node;
    s.inst.op = op;
    s.inst.rd = uint8_t(rd);
    s.inst.imm = imm;
    s.inst.pc = kLoopPc + 4 * uint32_t(node);
    s.pos = pos;
    s.op_latency = latency;
    return s;
}

enum class Shape
{
    Spatial,   ///< One instance, back-to-back iterations.
    Tiled,     ///< Two instances on disjoint row bands.
    Pipelined, ///< Overlapped iterations.
    Folded,    ///< Time-multiplexed: virtual rows fold onto physical.
};

/**
 * A 13-slot loop over a[] touching every device path: a vectorized
 * load pair, NoC transfers contending on one bus, local links, a
 * forward branch guarding a store on an unmapped PE (fallback bus), a
 * guarded accumulator forwarding its live-in, a guarded op forwarding
 * an in-iteration writer, dynamic and static store->load forwarding,
 * an FP op, a prefetch, and the closing backward branch.
 */
accel::AcceleratorConfig
goldenConfig(Shape shape)
{
    using riscv::Op;
    // Folded shapes place the middle of the graph on virtual rows
    // 16.. that fold back onto physical rows 0.. of the 16-row grid.
    const int fold = shape == Shape::Folded ? 16 : 0;
    accel::AcceleratorConfig c;
    c.region_start = kLoopPc;
    c.region_end = kLoopPc + 13 * 4;
    c.rows = 16 + fold;
    c.cols = 8;
    c.time_multiplex = shape == Shape::Folded ? 2 : 1;
    c.pipelined = shape == Shape::Pipelined;

    auto &s = c.slots;
    s.push_back(makeSlot(0, Op::Lw, 5, 0, {0, 0}));
    s[0].live_in1 = 10;
    s[0].vector_group = 0;
    s[0].vector_leader = true;
    s[0].prefetch = true;
    s[0].prefetch_stride = 64;
    s.push_back(makeSlot(1, Op::Lw, 6, 4, {0, 1}));
    s[1].live_in1 = 10;
    s[1].vector_group = 0;
    s.push_back(makeSlot(2, Op::Add, 7, 0, {5 + fold, 5}));
    s[2].src1 = 0;
    s[2].src2 = 1;
    s.push_back(makeSlot(3, Op::Andi, 8, 1, {5 + fold, 6}));
    s[3].src1 = 2;
    s.push_back(makeSlot(4, Op::Beq, 0, 12, {6 + fold, 6}));
    s[4].src1 = 3;
    s.push_back(makeSlot(5, Op::Sw, 0, int32_t(kOutOffset), {}));
    s[5].live_in1 = 10;
    s[5].src2 = 2;
    s[5].guards = {4};
    s.push_back(makeSlot(6, Op::Add, 12, 0, {1, 7}));
    s[6].live_in1 = 12;
    s[6].src2 = 2;
    s[6].guards = {4};
    s[6].prev_dest_live_in = 12;
    s.push_back(makeSlot(7, Op::Lw, 9, int32_t(kOutOffset), {2, 2}));
    s[7].live_in1 = 10;
    s.push_back(makeSlot(8, Op::Addi, 7, 3, {3 + fold, 3}));
    s[8].src1 = 7;
    s[8].guards = {4};
    s[8].prev_dest_writer = 2;
    s.push_back(makeSlot(9, Op::FaddS, 1, 0, {4, 4}, 4.0));
    s[9].live_in1 = 33;
    s[9].live_in2 = 34;
    s.push_back(makeSlot(10, Op::Lw, 15, int32_t(kOutOffset), {2, 3}));
    s[10].live_in1 = 10;
    s[10].forward_from_store = 5;
    s.push_back(makeSlot(11, Op::Addi, 10, 8, {0, 2}));
    s[11].live_in1 = 10;
    s.push_back(makeSlot(12, Op::Bltu, 0, -48, {7, 7}));
    s[12].src1 = 11;
    s[12].live_in2 = 11;

    c.live_ins = {10, 11, 12, 33, 34};
    c.live_outs = {{7, 8}, {9, 7}, {10, 11}, {12, 6}, {15, 10}, {33, 9}};
    c.inductions = {dfg::InductionReg{10, 11, 8}};
    if (shape == Shape::Tiled) {
        accel::TileInstance second;
        second.origin = {8, 0};
        second.reg_offsets = {{10, 8}};
        c.instances.push_back(second);
        c.imm_overrides = {{11, 16}};
    }
    c.crc = accel::configCrc(c);
    return c;
}

/** Defects on physical PEs the Spatial/Folded placements (and tile 0
 *  of Tiled) use: the andi's PE, the leader-load -> add link, one
 *  single-event upset, and a stuck closing branch from iteration 17. */
accel::FaultPlane
goldenFaults()
{
    accel::FaultPlane f;
    f.stuck_pes.push_back({{5, 6}, 0x1});
    f.dead_links.push_back({{0, 0}, {5, 5}, 0x100});
    f.transients.push_back({9, 3, 0x80000000u});
    f.stuck_branches.push_back({17});
    return f;
}

void
loadGoldenMemory(mem::MainMemory &memory)
{
    for (uint32_t i = 0; i < 2 * kTrips + 8; ++i)
        memory.write32(kArrayA + 4 * i, i * 0x9E3779B9u + (i % 3));
}

riscv::ArchState
goldenEntryState()
{
    riscv::ArchState s;
    s.x[10] = kArrayA;
    s.x[11] = kArrayA + 8 * kTrips;
    s.x[12] = 7;
    s.f[1] = 0x3F800000u; // 1.0f
    s.f[2] = 0x3F000000u; // 0.5f
    return s;
}

/** Every observable of one run, in a form that diffs field by field. */
struct GoldenOutcome
{
    uint64_t cycles, iterations, completed, pe_busy_cycles,
        fp_busy_cycles, disabled_ops, noc_transfers, local_transfers,
        loads, stores, store_load_forwards, load_invalidations,
        dram_accesses, pes_used, pes_total, watchdog_tripped,
        faults_fired;
    uint32_t latency_crc; ///< All measured node/edge latencies.
    uint32_t state_crc;   ///< Written-back registers and pc.
    uint32_t memory_crc;  ///< Every non-zero memory page.

    bool operator==(const GoldenOutcome &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const GoldenOutcome &o)
{
    os << std::dec << "{" << o.cycles << ", " << o.iterations << ", "
       << o.completed << ", " << o.pe_busy_cycles << ", "
       << o.fp_busy_cycles << ", " << o.disabled_ops << ", "
       << o.noc_transfers << ", " << o.local_transfers << ", " << o.loads
       << ", " << o.stores << ", " << o.store_load_forwards << ", "
       << o.load_invalidations << ", " << o.dram_accesses << ", "
       << o.pes_used << ", " << o.pes_total << ", " << o.watchdog_tripped
       << ", " << o.faults_fired << std::hex << ", 0x" << o.latency_crc
       << ", 0x" << o.state_crc << ", 0x" << o.memory_crc << std::dec
       << "}";
    return os;
}

GoldenOutcome
observe(const accel::Accelerator &device, const accel::AccelRunResult &r,
        const riscv::ArchState &state, const mem::MainMemory &memory)
{
    GoldenOutcome o{r.cycles,           r.iterations,
                    r.completed,        r.pe_busy_cycles,
                    r.fp_busy_cycles,   r.disabled_ops,
                    r.noc_transfers,    r.local_transfers,
                    r.loads,            r.stores,
                    r.store_load_forwards, r.load_invalidations,
                    r.dram_accesses,    r.pes_used,
                    r.pes_total,        r.watchdog_tripped,
                    r.faults_fired,     0, 0, 0};
    Crc32 lat;
    for (int id = 0; id < int(device.config().size()); ++id) {
        for (double v : {device.measuredNodeLatency(id),
                         device.measuredEdgeLatency(id, 0),
                         device.measuredEdgeLatency(id, 1)}) {
            lat.add64(std::bit_cast<uint64_t>(v));
        }
    }
    o.latency_crc = lat.value();
    Crc32 st;
    for (size_t reg = 0; reg < 32; ++reg) {
        st.add32(state.x[reg]);
        st.add32(state.f[reg]);
    }
    st.add32(state.pc);
    o.state_crc = st.value();
    const auto pages = memory.snapshot();
    std::map<uint32_t, const std::vector<uint8_t> *> sorted;
    for (const auto &[pn, bytes] : pages)
        if (std::any_of(bytes.begin(), bytes.end(),
                        [](uint8_t b) { return b != 0; }))
            sorted.emplace(pn, &bytes);
    Crc32 mc;
    for (const auto &[pn, bytes] : sorted) {
        mc.add32(pn);
        mc.addBytes(bytes->data(), bytes->size());
    }
    o.memory_crc = mc.value();
    return o;
}

/** When the fault plane reaches the device relative to configure(). */
enum class Install
{
    None,           ///< Never: the fault-free reference.
    BeforeConfig,   ///< injectFaults(), then configure().
    AfterConfig,    ///< configure(), then injectFaults().
    Cleared,        ///< Both, then clearFaults(): must equal None.
    Reconfigured,   ///< Faults plus another config, then this one.
};

GoldenOutcome
goldenRun(Shape shape, Install install,
          prof::AccelProfile *profile = nullptr)
{
    mem::MainMemory memory;
    loadGoldenMemory(memory);
    accel::Accelerator device(accel::AccelParams::m128(), memory);
    device.setProfile(profile);
    const accel::AcceleratorConfig config = goldenConfig(shape);
    switch (install) {
      case Install::None:
        device.configure(config);
        break;
      case Install::BeforeConfig:
        device.injectFaults(goldenFaults());
        device.configure(config);
        break;
      case Install::AfterConfig:
        device.configure(config);
        device.injectFaults(goldenFaults());
        break;
      case Install::Cleared:
        device.injectFaults(goldenFaults());
        device.configure(config);
        device.clearFaults();
        break;
      case Install::Reconfigured:
        // The plan built for one placement must not leak into the
        // next: faults resolved against the folded/tiled layout are
        // re-resolved for this one.
        device.injectFaults(goldenFaults());
        device.configure(goldenConfig(
            shape == Shape::Folded ? Shape::Tiled : Shape::Folded));
        device.configure(config);
        break;
    }
    riscv::ArchState state = goldenEntryState();
    const accel::AccelRunResult r =
        device.run(state, ~uint64_t(0), kCycleBudget);
    return observe(device, r, state, memory);
}

struct GoldenCase
{
    Shape shape;
    const char *name;
    GoldenOutcome clean;
    GoldenOutcome faulted;
};

// Recorded from the device loop before its configure-time plan; the
// plan must reproduce every number exactly.
const GoldenCase kGoldenCases[] = {
    {Shape::Spatial, "spatial",
     {1013, 24, 1, 432, 96, 48, 144, 56, 96, 8, 32, 8, 7, 13, 128, 0, 0, 0x45f96f72, 0xf1e55f95, 0xbc5970fd},
     {6014, 129, 0, 2553, 516, 27, 774, 378, 516, 120, 249, 120, 35, 13, 128, 1, 365, 0xf457d44e, 0xbcb935c, 0x8d433f3b}},
    {Shape::Tiled, "tiled",
     {701, 24, 1, 432, 96, 48, 144, 56, 96, 8, 32, 8, 7, 26, 128, 0, 0, 0x45f96f72, 0x54ba7f3, 0xbc5970fd},
     {6001, 188, 0, 3481, 752, 279, 1128, 471, 752, 95, 283, 95, 49, 26, 128, 1, 355, 0x6d9f3839, 0x8f53388a, 0x2c619942}},
    {Shape::Pipelined, "pipelined",
     {334, 24, 1, 432, 96, 48, 144, 56, 96, 8, 32, 8, 7, 13, 128, 0, 0, 0x5a1c14c2, 0xf1e55f95, 0xbc5970fd},
     {6000, 1500, 0, 29973, 6000, 27, 9000, 4491, 6000, 1491, 2991, 1491, 377, 13, 128, 1, 4478, 0x34c95c46, 0xd54872, 0x433b4caf}},
    {Shape::Folded, "folded",
     {1732, 24, 1, 432, 96, 48, 152, 48, 96, 8, 32, 8, 7, 13, 128, 0, 0, 0x3238ae96, 0xf1e55f95, 0xbc5970fd},
     {6004, 77, 0, 1513, 308, 27, 530, 154, 308, 68, 145, 68, 21, 13, 128, 1, 209, 0x58c26b56, 0x51e93b5b, 0x9f8696fe}},
};

TEST(DeviceLoopGolden, RunOutcomesMatchRecorded)
{
    for (const GoldenCase &gc : kGoldenCases) {
        SCOPED_TRACE(gc.name);
        EXPECT_EQ(goldenRun(gc.shape, Install::None), gc.clean);
        EXPECT_EQ(goldenRun(gc.shape, Install::BeforeConfig), gc.faulted);
    }
}

TEST(DeviceLoopGolden, FaultInstallOrderIsIrrelevant)
{
    for (const GoldenCase &gc : kGoldenCases) {
        SCOPED_TRACE(gc.name);
        EXPECT_EQ(goldenRun(gc.shape, Install::AfterConfig), gc.faulted);
        EXPECT_EQ(goldenRun(gc.shape, Install::Reconfigured), gc.faulted);
        EXPECT_EQ(goldenRun(gc.shape, Install::Cleared), gc.clean);
    }
}

TEST(DeviceLoopGolden, FaultPlanesReachEveryShape)
{
    // Guard against a vacuous pin: each shape's faults must fire and
    // the stuck branch must turn completion into a watchdog cut.
    for (const GoldenCase &gc : kGoldenCases) {
        SCOPED_TRACE(gc.name);
        EXPECT_TRUE(gc.clean.completed);
        EXPECT_EQ(gc.clean.faults_fired, 0u);
        EXPECT_GT(gc.faulted.faults_fired, 0u);
        EXPECT_TRUE(gc.faulted.watchdog_tripped);
        EXPECT_GT(gc.clean.noc_transfers, 0u);
        EXPECT_GT(gc.clean.local_transfers, 0u);
        EXPECT_GT(gc.clean.disabled_ops, 0u);
        EXPECT_GT(gc.clean.store_load_forwards, 0u);
        EXPECT_GT(gc.clean.fp_busy_cycles, 0u);
    }
}

TEST(DeviceLoopGolden, RefaultingReplacesThePlane)
{
    // A second injectFaults() replaces the first; a run after
    // clearFaults() on a device that already ran faulted is clean.
    mem::MainMemory memory;
    loadGoldenMemory(memory);
    accel::Accelerator device(accel::AccelParams::m128(), memory);
    device.configure(goldenConfig(Shape::Spatial));
    accel::FaultPlane other;
    other.stuck_pes.push_back({{7, 7}, 0xFF});
    device.injectFaults(other);
    device.injectFaults(goldenFaults());
    riscv::ArchState state = goldenEntryState();
    accel::AccelRunResult r = device.run(state, ~uint64_t(0), kCycleBudget);
    EXPECT_EQ(observe(device, r, state, memory), kGoldenCases[0].faulted);

    mem::MainMemory fresh;
    loadGoldenMemory(fresh);
    device.rebindMemory(fresh);
    device.clearFaults();
    device.configure(goldenConfig(Shape::Spatial));
    state = goldenEntryState();
    r = device.run(state, ~uint64_t(0), kCycleBudget);
    // The hierarchy stays warm from the faulted run, so only timing
    // may differ from the cold clean reference.
    const GoldenOutcome warm = observe(device, r, state, fresh);
    const GoldenOutcome &cold = kGoldenCases[0].clean;
    EXPECT_EQ(warm.iterations, cold.iterations);
    EXPECT_EQ(warm.completed, cold.completed);
    EXPECT_EQ(warm.disabled_ops, cold.disabled_ops);
    EXPECT_EQ(warm.faults_fired, 0u);
    EXPECT_EQ(warm.state_crc, cold.state_crc);
    EXPECT_EQ(warm.memory_crc, cold.memory_crc);
}

TEST(DeviceLoopGolden, ReadAheadSlotsSeeResetValues)
{
    // A slot that reads a producer placed after it sees the
    // iteration's reset values (0, available at iteration start), not
    // the producer's result from the previous iteration.
    using riscv::Op;
    accel::AcceleratorConfig c;
    c.region_start = kLoopPc;
    c.region_end = kLoopPc + 3 * 4;
    c.rows = 16;
    c.cols = 8;
    auto &s = c.slots;
    s.push_back(makeSlot(0, Op::Add, 5, 0, {0, 0}));
    s[0].src1 = 1;
    s[0].live_in2 = 12;
    s.push_back(makeSlot(1, Op::Addi, 10, 8, {0, 1}));
    s[1].live_in1 = 10;
    s.push_back(makeSlot(2, Op::Bltu, 0, -8, {0, 2}));
    s[2].src1 = 1;
    s[2].live_in2 = 11;
    c.live_ins = {10, 11, 12};
    c.live_outs = {{5, 0}, {10, 1}};
    c.crc = accel::configCrc(c);

    mem::MainMemory memory;
    accel::Accelerator device(accel::AccelParams::m128(), memory);
    device.configure(c);
    riscv::ArchState state = goldenEntryState();
    const accel::AccelRunResult r =
        device.run(state, ~uint64_t(0), kCycleBudget);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.iterations, uint64_t(kTrips));
    EXPECT_EQ(state.x[5], 7u);
    EXPECT_EQ(state.x[10], kArrayA + 8 * kTrips);
    // The forward edge is sampled with its producer "done" at the
    // iteration start: arrival = start + the one-hop latency.
    EXPECT_EQ(device.measuredEdgeLatency(0, 0),
              device.interconnect().latency({0, 1}, {0, 0}));
}

/** CRC over every counter an attached profile accumulates. */
uint32_t
profileCrc(const prof::AccelProfile &p)
{
    Crc32 c;
    c.add64(p.compute_cycles);
    c.add64(p.noc_stall_cycles);
    c.add64(p.mem_stall_cycles);
    for (const std::vector<uint64_t> *v :
         {&p.pe_busy, &p.pe_wait, &p.pe_ops, &p.pe_traffic}) {
        c.add64(v->size());
        for (uint64_t x : *v)
            c.add64(x);
    }
    c.add64(p.links.size());
    for (const auto &[bus, ls] : p.links) {
        c.add32(uint32_t(bus));
        c.add64(ls.transfers);
        c.add64(ls.wait_cycles);
    }
    c.add64(p.link_coords.size());
    for (const auto &[bus, rc] : p.link_coords) {
        c.add32(uint32_t(bus));
        c.add32(uint32_t(rc.first));
        c.add32(uint32_t(rc.second));
    }
    c.add64(p.fallback_transfers);
    c.add64(p.port_wait_cycles);
    return c.value();
}

/** A run split into max_iterations epochs, as the controller's
 *  profiling epochs drive it. */
struct EpochSplit
{
    uint32_t epochs;     ///< run() calls until completion (or the cap).
    uint32_t chain_crc;  ///< Every epoch's GoldenOutcome, in order.

    bool operator==(const EpochSplit &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const EpochSplit &e)
{
    return os << "{" << e.epochs << ", 0x" << std::hex << e.chain_crc
              << std::dec << "}";
}

constexpr uint64_t kEpochIterations = 5;
constexpr uint32_t kMaxEpochs = 8;

EpochSplit
epochSplitRun(Shape shape, bool faulted)
{
    mem::MainMemory memory;
    loadGoldenMemory(memory);
    accel::Accelerator device(accel::AccelParams::m128(), memory);
    if (faulted)
        device.injectFaults(goldenFaults());
    device.configure(goldenConfig(shape));
    riscv::ArchState state = goldenEntryState();
    // The latency counters persist across run() calls, so each
    // epoch's outcome (latency_crc included) pins what the counters
    // read after that epoch.
    Crc32 chain;
    EpochSplit split{0, 0};
    while (split.epochs < kMaxEpochs) {
        const accel::AccelRunResult r =
            device.run(state, kEpochIterations, kCycleBudget);
        ++split.epochs;
        const GoldenOutcome o = observe(device, r, state, memory);
        for (uint64_t v :
             {o.cycles, o.iterations, o.completed, o.pe_busy_cycles,
              o.fp_busy_cycles, o.disabled_ops, o.noc_transfers,
              o.local_transfers, o.loads, o.stores, o.store_load_forwards,
              o.load_invalidations, o.dram_accesses, o.pes_used,
              o.pes_total, o.watchdog_tripped, o.faults_fired}) {
            chain.add64(v);
        }
        chain.add32(o.latency_crc);
        chain.add32(o.state_crc);
        chain.add32(o.memory_crc);
        if (r.completed)
            break;
    }
    split.chain_crc = chain.value();
    return split;
}

struct ProfiledCase
{
    Shape shape;
    const char *name;
    uint32_t profile_clean;   ///< profileCrc after the clean run.
    uint32_t profile_faulted; ///< ... and after the faulted run.
    EpochSplit split_clean;
    EpochSplit split_faulted;
};

// Recorded from the device loop that sampled its latency counters on
// every slot execution and tested the profiler per edge.
const ProfiledCase kProfiledCases[] = {
    {Shape::Spatial, "spatial", 0xce26e213, 0xa6ef99f6,
     {5, 0xef5babf}, {5, 0xdd46a337}},
    {Shape::Tiled, "tiled", 0x2ee29f3e, 0xf30279f5,
     {4, 0x6ed2ca9e}, {4, 0xa9686d40}},
    {Shape::Pipelined, "pipelined", 0x32706561, 0x5ce34e15,
     {5, 0xd1c4bf90}, {5, 0x84891b0}},
    {Shape::Folded, "folded", 0xaf510c9b, 0x8f4d4c58,
     {5, 0xc0f2cd9a}, {5, 0xbca58371}},
};

TEST(DeviceLoopGolden, ProfiledRunsMatchUnprofiled)
{
    // Attaching a profile must not perturb the run, and what the
    // profile accumulates is pinned too.
    ASSERT_EQ(std::size(kProfiledCases), std::size(kGoldenCases));
    for (size_t k = 0; k < std::size(kProfiledCases); ++k) {
        const ProfiledCase &pc = kProfiledCases[k];
        const GoldenCase &gc = kGoldenCases[k];
        SCOPED_TRACE(pc.name);
        ASSERT_EQ(pc.shape, gc.shape);
        prof::AccelProfile clean, faulted;
        EXPECT_EQ(goldenRun(pc.shape, Install::None, &clean), gc.clean);
        EXPECT_EQ(goldenRun(pc.shape, Install::BeforeConfig, &faulted),
                  gc.faulted);
        EXPECT_EQ(profileCrc(clean), pc.profile_clean);
        EXPECT_EQ(profileCrc(faulted), pc.profile_faulted);
        // Not vacuous: every profiled path is exercised.
        EXPECT_GT(clean.compute_cycles, 0u);
        EXPECT_GT(clean.fallback_transfers, 0u);
        EXPECT_FALSE(clean.links.empty());
        EXPECT_EQ(clean.links.size(), clean.link_coords.size());
        EXPECT_EQ(clean.attributedTotal(), gc.clean.cycles);
        EXPECT_EQ(faulted.attributedTotal(), gc.faulted.cycles);
    }
}

TEST(DeviceLoopGolden, EpochSplitRunsMatchRecorded)
{
    // Counters folded at the end of each run() must add up across
    // runs exactly as per-execution sampling did.
    for (const ProfiledCase &pc : kProfiledCases) {
        SCOPED_TRACE(pc.name);
        EXPECT_EQ(epochSplitRun(pc.shape, false), pc.split_clean);
        EXPECT_EQ(epochSplitRun(pc.shape, true), pc.split_faulted);
    }
}

TEST(DeviceLoopGolden, TransientRefiresInEveryRunReachingItsIteration)
{
    // A TransientFault names an iteration index within one run(), so
    // every run that reaches that index fires it again: two profiling
    // epochs of the same offload each see the upset (an open
    // modelling question, see ROADMAP).
    mem::MainMemory memory;
    loadGoldenMemory(memory);
    accel::Accelerator device(accel::AccelParams::m128(), memory);
    accel::FaultPlane plane;
    plane.transients.push_back({9, 3, 0x80000000u});
    device.injectFaults(plane);
    device.configure(goldenConfig(Shape::Spatial));
    riscv::ArchState state = goldenEntryState();
    for (int epoch = 0; epoch < 2; ++epoch) {
        SCOPED_TRACE(epoch);
        const accel::AccelRunResult r =
            device.run(state, kEpochIterations, kCycleBudget);
        EXPECT_EQ(r.iterations, kEpochIterations);
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.faults_fired, 1u);
    }
    // A run that stops before the named iteration never sees it.
    const accel::AccelRunResult short_run =
        device.run(state, 3, kCycleBudget);
    EXPECT_EQ(short_run.faults_fired, 0u);
}

} // namespace
