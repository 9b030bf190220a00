/**
 * @file
 * Fault-tolerance tests: watchdog cycle budgets, checkpoint/rollback
 * byte-exactness, CRC config-integrity detection, region quarantine
 * backoff, faulty-PE mapping exclusion (including the folded
 * time-multiplex grid), end-to-end permanent-fault remap, scheduler
 * degraded-way steering, and campaign determinism / the zero-silent-
 * corruption guarantee of checked mode.
 */

#include <algorithm>
#include <bit>
#include <iomanip>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/checkpoint.hh"
#include "fault/injector.hh"
#include "fault/quarantine.hh"
#include "helpers.hh"
#include "sched/scheduler.hh"
#include "util/crc32.hh"
#include "util/stats_registry.hh"
#include "util/trace.hh"

using namespace mesa;
using namespace mesa::test;
using workloads::Kernel;
using workloads::kernelByName;

namespace
{

/** An emulator parked at the kernel's loop entry, plus its memory. */
struct ParkedRun
{
    mem::MainMemory memory;
    std::unique_ptr<core::MesaController> mesa;
    std::unique_ptr<riscv::Emulator> emu;
};

ParkedRun
park(const Kernel &kernel, const core::MesaParams &params,
     StatsRegistry *stats = nullptr)
{
    ParkedRun run;
    kernel.plant(run.memory);
    run.mesa =
        std::make_unique<core::MesaController>(params, run.memory);
    if (stats)
        run.mesa->attachStats(stats);
    run.emu = std::make_unique<riscv::Emulator>(run.memory);
    kernel.enterLoop(*run.emu);
    return run;
}

} // namespace

// ---------------------------------------------------------------------
// Satellite 1: watchdog cycle budget, independent of fault mode.

TEST(Watchdog, DeviceBudgetCutsCleanRunWithExactPrefix)
{
    // No fault injected: a tiny device budget cuts a legitimate long
    // run. The partial progress is a prefix of sequential order, so
    // resuming the CPU from the written-back state finishes
    // bit-exactly.
    const Kernel kernel = kernelByName("nn", {2048});
    const auto golden = runReference(kernel);

    core::MesaParams params;
    params.fault.enabled = false; // the device cap is always armed
    params.accel.watchdog_cycles = 500;

    auto run = park(kernel, params);
    auto os = run.mesa->offloadLoop(kernel.loopBody(),
                                    run.emu->state(), kernel.parallel);
    ASSERT_TRUE(os.has_value());
    EXPECT_TRUE(os->accel.watchdog_tripped);
    EXPECT_EQ(os->fallback, core::FallbackReason::Watchdog);

    run.emu->run(50'000'000);
    EXPECT_EQ(run.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(run.memory.snapshot(), golden.memory));
}

TEST(Watchdog, DeviceBudgetTerminatesInducedHangWithoutFaultMode)
{
    // With an induced control-line hang and no recovery machinery the
    // device cap's job is liveness: the offload must terminate and be
    // reported, not wedge the simulation.
    const Kernel kernel = kernelByName("nn", {128});
    core::MesaParams params;
    params.fault.enabled = false;
    params.accel.watchdog_cycles = 20'000;

    auto run = park(kernel, params);
    accel::FaultPlane plane;
    plane.stuck_branches.push_back({0});
    run.mesa->accelerator().injectFaults(plane);

    auto os = run.mesa->offloadLoop(kernel.loopBody(),
                                    run.emu->state(), kernel.parallel);
    ASSERT_TRUE(os.has_value());
    EXPECT_TRUE(os->accel.watchdog_tripped);
    EXPECT_EQ(os->fallback, core::FallbackReason::Watchdog);
}

TEST(Watchdog, FaultModeRollsBackAndReexecutesOnCpu)
{
    const Kernel kernel = kernelByName("hotspot", {128});
    const auto golden = runReference(kernel);

    core::MesaParams params;
    params.fault.enabled = true;
    params.fault.checked_mode = false;
    params.fault.watchdog_cycles = 20'000;

    StatsRegistry stats;
    auto run = park(kernel, params, &stats);
    accel::FaultPlane plane;
    plane.stuck_branches.push_back({4});
    run.mesa->accelerator().injectFaults(plane);

    auto os = run.mesa->offloadLoop(kernel.loopBody(),
                                    run.emu->state(), kernel.parallel);
    ASSERT_TRUE(os.has_value());
    EXPECT_EQ(os->fallback, core::FallbackReason::Watchdog);
    EXPECT_GE(stats.value("mesa.fault.watchdog_trips"), 1.0);
    EXPECT_GE(stats.value("mesa.fault.rollbacks"), 1.0);
    EXPECT_GT(os->cpu_reexec_instructions, 0u);

    run.emu->run(50'000'000);
    EXPECT_EQ(run.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(run.memory.snapshot(), golden.memory));
}

// ---------------------------------------------------------------------
// Certificate gating: the mesa.absint.* counters agree with the
// per-offload fields they summarise.

TEST(CertificateGating, CountersMatchOffloadFields)
{
    struct Case
    {
        const char *kernel;
        bool hang; ///< Stick the loop's closing branch.
    };
    const Case cases[] = {
        {"nn", false},   {"hotspot", false}, {"pathfinder", false},
        {"srad", false}, {"nn", true},       {"hotspot", true},
    };

    uint64_t certified = 0, skips = 0, tightened = 0, trips = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.kernel) + (c.hang ? " hang" : ""));
        const Kernel kernel = kernelByName(c.kernel, {256});
        core::MesaParams params;
        params.fault.enabled = true;
        params.fault.checked_mode = true;
        params.fault.certificate_gating = true;
        // Between the proofs' budgets, so the proof wins for some
        // kernels and the configured budget for others.
        params.fault.watchdog_cycles = 3'200'000;

        StatsRegistry stats;
        auto run = park(kernel, params, &stats);
        if (c.hang) {
            accel::FaultPlane plane;
            plane.stuck_branches.push_back({0});
            run.mesa->accelerator().injectFaults(plane);
        }
        auto os = run.mesa->offloadLoop(
            kernel.loopBody(), run.emu->state(), kernel.parallel);
        ASSERT_TRUE(os.has_value());

        // The proof's budget wins unless the configured one is
        // strictly smaller.
        const bool won = os->cert_watchdog_budget > 0 &&
                         os->cert_watchdog_budget <=
                             params.fault.watchdog_cycles;
        EXPECT_EQ(stats.value("mesa.absint.certified"),
                  os->certified ? 1.0 : 0.0);
        EXPECT_EQ(stats.value("mesa.absint.snapshot_skips"),
                  os->snapshot_skipped ? 1.0 : 0.0);
        EXPECT_EQ(stats.value("mesa.absint.budget_tightened"),
                  won ? 1.0 : 0.0);
        EXPECT_EQ(stats.value("mesa.absint.trip_watchdogs"),
                  os->trip_watchdog ? 1.0 : 0.0);
        certified += os->certified;
        skips += os->snapshot_skipped;
        tightened += won;
        trips += os->trip_watchdog;
    }
    // Every counter is exercised by at least one case, and the budget
    // comparison goes both ways.
    EXPECT_GT(certified, 0u);
    EXPECT_GT(skips, 0u);
    EXPECT_GT(tightened, 0u);
    EXPECT_LT(tightened, std::size(cases));
    EXPECT_GT(trips, 0u);
}

// ---------------------------------------------------------------------
// Satellite 4: checkpoint capture / corrupt / restore byte-exactness.

TEST(Checkpoint, RestoreUndoesRegisterAndMemoryCorruption)
{
    const Kernel kernel = kernelByName("srad", {256});
    const auto golden = runReference(kernel);

    mem::MainMemory memory;
    kernel.plant(memory);
    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);

    const auto ckpt = fault::Checkpoint::capture(emu.state(), memory);

    // Corrupt mid-offload state: run part of the loop, then scribble
    // over registers and memory (touching a page the checkpoint never
    // saw, which restore must drop again).
    for (int i = 0; i < 500 && !emu.halted(); ++i)
        emu.step();
    emu.state().x[5] ^= 0xdeadbeef;
    emu.state().f[3] ^= 0x3f800000;
    emu.state().pc = 0x4;
    memory.write32(0x2000, 0x12345678);
    memory.write32(0x7f000000, 0xabcdef01);

    ckpt.restore(emu.state(), memory);
    EXPECT_EQ(emu.state(), ckpt.state);
    EXPECT_TRUE(fault::memorySnapshotsEqual(memory.snapshot(),
                                            ckpt.pages));

    // Re-executing from the restored checkpoint ends bit-exact with a
    // run that never checkpointed at all.
    emu.run(50'000'000);
    EXPECT_EQ(emu.state(), golden.state);
    EXPECT_TRUE(sameMemory(memory.snapshot(), golden.memory));
}

TEST(Checkpoint, SnapshotComparisonNormalizesZeroPages)
{
    fault::MemSnapshot a, b;
    a[4] = std::vector<uint8_t>(4096, 0); // zero page vs absent page
    b[9] = std::vector<uint8_t>(4096, 0);
    EXPECT_TRUE(fault::memorySnapshotsEqual(a, b));
    b[9][17] = 1;
    EXPECT_FALSE(fault::memorySnapshotsEqual(a, b));
}

// ---------------------------------------------------------------------
// CRC config-integrity gate.

TEST(Crc, DetectsEveryConfigCorruptionAcrossSeeds)
{
    const Kernel kernel = kernelByName("nn", {128});
    const auto golden = runReference(kernel);

    for (uint64_t seed = 1; seed <= 25; ++seed) {
        core::MesaParams params;
        params.fault.enabled = true;
        params.fault.checked_mode = false;

        StatsRegistry stats;
        auto run = park(kernel, params, &stats);
        SplitMix64 rng(seed);
        run.mesa->setConfigCorruptor(
            [&rng](accel::AcceleratorConfig &cfg) {
                fault::corruptConfig(cfg, rng);
            });

        auto os = run.mesa->offloadLoop(
            kernel.loopBody(), run.emu->state(), kernel.parallel);
        ASSERT_TRUE(os.has_value()) << "seed " << seed;
        EXPECT_GE(stats.value("mesa.fault.crc_failures"), 1.0)
            << "seed " << seed << ": corruption not caught by CRC";

        run.emu->run(50'000'000);
        EXPECT_EQ(run.emu->state(), golden.state) << "seed " << seed;
        EXPECT_TRUE(sameMemory(run.memory.snapshot(), golden.memory))
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Region quarantine: exponential backoff with success decay.

TEST(Quarantine, BackoffDoublesAndDecaysAfterSuccesses)
{
    fault::RegionQuarantine q;
    EXPECT_TRUE(q.shouldOffload(0x100));

    q.onFault(0x100); // strikes 1 -> skip 1
    EXPECT_EQ(q.strikes(0x100), 1);
    EXPECT_EQ(q.quarantinedCount(), 1u);
    EXPECT_FALSE(q.shouldOffload(0x100));
    EXPECT_TRUE(q.shouldOffload(0x100));

    q.onFault(0x100); // strikes 2 -> skip 2
    q.onFault(0x100); // strikes 3 -> skip 4
    EXPECT_EQ(q.strikes(0x100), 3);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(q.shouldOffload(0x100)) << "credit " << i;
    EXPECT_TRUE(q.shouldOffload(0x100));

    // Two consecutive clean offloads shed one strike; a lone success
    // between faults does not.
    q.onSuccess(0x100);
    q.onSuccess(0x100);
    EXPECT_EQ(q.strikes(0x100), 2);
    q.onSuccess(0x100);
    EXPECT_EQ(q.strikes(0x100), 2);
    q.onSuccess(0x100);
    EXPECT_EQ(q.strikes(0x100), 1);
    q.onSuccess(0x100);
    q.onSuccess(0x100);
    EXPECT_EQ(q.strikes(0x100), 0); // fully rehabilitated

    // Other regions are independent; clear() drops an entry.
    q.onFault(0x200);
    EXPECT_TRUE(q.shouldOffload(0x300));
    q.clear(0x200);
    EXPECT_TRUE(q.shouldOffload(0x200));
}

TEST(Quarantine, KnobsBoundStrikesAndForgiveness)
{
    // max_strikes caps the backoff exponent; forgive_successes sets
    // how many consecutive clean offloads shed one strike.
    fault::QuarantineParams qp;
    qp.max_strikes = 2;
    qp.forgive_successes = 1;
    fault::RegionQuarantine q(qp);

    q.onFault(0x100);
    q.onFault(0x100);
    q.onFault(0x100); // capped: strikes stay at max_strikes
    EXPECT_EQ(q.strikes(0x100), 2);

    // Drain the pending skip sentence, then every single clean
    // offload forgives one strike (forgive_successes == 1).
    while (!q.shouldOffload(0x100)) {
    }
    q.onSuccess(0x100);
    EXPECT_EQ(q.strikes(0x100), 1);
    EXPECT_TRUE(q.onSuccess(0x100)); // fully rehabilitated
    EXPECT_EQ(q.strikes(0x100), 0);
}

TEST(Quarantine, ControllerExportsLiveFabricHealthGauges)
{
    const Kernel kernel = kernelByName("hotspot", {128});
    core::MesaParams params;
    params.fault.enabled = true;
    params.fault.checked_mode = false;
    params.fault.watchdog_cycles = 20'000;

    StatsRegistry stats;
    auto run = park(kernel, params, &stats);
    EXPECT_EQ(stats.value("mesa.fault.quarantined_regions"), 0.0);
    EXPECT_EQ(stats.value("mesa.fault.retired_pes"), 0.0);

    accel::FaultPlane plane;
    plane.stuck_branches.push_back({4});
    run.mesa->accelerator().injectFaults(plane);
    auto os = run.mesa->offloadLoop(kernel.loopBody(),
                                    run.emu->state(), kernel.parallel);
    ASSERT_TRUE(os.has_value());

    // The hang struck the region: the quarantine gauge went live.
    EXPECT_GE(stats.value("mesa.fault.quarantined_regions"), 1.0);
    EXPECT_EQ(double(run.mesa->quarantine().quarantinedCount()),
              stats.value("mesa.fault.quarantined_regions"));
}

TEST(Quarantine, FaultyPeMapDeduplicates)
{
    fault::FaultyPeMap map;
    EXPECT_TRUE(map.empty());
    EXPECT_TRUE(map.add({2, 3}));
    EXPECT_FALSE(map.add({2, 3}));
    EXPECT_TRUE(map.add({2, 4}));
    EXPECT_EQ(map.size(), 2u);
    EXPECT_TRUE(map.faulty({2, 3}));
    EXPECT_FALSE(map.faulty({3, 2}));
}

// ---------------------------------------------------------------------
// Mapper integration: blocked PEs never receive a node.

TEST(MapperBlocking, BlockedPesAreAvoided)
{
    const auto accel = accel::AccelParams::m128();
    ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
    core::InstructionMapper mapper(accel, ic);

    const Kernel kernel = kernelByName("nn", {128});
    auto g = dfg::Ldfg::build(kernel.loopBody(), {}, 0, nullptr);
    ASSERT_TRUE(g.has_value());

    const auto before = mapper.map(*g);
    ASSERT_TRUE(before.fullyMapped());
    const ic::Coord victim = before.sdfg.coordOf(dfg::NodeId(0));
    ASSERT_TRUE(victim.valid());

    mapper.setBlockedPes({victim});
    const auto after = mapper.map(*g);
    EXPECT_TRUE(after.fullyMapped());
    for (size_t i = 0; i < g->size(); ++i)
        EXPECT_FALSE(after.sdfg.coordOf(dfg::NodeId(i)) == victim)
            << "node " << i << " placed on the blocked PE";
}

TEST(MapperBlocking, FoldedVirtualRowsBlockEveryAlias)
{
    // On a time-multiplexed virtual grid (2x the physical rows), a
    // blocked physical PE must exclude every virtual row that folds
    // onto it.
    auto accel = accel::AccelParams::m128();
    const int phys_rows = accel.rows;
    accel.rows *= 2; // virtual grid
    ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
    core::InstructionMapper mapper(accel, ic);

    const Kernel kernel = kernelByName("hotspot", {128});
    auto g = dfg::Ldfg::build(kernel.loopBody(), {}, 0, nullptr);
    ASSERT_TRUE(g.has_value());

    const auto before = mapper.map(*g);
    ASSERT_TRUE(before.fullyMapped());
    const ic::Coord v = before.sdfg.coordOf(dfg::NodeId(0));
    const ic::Coord phys{v.r % phys_rows, v.c};

    mapper.setBlockedPes({phys}, phys_rows);
    const auto after = mapper.map(*g);
    EXPECT_TRUE(after.fullyMapped());
    for (size_t i = 0; i < g->size(); ++i) {
        const ic::Coord pos = after.sdfg.coordOf(dfg::NodeId(i));
        if (!pos.valid())
            continue;
        EXPECT_FALSE(pos.r % phys_rows == phys.r && pos.c == phys.c)
            << "node " << i << " aliases the blocked physical PE";
    }
}

// ---------------------------------------------------------------------
// End to end: a permanent fault is detected, the PE is quarantined by
// the self test, and the next offload maps around it.

TEST(PermanentFault, SelfTestQuarantinesAndRemapsAwayFromStuckPe)
{
    const Kernel kernel = kernelByName("hotspot", {128});
    const auto golden = runReference(kernel);

    // Learn a live placement from a clean run: the PE writing the
    // first live-out is guaranteed to matter.
    core::MesaParams clean_params;
    clean_params.enable_tiling = false;
    auto probe = park(kernel, clean_params);
    auto probe_os = probe.mesa->offloadLoop(
        kernel.loopBody(), probe.emu->state(), kernel.parallel);
    ASSERT_TRUE(probe_os.has_value());
    const auto &probe_cfg = probe.mesa->accelerator().config();
    ASSERT_FALSE(probe_cfg.live_outs.empty());
    const auto writer = probe_cfg.live_outs.begin()->second;
    const ic::Coord victim = probe_cfg.slots[size_t(writer)].pos;
    ASSERT_TRUE(victim.valid());

    core::MesaParams params;
    params.enable_tiling = false;
    params.fault.enabled = true;
    params.fault.checked_mode = true;
    params.fault.watchdog_cycles = 100'000;

    StatsRegistry stats;
    auto run = park(kernel, params, &stats);
    accel::FaultPlane plane;
    plane.stuck_pes.push_back({victim, 0x1});
    run.mesa->accelerator().injectFaults(plane);

    auto os = run.mesa->offloadLoop(kernel.loopBody(),
                                    run.emu->state(), kernel.parallel);
    ASSERT_TRUE(os.has_value());
    const double detections =
        stats.value("mesa.fault.mismatches") +
        stats.value("mesa.fault.watchdog_trips") +
        stats.value("mesa.fault.crc_failures");
    EXPECT_GE(detections, 1.0);

    // The recovery path leaves the architectural state golden.
    run.emu->run(50'000'000);
    EXPECT_EQ(run.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(run.memory.snapshot(), golden.memory));

    // The self test identified the defective PE...
    ASSERT_FALSE(run.mesa->faultyPes().empty());
    EXPECT_TRUE(run.mesa->faultyPes().faulty(victim));
    EXPECT_GE(stats.value("mesa.fault.quarantined_pes"), 1.0);

    // ...and a fresh encounter of the region maps around it and runs
    // cleanly on the degraded array.
    kernel.plant(run.memory);
    riscv::Emulator emu2(run.memory);
    kernel.enterLoop(emu2);
    auto os2 = run.mesa->offloadLoop(kernel.loopBody(), emu2.state(),
                                     kernel.parallel);
    ASSERT_TRUE(os2.has_value());
    EXPECT_GT(os2->accel_iterations, 0u);
    EXPECT_EQ(os2->fallback, core::FallbackReason::None);
    for (const auto &slot : run.mesa->accelerator().config().slots)
        EXPECT_FALSE(slot.pos == victim)
            << "remap placed a node on the quarantined PE";

    emu2.run(50'000'000);
    EXPECT_EQ(emu2.state(), golden.state);
    EXPECT_TRUE(sameMemory(run.memory.snapshot(), golden.memory));
}

// ---------------------------------------------------------------------
// Scheduler: degraded ways take no slices; tenants steer around them.

TEST(SchedulerFault, QuarantinedPartitionTakesNoSlices)
{
    const Kernel kernel = kernelByName("nn", {512});
    mem::MainMemory memory;
    kernel.plant(memory);

    sched::SchedParams sp;
    sp.mesa.accel = accel::AccelParams::m128();
    sp.spatial_ways = 2;
    sp.mesa.enable_tiling = false;
    sched::MultiTenantScheduler sched(sp, memory);
    ASSERT_EQ(sched.ways(), 2);

    const int bad_row = sched.partitions()[0].origin_row;
    sched.quarantinePes({{bad_row, 0}});
    EXPECT_EQ(sched.healthyWays(), 1);

    std::vector<std::unique_ptr<riscv::Emulator>> emus;
    for (const auto &chunk : kernel.chunks(2)) {
        auto emu = std::make_unique<riscv::Emulator>(memory);
        kernel.enterLoop(*emu, chunk);
        ASSERT_GE(sched.submit(kernel.loopBody(), emu->state(),
                               kernel.parallel),
                  0);
        emus.push_back(std::move(emu));
    }

    const auto result = sched.runAll();
    EXPECT_EQ(result.degraded_ways, 1u);
    for (const auto &slice : result.timeline)
        EXPECT_NE(slice.partition, 0)
            << "slice scheduled on the degraded way";
    for (const auto &t : result.tenants)
        EXPECT_TRUE(t.completed) << "tenant " << t.tenant;
}

TEST(SchedulerFault, AllWaysDegradedRefusesSubmission)
{
    const Kernel kernel = kernelByName("nn", {128});
    mem::MainMemory memory;
    kernel.plant(memory);

    sched::SchedParams sp;
    sp.mesa.accel = accel::AccelParams::m128();
    sp.spatial_ways = 2;
    sched::MultiTenantScheduler sched(sp, memory);

    std::vector<ic::Coord> everywhere;
    for (const auto &part : sched.partitions())
        everywhere.push_back({part.origin_row, 0});
    sched.quarantinePes(everywhere);
    EXPECT_EQ(sched.healthyWays(), 0);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);
    EXPECT_EQ(sched.submit(kernel.loopBody(), emu.state(),
                           kernel.parallel),
              -1);
}

// ---------------------------------------------------------------------
// Satellite 3: campaigns are a pure function of the seed.

TEST(Campaign, SameSeedProducesIdenticalStatsSnapshots)
{
    fault::CampaignParams params;
    params.seed = 42;
    params.injections_per_kernel = 10;
    params.kernels = {"nn", "hotspot"};

    const auto a = fault::runCampaign(params);
    const auto b = fault::runCampaign(params);
    EXPECT_GT(a.totalInjections(), 0);
    EXPECT_EQ(a.statsSnapshot(), b.statsSnapshot());
}

// The headline guarantee: checked mode has zero silent corruptions.
TEST(Campaign, CheckedModeHasNoSilentCorruption)
{
    fault::CampaignParams params;
    params.seed = 7;
    params.injections_per_kernel = 15;
    params.kernels = {"nn", "srad", "hotspot"};

    const auto result = fault::runCampaign(params);
    EXPECT_EQ(result.totalInjections(), 45);
    EXPECT_GT(result.totalDetected(), 0);
    EXPECT_EQ(result.totalSilent(), 0);
    EXPECT_EQ(result.totalCorrupted(), 0);
    EXPECT_EQ(result.totalRemapChecks(), result.totalRemapClean());
    EXPECT_TRUE(result.clean());
}

// ---------------------------------------------------------------------
// Guard exits, pinned byte for byte: one offload through each way out
// of the guarded dispatch (clean, checked match and mismatch, CRC
// rebuild, watchdog rollback, relocation that fails or succeeds,
// certificate snapshot skip and trip watchdog, quarantine, the
// device watchdog without fault mode, and a hang that only the cycle
// watchdog can cut). Each row holds the offload's guard fields, every
// guard counter, the trace the offload recorded and CRCs of the state
// and memory it left behind. The rows were recorded from the
// single-function guard that the steps replace; the four hung suite
// kernel rows were re-recorded when the proven trip count came to cap
// every fault-mode offload, which detects their hangs after 256
// iterations instead of at the 20k-cycle budget. The two relocation
// rows were re-recorded again when each offload came to end in one
// verdict: a completed retry reports no fallback, and a retry that
// hangs again strikes and self-tests the region once, not twice.

namespace
{

struct GuardRow
{
    int fallback;
    bool watchdog_tripped, completed, trip_watchdog, certified,
        snapshot_skipped;
    uint64_t cert_watchdog_budget, cpu_reexec_instructions,
        accel_iterations, accel_cycles, encode_cycles, mapping_cycles,
        config_cycles, reconfig_cycles;
    int reconfigurations, tile_factor;
    double model_latency;
    /** Non-zero mesa.{fault,absint,migrate,fallback}.* values, in
     *  path order, and how many such paths the registry holds. */
    std::string counters;
    size_t counter_paths;
    /** Instants on the mesa.fault and mesa.absint tracks, in order. */
    std::string instants;
    uint32_t trace_crc;  ///< Every event the offload recorded.
    uint32_t state_crc;  ///< Registers and pc after the offload.
    uint32_t memory_crc; ///< Every non-zero page after the offload.

    bool operator==(const GuardRow &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const GuardRow &r)
{
    return os << std::boolalpha << std::setprecision(17) << "{"
              << r.fallback << ", " << r.watchdog_tripped << ", "
              << r.completed << ", " << r.trip_watchdog << ", "
              << r.certified << ", " << r.snapshot_skipped << ", "
              << r.cert_watchdog_budget << ", "
              << r.cpu_reexec_instructions << ", " << r.accel_iterations
              << ", " << r.accel_cycles << ", " << r.encode_cycles
              << ", " << r.mapping_cycles << ", " << r.config_cycles
              << ", " << r.reconfig_cycles << ", " << r.reconfigurations
              << ", " << r.tile_factor << ", " << r.model_latency
              << ",\n \"" << r.counters << "\",\n " << r.counter_paths
              << ", \"" << r.instants << "\",\n " << std::hex << "0x"
              << r.trace_crc << ", 0x" << r.state_crc << ", 0x"
              << r.memory_crc << std::dec << "}";
}

uint32_t
stateCrc(const riscv::ArchState &state)
{
    Crc32 c;
    for (size_t reg = 0; reg < 32; ++reg) {
        c.add32(state.x[reg]);
        c.add32(state.f[reg]);
    }
    c.add32(state.pc);
    return c.value();
}

uint32_t
memoryCrc(const mem::MainMemory &memory)
{
    std::map<uint32_t, const std::vector<uint8_t> *> pages;
    const auto snap = memory.snapshot();
    for (const auto &[pn, bytes] : snap)
        if (std::ranges::any_of(bytes, [](uint8_t b) { return b != 0; }))
            pages.emplace(pn, &bytes);
    Crc32 c;
    for (const auto &[pn, bytes] : pages) {
        c.add32(pn);
        c.addBytes(bytes->data(), bytes->size());
    }
    return c.value();
}

uint32_t
traceCrc(const Tracer &tracer)
{
    Crc32 c;
    auto addString = [&c](const std::string &s) {
        c.add64(s.size());
        c.addBytes(s.data(), s.size());
    };
    for (const TraceEvent &ev : tracer.events()) {
        addString(tracer.tracks()[ev.track]);
        addString(ev.name);
        c.add32(ev.instant ? 1 : 0);
        c.add64(ev.start);
        c.add64(ev.duration);
        for (const TraceArg &a : ev.args) {
            addString(a.key);
            addString(a.str);
            c.add64(std::bit_cast<uint64_t>(a.num));
        }
    }
    return c.value();
}

GuardRow
guardRow(const core::OffloadStats &os, const StatsRegistry &stats,
         const riscv::ArchState &state, const mem::MainMemory &memory)
{
    std::ostringstream counters;
    size_t paths = 0;
    for (const auto &[path, value] : stats.flatValues()) {
        const bool guard = path.starts_with("mesa.fault.") ||
                           path.starts_with("mesa.absint.") ||
                           path.starts_with("mesa.migrate.") ||
                           path.starts_with("mesa.fallback.");
        if (!guard)
            continue;
        ++paths;
        if (value != 0.0)
            counters << (counters.tellp() > 0 ? " " : "")
                     << path.substr(5) << "=" << value;
    }
    const Tracer &tracer = Tracer::global();
    std::string instants;
    for (const TraceEvent &ev : tracer.events()) {
        const std::string &track = tracer.tracks()[ev.track];
        if (ev.instant && (track == "mesa.fault" || track == "mesa.absint"))
            instants += (instants.empty() ? "" : " ") + ev.name;
    }
    return {int(os.fallback),
            os.accel.watchdog_tripped,
            os.accel.completed,
            os.trip_watchdog,
            os.certified,
            os.snapshot_skipped,
            os.cert_watchdog_budget,
            os.cpu_reexec_instructions,
            os.accel_iterations,
            os.accel_cycles,
            os.encode_cycles,
            os.mapping_cycles,
            os.config_cycles,
            os.reconfig_cycles,
            os.reconfigurations,
            os.tile_factor,
            os.model_latency,
            counters.str(),
            paths,
            instants,
            traceCrc(tracer),
            stateCrc(state),
            memoryCrc(memory)};
}

enum class Exit
{
    CleanUnchecked,
    CheckedMatch,
    CheckedMismatch,
    CrcRebuild,
    WatchdogToCpu,
    RelocateFails,
    RelocateSucceeds,
    CertifiedSkip,
    TripWatchdog,
    Quarantined,
    DeviceWatchdog,
    UnprovenHang,
};

struct GuardCase
{
    const char *name;
    Exit exit;
    GuardRow row;
};

/** Fault mode on, unchecked, with a short watchdog. */
core::MesaParams
guardParams()
{
    core::MesaParams p;
    p.fault.enabled = true;
    p.fault.checked_mode = false;
    p.fault.watchdog_cycles = 20'000;
    return p;
}

/**
 * A copy loop that re-loads its bound from memory every iteration.
 * The certifier cannot prove its trip count (AI104), so in fault mode
 * no iteration cap binds and only the cycle watchdog cuts a hang.
 */
Kernel
boundInMemoryKernel(uint64_t n)
{
    using namespace riscv::reg;
    constexpr uint32_t Src = 0x00100000;
    constexpr uint32_t Dst = 0x00200000;
    constexpr uint32_t Bound = 0x00300000;
    Kernel k;
    k.name = "bound-in-memory";
    k.iterations = n;
    riscv::Assembler as(0x1000);
    k.loop_start = as.here();
    as.label("loop");
    as.lw(t0, 0, a0);
    // Read t1 before reloading it: the bound is then a live-in, which
    // the accelerator's entry check needs to see the loop continue.
    as.add(t0, t0, t1);
    as.sw(t0, 0, a1);
    as.lw(t1, 0, a2); // reload the bound from memory
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.blt(a0, t1, "loop");
    as.label("exit");
    as.ecall();
    k.program = as.assemble();
    k.loop_end = k.program.labelPc("exit");
    k.init_data = [n](mem::MainMemory &m) {
        for (uint64_t i = 0; i < n; ++i)
            m.write32(Src + uint32_t(4 * i), uint32_t(7 * i + 1));
        m.write32(Dst + uint32_t(4 * n), 0); // output pages resident
        m.write32(Bound, Src + uint32_t(4 * n));
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = Src + uint32_t(4 * b);
        st.x[a1] = Dst + uint32_t(4 * b);
        st.x[a2] = Bound;
        st.x[t1] = Src + uint32_t(4 * e); // the preheader's bound load
    };
    return k;
}

void
stickBranch(core::MesaController &mesa, uint64_t from_iteration)
{
    accel::FaultPlane plane;
    plane.stuck_branches.push_back({from_iteration});
    mesa.accelerator().injectFaults(plane);
}

/**
 * Drive one offload out of the guard through @p exit, with a fresh
 * tracer, and observe it. Also check that the CPU, resuming from the
 * state the offload left, finishes the kernel exactly as the
 * reference does.
 */
GuardRow
runGuardExit(Exit exit)
{
    const char *name =
        exit == Exit::WatchdogToCpu || exit == Exit::RelocateFails ||
                exit == Exit::TripWatchdog || exit == Exit::Quarantined
            ? "hotspot"
            : "nn";
    const Kernel kernel =
        exit == Exit::UnprovenHang
            ? boundInMemoryKernel(256)
            : kernelByName(name,
                           {exit == Exit::DeviceWatchdog ? 2048u : 256u});
    core::MesaParams params = guardParams();
    switch (exit) {
      case Exit::CleanUnchecked:
      case Exit::CrcRebuild:
      case Exit::WatchdogToCpu:
      case Exit::Quarantined:
      case Exit::UnprovenHang:
        break;
      case Exit::CheckedMatch:
      case Exit::CheckedMismatch:
        params.fault.checked_mode = true;
        break;
      case Exit::RelocateFails:
        params.fault.migrate_on_fault = true;
        break;
      case Exit::RelocateSucceeds:
        // One placement, so the stuck PE keeps hosting the induction
        // update until the self test retires it.
        params.fault.migrate_on_fault = true;
        params.enable_tiling = false;
        params.iterative_optimization = false;
        break;
      case Exit::CertifiedSkip:
      case Exit::TripWatchdog:
        params.fault.checked_mode = true;
        params.fault.certificate_gating = true;
        params.fault.watchdog_cycles = 3'200'000;
        break;
      case Exit::DeviceWatchdog:
        params.fault.enabled = false;
        params.accel.watchdog_cycles = 500;
        break;
    }

    ic::Coord induction_pe;
    if (exit == Exit::RelocateSucceeds) {
        // The PE that advances a0 (slot 9: addi a0, a0, 4) on the
        // placement the guarded run will use.
        core::MesaParams probe_params = params;
        probe_params.fault = {};
        auto probe = park(kernel, probe_params);
        EXPECT_TRUE(probe.mesa->offloadLoop(kernel.loopBody(),
                                            probe.emu->state(),
                                            kernel.parallel));
        induction_pe = probe.mesa->accelerator().config().slots[9].pos;
    }

    StatsRegistry stats;
    auto run = park(kernel, params, &stats);
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.enable();
    switch (exit) {
      case Exit::CheckedMismatch: {
        // Flip the low bit of the fsqrt result on iteration 3 of
        // every epoch: dist[] diverges, the registers do not.
        accel::FaultPlane plane;
        plane.transients.push_back({7, 3, 0x1});
        run.mesa->accelerator().injectFaults(plane);
        break;
      }
      case Exit::CrcRebuild:
        run.mesa->setConfigCorruptor([](accel::AcceleratorConfig &cfg) {
            SplitMix64 rng(1);
            fault::corruptConfig(cfg, rng);
        });
        break;
      case Exit::WatchdogToCpu:
      case Exit::RelocateFails:
      case Exit::TripWatchdog:
      case Exit::UnprovenHang:
        stickBranch(*run.mesa, 4);
        break;
      case Exit::RelocateSucceeds: {
        // Cancel the +4 step: a0 never reaches the bound, the run
        // hangs, and the self test localizes the PE.
        accel::FaultPlane plane;
        plane.stuck_pes.push_back({induction_pe, 0x4});
        run.mesa->accelerator().injectFaults(plane);
        break;
      }
      case Exit::Quarantined: {
        // A first hang strikes the region; the second encounter, from
        // a fresh entry state, serves the backoff sentence.
        stickBranch(*run.mesa, 4);
        const riscv::ArchState entry = run.emu->state();
        run.mesa->offloadLoop(kernel.loopBody(), run.emu->state(),
                              kernel.parallel);
        run.emu->state() = entry;
        break;
      }
      default:
        break;
    }

    auto os = run.mesa->offloadLoop(kernel.loopBody(), run.emu->state(),
                                    kernel.parallel);
    tracer.enable(false);
    EXPECT_TRUE(os.has_value());
    const GuardRow row = os ? guardRow(*os, stats, run.emu->state(),
                                       run.memory)
                            : GuardRow{};
    tracer.clear();

    const auto golden = runReference(kernel);
    run.emu->run(50'000'000);
    EXPECT_EQ(run.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(run.memory.snapshot(), golden.memory));
    return row;
}

const GuardCase kGuardCases[] = {
    {"clean-unchecked", Exit::CleanUnchecked,
     {0, false, true, false, false, false, 0, 0, 256, 568, 13, 108, 85, 93, 1,
      4, 36, "", 15, "", 0xb61a854f, 0x7e650fdf, 0x41fddc7f}},
    {"checked-match", Exit::CheckedMatch,
     {0, false, true, false, false, false, 0, 3328, 256, 568, 13, 108, 85, 93,
      1, 4, 36,
      "fault.checked_runs=1 fault.cpu_reexec_instructions=3328",
      15, "", 0xb61a854f, 0x7e650fdf, 0x41fddc7f}},
    {"checked-mismatch", Exit::CheckedMismatch,
     {2, false, true, false, false, false, 0, 3328, 256, 568, 13, 108, 85, 93,
      1, 4, 36,
      "fallback.fault_detected=1 fault.checked_runs=1 "
      "fault.cpu_reexec_instructions=3328 fault.mismatches=1 "
      "fault.quarantined_regions=1 fault.rollbacks=1 "
      "fault.self_tests=1",
      15,
      "golden-mismatch region-quarantine-enter",
      0x7f9516b5, 0x7e650fdf, 0x41fddc7f}},
    {"crc-rebuild", Exit::CrcRebuild,
     {0, false, true, false, false, false, 0, 0, 256, 568, 13, 108, 85, 93, 1,
      4, 36, "fault.crc_failures=1", 15, "crc-mismatch", 0xd4f8ae68,
      0x7e650fdf, 0x41fddc7f}},
    {"watchdog-to-cpu", Exit::WatchdogToCpu,
     {3, true, false, true, false, false, 0, 3840, 257, 514, 15, 128, 94,
      324, 2, 3, 28,
      "fallback.watchdog=1 fault.cpu_reexec_instructions=3840 "
      "fault.quarantined_regions=1 fault.rollbacks=1 "
      "fault.self_tests=1 fault.watchdog_trips=1",
      15,
      "trip-watchdog watchdog-trip rollback region-quarantine-enter",
      0xfe025ef0, 0xe741111a, 0xe062a6bb}},
    {"relocate-fails", Exit::RelocateFails,
     {3, true, false, true, false, false, 0, 3840, 514, 677, 30, 256, 188,
      648, 4, 3, 28,
      "fallback.watchdog=1 fault.cpu_reexec_instructions=3840 "
      "fault.quarantined_regions=1 fault.rollbacks=2 "
      "fault.self_tests=1 fault.watchdog_trips=2 "
      "migrate.relocations=1 migrate.stream_cycles=94 "
      "migrate.translate_cycles=143",
      19,
      "trip-watchdog watchdog-trip rollback region-quarantine-enter "
      "trip-watchdog watchdog-trip rollback",
      0x1ee73606, 0xe741111a, 0xe062a6bb}},
    {"relocate-succeeds", Exit::RelocateSucceeds,
     {0, false, true, false, false, false, 0, 0, 512, 841, 26, 214, 162, 0,
      0, 1, 36,
      "fault.quarantined_pes=1 "
      "fault.retired_pes=1 fault.rollbacks=1 fault.self_tests=1 "
      "fault.watchdog_trips=1 migrate.relocation_success=1 "
      "migrate.relocations=1 migrate.stream_cycles=81 "
      "migrate.translate_cycles=119",
      19,
      "trip-watchdog watchdog-trip rollback region-quarantine-enter "
      "pe-quarantine",
      0x96a14e5d, 0x7e650fdf, 0x41fddc7f}},
    {"certified-skip", Exit::CertifiedSkip,
     {0, false, true, false, true, true, 2048000, 3328, 256, 568, 13, 108, 85,
      93, 1, 4, 36,
      "absint.budget_tightened=1 absint.certified=1 "
      "absint.snapshot_skips=1 fault.checked_runs=1 "
      "fault.cpu_reexec_instructions=3328",
      19, "certificate", 0x4e4d6a6d, 0x7e650fdf, 0x41fddc7f}},
    {"trip-watchdog", Exit::TripWatchdog,
     {3, true, false, true, true, false, 3161088, 3840, 257, 514, 15, 128, 94,
      324, 2, 3, 28,
      "absint.budget_tightened=1 absint.certified=1 "
      "absint.trip_watchdogs=1 fallback.watchdog=1 "
      "fault.cpu_reexec_instructions=3840 fault.quarantined_regions=1 "
      "fault.rollbacks=1 fault.self_tests=1 fault.watchdog_trips=1",
      19,
      "certificate trip-watchdog watchdog-trip rollback "
      "region-quarantine-enter",
      0xcef5c743, 0xe741111a, 0xe062a6bb}},
    {"quarantined", Exit::Quarantined,
     {5, false, false, false, false, false, 0, 3840, 0, 0, 0, 0, 0, 0, 0, 1,
      0,
      "fallback.quarantined=1 fallback.watchdog=1 "
      "fault.cpu_reexec_instructions=7680 fault.rollbacks=1 "
      "fault.self_tests=1 fault.watchdog_trips=1",
      15,
      "trip-watchdog watchdog-trip rollback region-quarantine-enter",
      0xfe025ef0, 0xe741111a, 0xe062a6bb}},
    {"device-watchdog", Exit::DeviceWatchdog,
     {3, true, false, false, false, false, 0, 0, 1572, 1069, 13, 108, 85, 294,
      2, 4, 34, "fallback.watchdog=1", 5, "", 0xc261b403, 0x5d14acf5,
      0x8d1b8802}},
    {"unproven-hang", Exit::UnprovenHang,
     {3, true, false, false, false, false, 0, 1792, 19473, 20013, 7, 64, 48,
      224, 2, 1, 6,
      "fallback.watchdog=1 fault.cpu_reexec_instructions=1792 "
      "fault.quarantined_regions=1 fault.rollbacks=1 "
      "fault.self_tests=1 fault.watchdog_trips=1",
      15,
      "watchdog-trip rollback region-quarantine-enter",
      0xa494f813, 0x411a1ab5, 0x5694abab}},
};

} // namespace

TEST(GuardGolden, EveryExitMatchesRecorded)
{
    for (const GuardCase &gc : kGuardCases) {
        SCOPED_TRACE(gc.name);
        EXPECT_EQ(runGuardExit(gc.exit), gc.row);
    }
}
