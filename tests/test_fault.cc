/**
 * @file
 * Fault-tolerance tests: watchdog cycle budgets, checkpoint/rollback
 * byte-exactness, CRC config-integrity detection, region quarantine
 * backoff, faulty-PE mapping exclusion (including the folded
 * time-multiplex grid), end-to-end permanent-fault remap, scheduler
 * degraded-way steering, and campaign determinism / the zero-silent-
 * corruption guarantee of checked mode.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "fault/checkpoint.hh"
#include "fault/injector.hh"
#include "fault/quarantine.hh"
#include "helpers.hh"
#include "sched/scheduler.hh"
#include "util/stats_registry.hh"

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
    kernel.init_data(run.memory);
    cpu::loadProgram(run.memory, kernel.program);
    run.mesa =
        std::make_unique<core::MesaController>(params, run.memory);
    if (stats)
        run.mesa->attachStats(stats);
    run.emu = std::make_unique<riscv::Emulator>(run.memory);
    run.emu->reset(kernel.program.base_pc);
    kernel.fullRange()(run.emu->state());
    advanceToLoop(*run.emu, kernel);
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
    kernel.init_data(memory);
    cpu::loadProgram(memory, kernel.program);
    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    advanceToLoop(emu, kernel);

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
    kernel.init_data(run.memory);
    cpu::loadProgram(run.memory, kernel.program);
    riscv::Emulator emu2(run.memory);
    emu2.reset(kernel.program.base_pc);
    kernel.fullRange()(emu2.state());
    advanceToLoop(emu2, kernel);
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
    kernel.init_data(memory);
    cpu::loadProgram(memory, kernel.program);

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
        emu->reset(kernel.program.base_pc);
        chunk(emu->state());
        advanceToLoop(*emu, kernel);
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
    kernel.init_data(memory);
    cpu::loadProgram(memory, kernel.program);

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
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    advanceToLoop(emu, kernel);
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
