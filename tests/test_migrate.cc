/**
 * @file
 * Live-migration tests: cross-geometry checkpoint/remap/resume
 * bit-exactness across the kernel suite, warm bitstream reuse between
 * equal-height bands, virtual-row folding onto undersized targets,
 * blocked-PE avoidance, the elastic scheduler's migrate-instead-of-
 * preempt policy (and its honouring of the MesaParams switches), and
 * the controller's drain-and-relocate path.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fault/campaign.hh"
#include "helpers.hh"
#include "migrate/migrate.hh"
#include "sched/multicore.hh"
#include "sched/scheduler.hh"
#include "util/stats_registry.hh"

using namespace mesa;
using namespace mesa::test;
using workloads::Kernel;
using workloads::kernelByName;

namespace
{

/** A kernel parked at its loop entry and running on a manually
 *  translated source fabric (no controller in the way — migration is
 *  exercised as a primitive). */
struct LiveOffload
{
    mem::MainMemory memory;
    std::unique_ptr<riscv::Emulator> emu;
    std::unique_ptr<accel::Accelerator> source;
    std::vector<riscv::Instruction> body;
};

/** The policy these tests translate and migrate under: up to 4
 *  instructions per PE, pipelined, never tiled, every node placed. */
core::TranslatePolicy
migrationPolicy(std::vector<ic::Coord> blocked = {})
{
    core::TranslatePolicy policy;
    policy.blocked = std::move(blocked);
    policy.fold_limit = 4;
    policy.options.pipelined = true;
    return policy;
}

LiveOffload
startOffload(const Kernel &kernel, const accel::AccelParams &src_params,
             uint64_t source_iterations)
{
    LiveOffload live;
    kernel.plant(live.memory);
    live.emu = std::make_unique<riscv::Emulator>(live.memory);
    kernel.enterLoop(*live.emu);

    live.body = kernel.loopBody();
    const ic::AccelNocInterconnect noc(src_params.rows, src_params.cols,
                                       src_params.noc_slice_width);
    const auto tr =
        core::translate(live.body, src_params, noc, migrationPolicy());
    if (!tr)
        return live; // caller asserts source != nullptr
    live.source =
        std::make_unique<accel::Accelerator>(src_params, live.memory);
    live.source->configure(tr->lower(core::ConfigBlock(src_params),
                                     live.body.front().pc,
                                     live.body.back().pc + 4));
    const auto r = live.source->run(live.emu->state(), source_iterations);
    EXPECT_GT(r.iterations, 0u);
    EXPECT_FALSE(r.completed) << "source ran to completion; nothing "
                                 "left to migrate";
    return live;
}

/** A planned migration and the target-side run it resumed. */
struct Resumed
{
    migrate::MigrationPlan plan;
    accel::AccelRunResult run;
};

/** Plan @p live's move onto @p target, configure the target with the
 *  plan, and resume the offload there to completion. */
std::optional<Resumed>
migrateAndResume(LiveOffload &live, accel::Accelerator &target,
                 std::vector<ic::Coord> blocked = {})
{
    auto plan = migrate::planMigration(live.body, live.source->config(),
                                       target.params(),
                                       migrationPolicy(std::move(blocked)));
    if (!plan)
        return std::nullopt;
    target.configure(plan->config);
    const accel::AccelRunResult run = target.run(live.emu->state());
    return Resumed{std::move(*plan), run};
}

} // namespace

// ---------------------------------------------------------------------
// Tentpole: migrate mid-offload onto a different geometry, resume, and
// end bit-exact with a run that never migrated — for every suite
// kernel that offloads.

TEST(Migrate, CrossGeometryResumeIsBitExactAcrossSuite)
{
    const struct
    {
        const char *name;
        uint64_t size;
    } cases[] = {
        {"nn", 256}, {"hotspot", 128}, {"srad", 128}, {"cfd", 128}};

    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const Kernel kernel = kernelByName(c.name, {c.size});
        const auto golden = runReference(kernel);

        // Source: the full 16x8 array. Target: an 8-row band — a
        // genuinely different geometry, so the move must re-translate.
        // 8 iterations up front stay below every suite loop's trip
        // count, so the migration is a genuine mid-offload move.
        auto live = startOffload(kernel, accel::AccelParams::m128(), 8);
        ASSERT_TRUE(live.source);

        accel::Accelerator target(
            accel::AccelParams::m128().subArray(0, 8), live.memory);
        const auto out = migrateAndResume(live, target);
        ASSERT_TRUE(out.has_value());
        EXPECT_FALSE(out->run.watchdog_tripped);
        EXPECT_FALSE(out->plan.warm) << "an 8-row band cannot reuse "
                                        "the 16-row bitstream";
        EXPECT_TRUE(out->run.completed);
        EXPECT_GT(out->plan.cost.encode_cycles, 0u);
        EXPECT_GT(out->plan.cost.config_cycles, 0u);

        live.emu->run(50'000'000);
        EXPECT_EQ(live.emu->state(), golden.state);
        EXPECT_TRUE(sameMemory(live.memory.snapshot(), golden.memory));
    }
}

TEST(Migrate, WarmMoveBetweenEqualBandsReusesBitstream)
{
    const Kernel kernel = kernelByName("nn", {256});
    const auto golden = runReference(kernel);

    const auto band = accel::AccelParams::m128().subArray(0, 8);
    auto live = startOffload(kernel, band, 64);
    ASSERT_TRUE(live.source);

    // Equal-height band at a different origin: sub-array coordinates
    // are band-local, so the running bitstream fits verbatim.
    accel::Accelerator target(
        accel::AccelParams::m128().subArray(8, 8), live.memory);
    const auto out = migrateAndResume(live, target);
    ASSERT_TRUE(out.has_value());
    EXPECT_FALSE(out->run.watchdog_tripped);
    EXPECT_TRUE(out->plan.warm);
    EXPECT_EQ(out->plan.cost.encode_cycles, 0u);
    EXPECT_EQ(out->plan.cost.mapping_cycles, 0u);
    EXPECT_GT(out->plan.cost.config_cycles, 0u)
        << "the bitstream write is always paid";
    EXPECT_EQ(out->plan.cost.checkpoint_cycles,
              uint64_t(riscv::NumUnifiedRegs));

    live.emu->run(50'000'000);
    EXPECT_EQ(live.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(live.memory.snapshot(), golden.memory));
}

TEST(Migrate, FoldsOntoUndersizedTargetAndStaysBitExact)
{
    const Kernel kernel = kernelByName("hotspot", {128});
    const auto golden = runReference(kernel);

    auto live = startOffload(kernel, accel::AccelParams::m128(), 32);
    ASSERT_TRUE(live.source);

    // A band too short for the body: ceil(n / cols) physical rows
    // would be needed flat, so half that forces time-multiplex >= 2.
    const auto full = accel::AccelParams::m128();
    const int need =
        int((live.body.size() + size_t(full.cols) - 1) /
            size_t(full.cols));
    ASSERT_GE(need, 2) << "body too small to exercise folding";
    const auto band = full.subArray(0, (need + 1) / 2);

    accel::Accelerator target(band, live.memory);
    const auto out = migrateAndResume(live, target);
    ASSERT_TRUE(out.has_value());
    EXPECT_GT(out->plan.time_multiplex, 1);
    EXPECT_FALSE(out->run.watchdog_tripped);

    live.emu->run(50'000'000);
    EXPECT_EQ(live.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(live.memory.snapshot(), golden.memory));
}

TEST(Migrate, BlockedPesOnTargetAreAvoided)
{
    const Kernel kernel = kernelByName("nn", {256});
    const auto golden = runReference(kernel);

    auto live = startOffload(kernel, accel::AccelParams::m128(), 64);
    ASSERT_TRUE(live.source);

    // Block the PE hosting the source's first slot (band-local
    // coordinates carry over) on an equal-geometry target: the warm
    // path is forbidden and the re-translation must route around it.
    const ic::Coord victim = live.source->config().slots.front().pos;
    ASSERT_TRUE(victim.valid());

    accel::Accelerator target(accel::AccelParams::m128(), live.memory);
    const auto out = migrateAndResume(live, target, {victim});
    ASSERT_TRUE(out.has_value());
    EXPECT_FALSE(out->run.watchdog_tripped);
    EXPECT_FALSE(out->plan.warm);
    const int phys_rows = target.params().rows;
    for (const auto &slot : target.config().slots)
        EXPECT_FALSE(slot.pos.valid() &&
                     slot.pos.r % phys_rows == victim.r &&
                     slot.pos.c == victim.c)
            << "slot placed on (an alias of) the blocked PE";

    live.emu->run(50'000'000);
    EXPECT_EQ(live.emu->state(), golden.state);
    EXPECT_TRUE(sameMemory(live.memory.snapshot(), golden.memory));
}

// ---------------------------------------------------------------------
// Elastic repartitioning: under skewed load the scheduler migrates the
// surviving tenant onto a merged band instead of leaving freed ways
// idle — and the answer does not change.

TEST(ElasticSched, SkewedLoadMigratesAndBeatsStaticPartitioning)
{
    // The validated skewed cell (compute-bound, so the merged band's
    // extra rows actually shorten the solo tail): cfd at 4096
    // iterations, 4 tenants under Zipf-1.2 weights, 4-row bands.
    const Kernel kernel = kernelByName("cfd", {4096});
    const int tenants = 4;

    sched::SharedRunParams base;
    base.sched.mesa.accel = accel::AccelParams::m128();
    base.sched.spatial_ways = tenants;
    base.sched.mesa.enable_tiling = true;
    for (int t = 0; t < tenants; ++t)
        base.weights.push_back(1.0 / std::pow(double(t + 1), 1.2));

    sched::SharedRunParams stat = base;
    mem::MainMemory static_mem;
    const auto s = sched::runShared(stat, static_mem, kernel, tenants);
    ASSERT_TRUE(s.all_completed);
    EXPECT_EQ(s.sched.migrations, 0u);

    sched::SharedRunParams elastic = base;
    elastic.sched.elastic = true;
    mem::MainMemory elastic_mem;
    const auto e =
        sched::runShared(elastic, elastic_mem, kernel, tenants);
    ASSERT_TRUE(e.all_completed);

    // The surviving tenants were migrated onto merged bands, the
    // translation cost was accounted, and the skewed makespan
    // improved over static bands.
    EXPECT_GE(e.sched.migrations, 1u);
    EXPECT_GT(e.sched.migration_translate_cycles +
                  e.sched.migration_stream_cycles,
              0u);
    EXPECT_LT(e.makespan_cycles, s.makespan_cycles);

    // Elastic vs static is a scheduling decision, not a functional
    // one: both runs end with byte-identical memory.
    EXPECT_TRUE(
        sameMemory(elastic_mem.snapshot(), static_mem.snapshot()));
}

/** A serial loop whose body holds a guard-free store -> load pair on
 *  the same word (the static forwarding edge of paper §4.2):
 *  b[i] = a[i] + 1, and a running sum re-reads b[i]. */
Kernel
forwardingKernel(uint64_t n)
{
    using namespace riscv::reg;
    constexpr uint32_t ArrA = 0x00100000, ArrB = 0x00200000;
    riscv::Assembler as;
    as.label("loop");
    as.lw(t0, 0, a0);
    as.addi(t0, t0, 1);
    as.sw(t0, 0, a1);
    as.lw(t1, 0, a1);
    as.add(t2, t2, t1);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    Kernel k;
    k.name = "forwarding";
    k.iterations = n;
    k.program = as.assemble();
    k.loop_start = k.program.labelPc("loop");
    k.loop_end = k.program.labelPc("exit");
    k.init_data = [n](mem::MainMemory &m) {
        for (uint64_t i = 0; i < n; ++i)
            m.write32(ArrA + uint32_t(4 * i), uint32_t(3 * i));
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrA + uint32_t(4 * e);
        st.x[t2] = 0;
    };
    return k;
}

TEST(ElasticSched, GrowLowersUnderTheMesaParamsSwitches)
{
    // Two ways merge into the whole array, so a solo tenant that grows
    // at its first slice runs on the geometry a 1-way schedule uses.
    // The grow's re-translation must lower under the same switches as
    // submit(): the device counters match for every combination.
    for (const Kernel &kernel :
         {forwardingKernel(1024), kernelByName("hotspot", {1024})}) {
        SCOPED_TRACE(kernel.name);
        const auto golden = runReference(kernel);
        for (int mask = 0; mask < 8; ++mask) {
            SCOPED_TRACE(mask);
            auto run = [&](int ways) {
                sched::SharedRunParams params;
                params.sched.spatial_ways = ways;
                params.sched.elastic = ways > 1;
                params.sched.mesa.enable_forwarding = mask & 1;
                params.sched.mesa.enable_vectorization = mask & 2;
                params.sched.mesa.enable_prefetch = mask & 4;
                mem::MainMemory memory;
                const auto res =
                    sched::runShared(params, memory, kernel, 1);
                EXPECT_TRUE(res.all_completed);
                EXPECT_TRUE(sameMemory(memory.snapshot(), golden.memory));
                return res.sched;
            };
            const auto grown = run(2);
            const auto solo = run(1);
            ASSERT_EQ(grown.migrations, 1u);
            ASSERT_EQ(grown.tenants.size(), 1u);
            ASSERT_EQ(solo.tenants.size(), 1u);
            const auto &g = grown.tenants[0].accel;
            const auto &s = solo.tenants[0].accel;
            EXPECT_EQ(g.cycles, s.cycles);
            EXPECT_EQ(g.iterations, s.iterations);
            EXPECT_EQ(g.loads, s.loads);
            EXPECT_EQ(g.store_load_forwards, s.store_load_forwards);
            EXPECT_EQ(g.dram_accesses, s.dram_accesses);
        }
    }
}

// ---------------------------------------------------------------------
// Quarantine draining: a hung offload is checkpointed and relocated
// (drain-and-relocate) before the controller ever considers running
// degraded; a second trip falls back to the CPU with golden state.

TEST(Drain, ControllerRelocatesHungOffloadAndRecovers)
{
    const Kernel kernel = kernelByName("hotspot", {128});
    const auto golden = runReference(kernel);

    core::MesaParams params;
    params.fault.enabled = true;
    params.fault.checked_mode = false;
    params.fault.migrate_on_fault = true;
    params.fault.watchdog_cycles = 20'000;

    StatsRegistry stats;
    mem::MainMemory memory;
    kernel.plant(memory);
    core::MesaController mesa(params, memory);
    mesa.attachStats(&stats);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);

    accel::FaultPlane plane;
    plane.stuck_branches.push_back({4});
    mesa.accelerator().injectFaults(plane);

    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    ASSERT_TRUE(os.has_value());

    // The drain path ran: a relocation was attempted (the stuck
    // control line is not BIST-localizable, so the retry hangs again
    // and the work drains to the CPU — never a degraded result).
    EXPECT_GE(stats.value("mesa.migrate.relocations"), 1.0);
    EXPECT_EQ(stats.value("mesa.migrate.relocation_success"), 0.0);
    EXPECT_GT(stats.value("mesa.migrate.translate_cycles"), 0.0);
    EXPECT_GT(stats.value("mesa.migrate.stream_cycles"), 0.0);
    EXPECT_GE(stats.value("mesa.fault.watchdog_trips"), 2.0)
        << "the relocated attempt must also be guarded";

    // Live gauges reflect the degraded fabric.
    EXPECT_GE(stats.value("mesa.fault.quarantined_regions"), 1.0);

    emu.run(50'000'000);
    EXPECT_EQ(emu.state(), golden.state);
    EXPECT_TRUE(sameMemory(memory.snapshot(), golden.memory));
}

// The campaign-level guarantee: with --migrate, injections still show
// zero silent corruption, relocations happen, and their cost is
// decomposed per kernel.

TEST(Drain, MigrateCampaignStaysCleanAndCountsRelocations)
{
    fault::CampaignParams params;
    params.seed = 11;
    params.injections_per_kernel = 12;
    params.kernels = {"nn", "hotspot"};
    params.migrate = true;

    const auto result = fault::runCampaign(params);
    EXPECT_EQ(result.totalInjections(), 24);
    EXPECT_EQ(result.totalSilent(), 0);
    EXPECT_EQ(result.totalCorrupted(), 0);
    EXPECT_GE(result.totalRelocations(), 1);
    EXPECT_GT(result.totalMigrateTranslateCycles(), 0u);
    EXPECT_GT(result.totalMigrateStreamCycles(), 0u);

    // Determinism is preserved under the drain path.
    const auto again = fault::runCampaign(params);
    EXPECT_EQ(result.statsSnapshot(), again.statsSnapshot());
}
