/**
 * @file
 * Multi-tenant scheduler tests: partition planning, policy ordering,
 * preemptive time-multiplexing with exact context round-trips (the
 * chunked shared run must produce the same memory as the functional
 * golden run), spatial concurrency, determinism, and the controller
 * arbiter routing.
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "sched/multicore.hh"
#include "sched/partition.hh"
#include "sched/scheduler.hh"

using namespace mesa;
using namespace mesa::test;
using workloads::Kernel;
using workloads::kernelByName;

namespace
{

/** One prepared tenant: an emulator parked at the loop entry. */
struct PreparedTenant
{
    std::unique_ptr<riscv::Emulator> emu;
};

/** Park @p n chunked threads of @p kernel at its loop entry. */
std::vector<PreparedTenant>
prepare(const Kernel &kernel, mem::MainMemory &memory, int n)
{
    kernel.plant(memory);
    std::vector<PreparedTenant> out;
    for (const auto &chunk : kernel.chunks(n)) {
        auto emu = std::make_unique<riscv::Emulator>(memory);
        kernel.enterLoop(*emu, chunk);
        out.push_back({std::move(emu)});
    }
    return out;
}

sched::SchedParams
baseParams(int ways, sched::Policy policy = sched::Policy::RoundRobin,
           uint64_t epoch = 256)
{
    sched::SchedParams p;
    p.mesa.accel = accel::AccelParams::m128();
    p.spatial_ways = ways;
    p.policy = policy;
    p.epoch_iterations = epoch;
    p.mesa.enable_tiling = false;
    return p;
}

} // namespace

TEST(Partition, PlanIsUniformNonOverlappingAndInBounds)
{
    const auto accel = accel::AccelParams::m128();
    for (int ways : {1, 2, 3, 4, accel.rows, accel.rows + 5}) {
        const auto parts = sched::planPartitions(accel, ways);
        ASSERT_FALSE(parts.empty());
        EXPECT_LE(int(parts.size()), accel.rows);
        for (size_t i = 0; i < parts.size(); ++i) {
            // Uniform bands over all columns, inside the grid.
            EXPECT_EQ(parts[i].rows, parts[0].rows);
            EXPECT_EQ(parts[i].cols, accel.cols);
            EXPECT_GE(parts[i].origin_row, 0);
            EXPECT_LE(parts[i].endRow(), accel.rows);
            for (size_t j = i + 1; j < parts.size(); ++j)
                EXPECT_FALSE(parts[i].overlaps(parts[j]))
                    << "ways=" << ways << " " << i << "/" << j;
        }
    }
    // maxWays honors the capacity floor.
    const int w = sched::maxWays(accel, 40);
    const auto parts = sched::planPartitions(accel, w);
    EXPECT_GE(parts[0].capacity(), 40u);
}

TEST(Scheduler, PriorityPolicyOrdersFirstRuns)
{
    const Kernel kernel = kernelByName("nn", {512});
    mem::MainMemory memory;
    auto tenants = prepare(kernel, memory, 3);
    ASSERT_EQ(tenants.size(), 3u);

    sched::MultiTenantScheduler sched(
        baseParams(1, sched::Policy::Priority), memory);
    const auto body = kernel.loopBody();
    const int priorities[] = {1, 3, 2};
    for (size_t t = 0; t < tenants.size(); ++t)
        ASSERT_GE(sched.submit(body, tenants[t].emu->state(), false,
                               ~uint64_t(0), priorities[t]),
                  0);
    const auto res = sched.runAll();

    // Highest priority first: tenant 1, then 2, then 0.
    ASSERT_EQ(res.tenants.size(), 3u);
    EXPECT_LT(res.tenants[1].first_run_cycle,
              res.tenants[2].first_run_cycle);
    EXPECT_LT(res.tenants[2].first_run_cycle,
              res.tenants[0].first_run_cycle);
    // The low-priority tenant absorbs the queueing delay.
    EXPECT_GT(res.tenants[0].wait_cycles,
              res.tenants[1].wait_cycles);
}

TEST(Scheduler, ShortestRemainingRunsSmallestBudgetFirst)
{
    const Kernel kernel = kernelByName("nn", {1024});
    mem::MainMemory memory;
    auto tenants = prepare(kernel, memory, 3);
    ASSERT_EQ(tenants.size(), 3u);

    sched::MultiTenantScheduler sched(
        baseParams(1, sched::Policy::ShortestRemaining), memory);
    const auto body = kernel.loopBody();
    const uint64_t budgets[] = {300, 100, 200};
    for (size_t t = 0; t < tenants.size(); ++t)
        ASSERT_GE(sched.submit(body, tenants[t].emu->state(), false,
                               budgets[t]),
                  0);
    const auto res = sched.runAll();

    ASSERT_EQ(res.tenants.size(), 3u);
    EXPECT_LT(res.tenants[1].first_run_cycle,
              res.tenants[2].first_run_cycle);
    EXPECT_LT(res.tenants[2].first_run_cycle,
              res.tenants[0].first_run_cycle);
    EXPECT_EQ(res.tenants[1].iterations, 100u);
    EXPECT_EQ(res.tenants[2].iterations, 200u);
    EXPECT_EQ(res.tenants[0].iterations, 300u);
}

TEST(Scheduler, RoundRobinTimeMultiplexesWithExactContextRoundTrip)
{
    // Two tenants share ONE partition in 64-iteration epochs: every
    // slice preempts (config reload + architectural state save via
    // live-out writeback, restore via live-in latch). The chunked
    // result must still match the functional golden run bit-exactly.
    const Kernel kernel = kernelByName("nn", {1024});
    const GoldenResult want = runReference(kernel);

    sched::SharedRunParams params;
    params.sched = baseParams(1, sched::Policy::RoundRobin, 64);
    mem::MainMemory memory;
    const auto res = sched::runShared(params, memory, kernel, 2);

    EXPECT_TRUE(res.all_completed);
    ASSERT_EQ(res.sched.tenants.size(), 2u);
    for (const auto &t : res.sched.tenants) {
        EXPECT_TRUE(t.completed);
        EXPECT_GT(t.slices, 2u) << "epoch slicing must preempt";
        EXPECT_GE(t.switches, 2u) << "alternation must reconfigure";
    }
    EXPECT_GT(res.sched.total_switch_cycles, 0u);
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
}

TEST(Scheduler, SpatialPartitionsRunConcurrently)
{
    const Kernel kernel = kernelByName("nn", {1024});

    sched::SharedRunParams params;
    params.sched = baseParams(2);
    mem::MainMemory memory;
    const auto res = sched::runShared(params, memory, kernel, 2);

    EXPECT_TRUE(res.all_completed);
    EXPECT_EQ(res.sched.ways, 2);
    // Both tenants start immediately on their own partition...
    ASSERT_EQ(res.sched.tenants.size(), 2u);
    EXPECT_EQ(res.sched.tenants[0].wait_cycles, 0u);
    EXPECT_EQ(res.sched.tenants[1].wait_cycles, 0u);
    // ...so the makespan is far below the serialized sum.
    uint64_t total_busy = 0;
    for (const auto &t : res.sched.tenants)
        total_busy += t.run_cycles + t.switch_cycles;
    EXPECT_LT(res.makespan_cycles, total_busy);
    // Slices on different partitions overlap in time.
    bool overlap = false;
    for (const auto &a : res.sched.timeline)
        for (const auto &b : res.sched.timeline)
            if (a.partition != b.partition && a.start < b.start + b.cycles &&
                b.start < a.start + a.cycles)
                overlap = true;
    EXPECT_TRUE(overlap);
}

TEST(Scheduler, ScheduleIsDeterministic)
{
    const Kernel kernel = kernelByName("kmeans", {512});
    auto once = [&] {
        sched::SharedRunParams params;
        params.sched = baseParams(2, sched::Policy::RoundRobin, 128);
        mem::MainMemory memory;
        return sched::runShared(params, memory, kernel, 3);
    };
    const auto a = once();
    const auto b = once();
    ASSERT_EQ(a.sched.timeline.size(), b.sched.timeline.size());
    for (size_t i = 0; i < a.sched.timeline.size(); ++i)
        EXPECT_TRUE(a.sched.timeline[i] == b.sched.timeline[i])
            << "slice " << i;
    EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
}

TEST(Scheduler, ControllerRoutesOffloadsThroughArbiter)
{
    const Kernel kernel = kernelByName("nn", {1024});
    const GoldenResult want = runReference(kernel);

    mem::MainMemory memory;
    kernel.plant(memory);

    core::MesaParams params;
    core::MesaController mesa(params, memory);
    sched::MultiTenantScheduler sched(baseParams(2), memory);
    mesa.setOffloadArbiter(&sched, /*tenant=*/7, /*priority=*/1);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);
    const auto os =
        mesa.offloadLoop(kernel.loopBody(), emu.state(), false);
    emu.run(50'000'000);

    ASSERT_TRUE(os.has_value());
    EXPECT_EQ(sched.tenantCount(), 1u)
        << "the request must reach the shared scheduler";
    EXPECT_GT(os->accel_iterations, 0u);
    EXPECT_GE(os->sched_switches, 1u);
    EXPECT_TRUE(emu.halted());
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
}

TEST(Scheduler, TilingObeysTheTranslationSafetyGates)
{
    // bfs carries the parallel hint but fails the tiling safety gates
    // (data-dependent store addresses): enabling tiling must leave
    // its schedule untouched, and the result must stay golden.
    const Kernel kernel = kernelByName("bfs", {1024});
    const GoldenResult want = runReference(kernel);
    auto makespan = [&](bool tiling) {
        sched::SharedRunParams params;
        params.sched = baseParams(1);
        params.sched.mesa.enable_tiling = tiling;
        mem::MainMemory memory;
        const auto res = sched::runShared(params, memory, kernel, 2);
        EXPECT_TRUE(res.all_completed);
        EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory))
            << "tiling " << tiling;
        return res.makespan_cycles;
    };
    EXPECT_EQ(makespan(true), makespan(false));
}

TEST(Scheduler, VerifyGateChecksEverySubmit)
{
    // SchedParams::mesa.verify_before_offload turns on the submit-time
    // legality check: every accepted region is verified against its
    // partition, and a clean suite kernel passes.
    const Kernel kernel = kernelByName("nn", {512});
    const GoldenResult want = runReference(kernel);
    sched::SharedRunParams params;
    params.sched = baseParams(2);
    params.sched.mesa.verify_before_offload = true;
    const int tenants = 3;
    mem::MainMemory memory;
    const auto res = sched::runShared(params, memory, kernel, tenants);
    EXPECT_TRUE(res.all_completed);
    EXPECT_EQ(res.sched.verify_checked, uint64_t(tenants));
    EXPECT_EQ(res.sched.verify_rejects, 0u);
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
}
