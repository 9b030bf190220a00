/**
 * @file
 * Shared-accelerator multicore harness: N CPU threads each take a
 * contiguous chunk of one kernel's iteration space (the paper's
 * multi-threaded offload model — threads of one process share the
 * device), and every thread's hot loop routes through a single
 * MultiTenantScheduler instead of a private accelerator. The
 * functional side stays exact: each thread's emulator executes its
 * pre-loop preamble, hands its architectural state to the scheduler
 * (live-ins latch / live-outs write back per slice), and resumes at
 * the loop exit pc afterwards.
 */

#ifndef MESA_SCHED_MULTICORE_HH
#define MESA_SCHED_MULTICORE_HH

#include <vector>

#include "mem/memory.hh"
#include "sched/scheduler.hh"
#include "workloads/kernel.hh"

namespace mesa::sched
{

/** Parameters for a shared-accelerator multicore run. */
struct SharedRunParams
{
    SchedParams sched;

    /** Per-tenant priorities (index = tenant; empty = all zero). */
    std::vector<int> priorities;

    /** Per-tenant iteration-space weights (skewed load); empty =
     *  even split. Tenant count follows the weight vector when set. */
    std::vector<double> weights;
};

/** Outcome of a shared run. */
struct SharedRunResult
{
    ScheduleResult sched;

    /** Per-tenant device turnaround (submit to finish), the shared
     *  analogue of cpu::RunResult::core_cycles. */
    std::vector<uint64_t> core_cycles;

    uint64_t makespan_cycles = 0;
    uint64_t total_iterations = 0;

    /** Every tenant's loop exited via its own condition and every
     *  emulator ran to halt afterwards. */
    bool all_completed = false;

    /** Slowest tenant turnaround over the mean (1 = even). */
    double imbalance() const { return cpu::loadImbalance(core_cycles); }
};

/**
 * Run @p kernel's iteration space split across @p tenants threads,
 * all offloading to one scheduler built from @p params. Initializes
 * the kernel dataset and loads the program into @p memory.
 */
SharedRunResult runShared(const SharedRunParams &params,
                          mem::MainMemory &memory,
                          const workloads::Kernel &kernel,
                          int tenants);

} // namespace mesa::sched

#endif // MESA_SCHED_MULTICORE_HH
