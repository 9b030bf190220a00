#include "sched/multicore.hh"

#include <algorithm>
#include <memory>

#include "cpu/system.hh"
#include "riscv/emulator.hh"
#include "util/logging.hh"

namespace mesa::sched
{

namespace
{

/** Step bound on a thread's run from the loop exit to halt. */
constexpr uint64_t ResumeSteps = 50'000'000;

} // namespace

SharedRunResult
runShared(const SharedRunParams &params, mem::MainMemory &memory,
          const workloads::Kernel &kernel, int tenants)
{
    SharedRunResult out;

    kernel.plant(memory);

    MultiTenantScheduler scheduler(params.sched, memory);
    const auto body = kernel.loopBody();
    const auto chunks =
        params.weights.empty()
            ? kernel.chunks(std::max(1, tenants))
            : kernel.chunksWeighted(params.weights);

    // Functional contexts must outlive runAll(): the scheduler holds
    // ArchState pointers in its context table.
    std::vector<std::unique_ptr<riscv::Emulator>> emus;
    std::vector<int> ids;
    for (size_t t = 0; t < chunks.size(); ++t) {
        auto emu = std::make_unique<riscv::Emulator>(memory);
        if (!kernel.enterLoop(*emu, chunks[t])) {
            logWarn("sched", "runShared: thread ", t,
                 " never reached the loop entry; skipping");
            continue;
        }

        const int prio = t < params.priorities.size()
                             ? params.priorities[t]
                             : 0;
        const int id = scheduler.submit(body, emu->state(),
                                        kernel.parallel,
                                        ~uint64_t(0), prio);
        if (id < 0) {
            logWarn("sched", "runShared: thread ", t, " refused (", body.size(),
                 " instructions vs partition capacity ",
                 scheduler.partitionCapacity(),
                 " — fewer ways fit larger regions)");
            continue;
        }
        ids.push_back(id);
        emus.push_back(std::move(emu));
    }

    out.sched = scheduler.runAll();
    out.makespan_cycles = out.sched.makespan_cycles;
    out.total_iterations = out.sched.total_iterations;

    // Resume every thread from its written-back state (loop exit pc
    // when the device completed the loop) and let it run to halt.
    bool all = !ids.empty();
    for (size_t t = 0; t < ids.size(); ++t) {
        const TenantStats &stats =
            out.sched.tenants[size_t(ids[t])];
        out.core_cycles.push_back(stats.turnaroundCycles());
        emus[t]->run(ResumeSteps);
        all = all && stats.completed && emus[t]->halted();
    }
    out.all_completed = all;
    return out;
}

} // namespace mesa::sched
