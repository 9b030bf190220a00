#include "service/backend.hh"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "cpu/system.hh"
#include "sched/partition.hh"
#include "sched/scheduler.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "workloads/suite.hh"

namespace mesa::service
{

namespace
{

/** CRC of the final architectural state (pc + every register). */
uint64_t
archStateDigest(const riscv::ArchState &state)
{
    Crc32 crc;
    crc.add32(state.pc);
    for (uint32_t v : state.x)
        crc.add32(v);
    for (uint32_t v : state.f)
        crc.add32(v);
    return crc.value();
}

/** CRC of the memory image, in page order and zero-page-normalized
 *  so the digest depends only on content, not on touch order. Streams
 *  the resident pages in place (forEachPage visits them ascending). */
uint64_t
memoryDigest(const mem::MainMemory &memory)
{
    Crc32 crc;
    memory.forEachPage(
        [&](uint32_t pn, std::span<const uint8_t, mem::MainMemory::PageSize>
                             bytes) {
            if (mem::isZeroPage(bytes))
                return;
            crc.add32(pn);
            crc.addBytes(bytes.data(), bytes.size());
        });
    return crc.value();
}

/** Step bound on the CPU's share of a job: the rest of the hot loop,
 *  then the postamble to halt. */
constexpr uint64_t ResumeSteps = 50'000'000;

/** Preemption slice of a co-scheduled batch, in iterations. */
constexpr uint64_t SchedEpochIterations = 256;

/** Enter the hot loop; a preamble that neither halts nor reaches the
 *  loop within the bound is a broken kernel. */
void
mustEnterLoop(const workloads::Kernel &kernel, riscv::Emulator &emu,
              const cpu::ThreadInit &init, const char *what)
{
    if (!kernel.enterLoop(emu, init) && !emu.halted())
        fatal("service backend: ", what, " exceeded ",
              workloads::Kernel::PreambleSteps, " steps");
}

/** Step the emulator to halt. */
void
runToHalt(riscv::Emulator &emu, const char *what)
{
    emu.run(ResumeSteps);
    if (!emu.halted())
        fatal("service backend: ", what, " exceeded ", ResumeSteps,
              " steps");
}

} // namespace

ServiceBackend::ServiceBackend(int id, const BackendParams &params)
    : id_(id), params_(params),
      controller_(std::make_unique<core::MesaController>(params.mesa,
                                                         boot_memory_))
{
    if (params_.sched_ways < 1)
        fatal("service backend: sched_ways must be >= 1");
    if (params_.profile)
        controller_->attachProfile(&profile_);
}

const workloads::Kernel &
ServiceBackend::kernelFor(const std::string &name, uint64_t iterations)
{
    const auto key = std::make_pair(name, iterations);
    auto it = kernel_cache_.find(key);
    if (it != kernel_cache_.end())
        return it->second;
    for (const auto &entry : workloads::suiteRegistry()) {
        if (name == entry.name) {
            // Build at the job's exact iteration count (no suite
            // scale divisor — dataset size is the job's contract).
            auto [pos, inserted] =
                kernel_cache_.emplace(key, entry.make(iterations));
            (void)inserted;
            return pos->second;
        }
    }
    fatal("service backend: unknown kernel '", name, "'");
}

JobRecord
ServiceBackend::execute(const OffloadJob &job, uint64_t dispatch_cycle)
{
    const workloads::Kernel &kernel =
        kernelFor(job.kernel, job.iterations);

    // Each job brings its own memory image; the fabric (with its warm
    // config cache) is rebound to it for the duration of the job.
    mem::MainMemory memory;
    kernel.plant(memory);
    controller_->rebindMemory(memory);

    riscv::Emulator emu(memory);
    mustEnterLoop(kernel, emu, kernel.fullRange(), "preamble");

    JobRecord rec;
    rec.job = job;
    rec.backend = id_;
    rec.dispatch_cycle = dispatch_cycle;
    rec.queue_wait_cycles = dispatch_cycle - job.arrival_cycle;

    if (!emu.halted() && kernel.mesa_supported) {
        auto stats = controller_->offloadLoop(kernel.loopBody(),
                                              emu.state(),
                                              kernel.parallel);
        if (stats) {
            rec.offloaded =
                stats->fallback == core::FallbackReason::None;
            rec.config_cache_hit = stats->config_cache_hit;
            rec.accel_iterations = stats->accel_iterations;
            rec.phases[prof::Phase::Encode] = stats->encode_cycles;
            rec.phases[prof::Phase::Map] = stats->mapping_cycles;
            rec.phases[prof::Phase::ConfigStream] =
                stats->config_cycles + stats->reconfig_cycles;
            // Device cycles: the attached profile splits them into
            // compute / NoC / mem summing exactly to accel_cycles;
            // without a split everything lands in Compute.
            const uint64_t attributed = stats->prof_compute_cycles +
                                        stats->prof_noc_stall_cycles +
                                        stats->prof_mem_stall_cycles;
            if (attributed == stats->accel_cycles &&
                stats->accel_cycles > 0) {
                rec.phases[prof::Phase::Compute] =
                    stats->prof_compute_cycles;
                rec.phases[prof::Phase::NocStall] =
                    stats->prof_noc_stall_cycles;
                rec.phases[prof::Phase::MemStall] =
                    stats->prof_mem_stall_cycles;
            } else {
                rec.phases[prof::Phase::Compute] = stats->accel_cycles;
            }
            rec.phases[prof::Phase::SchedWait] =
                stats->sched_wait_cycles;
            // CPU re-execution after a rollback / quarantine: one
            // cycle per instruction.
            rec.phases[prof::Phase::FaultRecovery] =
                stats->cpu_reexec_instructions;
        }
    }

    // Whatever part of the hot loop remains (structural failure,
    // unsupported kernel, partial progress after a watchdog trip)
    // runs functionally on the CPU, charged at one cycle per
    // instruction to FaultRecovery.
    const uint64_t cpu_steps = emu.runWhileInRegion(
        kernel.loop_start, kernel.loop_end, ResumeSteps);
    rec.phases[prof::Phase::FaultRecovery] += cpu_steps;

    // Postamble (loop exit to halt) is host-side epilogue, not
    // offload service time.
    runToHalt(emu, "postamble");

    if (rec.phases.total() == 0)
        rec.phases[prof::Phase::Compute] = 1; // A job takes >= 1 cycle.
    rec.service_cycles = rec.phases.total();
    rec.completion_cycle = dispatch_cycle + rec.service_cycles;

    rec.state_digest = archStateDigest(emu.state());
    rec.mem_digest = memoryDigest(memory);

    ++jobs_;
    busy_cycles_ += rec.service_cycles;

    // Leave the controller bound to its boot memory: `memory` dies
    // with this frame and a dangling binding would be a trap for any
    // later direct controller use.
    controller_->rebindMemory(boot_memory_);
    return rec;
}

std::vector<JobRecord>
ServiceBackend::executeBatch(const std::vector<OffloadJob> &jobs,
                             uint64_t dispatch_cycle)
{
    if (jobs.empty())
        return {};
    if (jobs.size() == 1 || params_.sched_ways == 1) {
        std::vector<JobRecord> out;
        out.reserve(jobs.size());
        for (const auto &job : jobs)
            out.push_back(execute(job, dispatch_cycle));
        return out;
    }
    for (const auto &job : jobs)
        if (job.kernel != jobs.front().kernel)
            fatal("service backend: mixed-kernel batch");

    // One kernel instance sized for the whole batch; each job owns
    // the iteration range at its prefix-sum offset.
    uint64_t total = 0;
    std::vector<uint64_t> offset(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        offset[j] = total;
        total += jobs[j].iterations;
    }
    const workloads::Kernel &kernel =
        kernelFor(jobs.front().kernel, total);
    const auto body = kernel.loopBody();

    mem::MainMemory memory;
    kernel.plant(memory);

    sched::SchedParams sp;
    sp.mesa = params_.mesa;
    sp.policy = sched::Policy::Priority;
    sp.epoch_iterations = SchedEpochIterations;
    sp.spatial_ways = std::min(
        params_.sched_ways,
        std::max(1, sched::maxWays(sp.mesa.accel, body.size())));

    sched::MultiTenantScheduler scheduler(sp, memory);

    std::vector<std::unique_ptr<riscv::Emulator>> emus;
    std::vector<int> ids(jobs.size(), -1);
    for (size_t j = 0; j < jobs.size(); ++j) {
        auto emu = std::make_unique<riscv::Emulator>(memory);
        const uint64_t begin = offset[j];
        const uint64_t end = begin + jobs[j].iterations;
        mustEnterLoop(kernel, *emu,
                      [&](riscv::ArchState &state) {
                          kernel.init_range(state, begin, end);
                      },
                      "batch preamble");
        if (!emu->halted()) {
            // Strictest QoS class gets the highest scheduler
            // priority.
            const int prio = QosClassCount - 1 - int(jobs[j].qos);
            ids[j] = scheduler.submit(body, emu->state(),
                                      kernel.parallel, ~uint64_t(0),
                                      prio);
        }
        emus.push_back(std::move(emu));
    }

    const sched::ScheduleResult sr = scheduler.runAll();

    std::vector<JobRecord> out;
    out.reserve(jobs.size());
    uint64_t batch_span = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        JobRecord rec;
        rec.job = jobs[j];
        rec.backend = id_;
        rec.dispatch_cycle = dispatch_cycle;
        rec.queue_wait_cycles = dispatch_cycle - jobs[j].arrival_cycle;

        if (ids[j] >= 0 && size_t(ids[j]) < sr.tenants.size() &&
            sr.tenants[size_t(ids[j])].completed) {
            const sched::TenantStats &ts = sr.tenants[size_t(ids[j])];
            rec.offloaded = true;
            rec.accel_iterations = ts.iterations;
            rec.phases[prof::Phase::Compute] = ts.run_cycles;
            rec.phases[prof::Phase::ConfigStream] = ts.switch_cycles;
            // Queueing behind co-tenants: the rest of the turnaround.
            const uint64_t spent = ts.run_cycles + ts.switch_cycles;
            rec.phases[prof::Phase::SchedWait] =
                ts.finish_cycle > spent ? ts.finish_cycle - spent : 0;
        }

        // CPU tail (refused submit, or incomplete under a degraded
        // scheduler): run the job's range functionally.
        const uint64_t cpu_steps =
            emus[j]->halted()
                ? 0
                : emus[j]->runWhileInRegion(kernel.loop_start,
                                            kernel.loop_end, ResumeSteps);
        rec.phases[prof::Phase::FaultRecovery] += cpu_steps;
        runToHalt(*emus[j], "batch postamble");

        if (rec.phases.total() == 0)
            rec.phases[prof::Phase::Compute] = 1;
        rec.service_cycles = rec.phases.total();
        rec.completion_cycle = dispatch_cycle + rec.service_cycles;
        rec.state_digest = archStateDigest(emus[j]->state());
        batch_span = std::max(batch_span, rec.service_cycles);
        out.push_back(std::move(rec));
    }

    // The shared dataset digest is a batch-level property.
    const uint64_t mem_digest = memoryDigest(memory);
    for (auto &rec : out)
        rec.mem_digest = mem_digest;

    jobs_ += jobs.size();
    ++batches_;
    busy_cycles_ += batch_span;
    return out;
}

} // namespace mesa::service
