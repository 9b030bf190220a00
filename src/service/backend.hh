/**
 * @file
 * A service backend is one persistent fabric instance — a
 * MesaController with its accelerator, config cache, quarantine
 * ledger, and cycle-attribution profile — that executes a stream of
 * offload jobs. The enabling decoupling (ROADMAP item 1): the
 * controller no longer owns one memory for life; each job brings a
 * fresh MainMemory image (its own dataset) and the backend rebinds
 * the fabric to it, so a pool of N backends can drain one shared
 * queue while every backend keeps its caches warm across jobs.
 *
 * Two execution modes per backend:
 *  - direct (sched_ways == 1): each job runs alone through
 *    MesaController::offloadLoop — the bit-exact reference path used
 *    by the multi-backend cross-check;
 *  - co-scheduled (sched_ways > 1): same-kernel jobs are gathered
 *    into a batch and time/space-multiplexed on one fabric through a
 *    per-batch MultiTenantScheduler, each job owning a disjoint
 *    iteration range of a shared dataset.
 */

#ifndef MESA_SERVICE_BACKEND_HH
#define MESA_SERVICE_BACKEND_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mesa/controller.hh"
#include "prof/profile.hh"
#include "service/job.hh"
#include "workloads/kernel.hh"

namespace mesa::service
{

/** Per-backend fabric configuration. */
struct BackendParams
{
    core::MesaParams mesa;

    /**
     * Spatial ways for co-scheduled batches: 1 = direct mode (every
     * job runs alone, the deterministic reference), >1 = same-kernel
     * jobs share the fabric through a multi-tenant scheduler.
     */
    int sched_ways = 1;

    /** Attach a cycle-attribution profile so each job's service time
     *  splits into compute / NoC-stall / mem-stall exactly. */
    bool profile = true;
};

/** One fabric instance serving jobs from the shared queue. */
class ServiceBackend
{
  public:
    ServiceBackend(int id, const BackendParams &params);

    int id() const { return id_; }

    /** Direct mode: run @p job alone on the persistent controller.
     *  Synchronous — returns the completed record; the pool turns
     *  service_cycles into the backend's busy window. */
    JobRecord execute(const OffloadJob &job, uint64_t dispatch_cycle);

    /** Co-scheduled mode: run a batch of same-kernel jobs on one
     *  fabric, each owning a disjoint iteration range. */
    std::vector<JobRecord>
    executeBatch(const std::vector<OffloadJob> &jobs,
                 uint64_t dispatch_cycle);

    int schedWays() const { return params_.sched_ways; }

    // Lifetime counters for the pool summary.
    uint64_t jobs() const { return jobs_; }
    uint64_t batches() const { return batches_; }
    uint64_t busyCycles() const { return busy_cycles_; }
    uint64_t
    cacheHits() const
    {
        return controller_->configCache().hits();
    }
    uint64_t
    cacheMisses() const
    {
        return controller_->configCache().misses();
    }
    uint64_t
    cacheTagConflicts() const
    {
        return controller_->configCache().tagConflicts();
    }

    // Fabric health (the pool's quarantine-drain path steers work
    // away from degraded backends).
    uint64_t
    quarantinedRegions() const
    {
        return controller_->quarantine().quarantinedCount();
    }
    uint64_t retiredPes() const { return controller_->faultyPes().size(); }
    bool
    degraded() const
    {
        return quarantinedRegions() > 0 || retiredPes() > 0;
    }

    core::MesaController &controller() { return *controller_; }

  private:
    /** Build-or-reuse a kernel instance; keyed (name, iterations)
     *  so the power-of-two size draws hit. */
    const workloads::Kernel &kernelFor(const std::string &name,
                                       uint64_t iterations);

    int id_;
    BackendParams params_;

    /** The controller needs a memory at construction; jobs rebind. */
    mem::MainMemory boot_memory_;
    std::unique_ptr<core::MesaController> controller_;
    prof::AccelProfile profile_;

    std::map<std::pair<std::string, uint64_t>, workloads::Kernel>
        kernel_cache_;

    uint64_t jobs_ = 0;
    uint64_t batches_ = 0;
    uint64_t busy_cycles_ = 0;
};

} // namespace mesa::service

#endif // MESA_SERVICE_BACKEND_HH
