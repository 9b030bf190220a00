/**
 * @file
 * Multi-tenant offload scheduler: an accelerator arbiter that accepts
 * offload requests from N CPU threads and serves them by spatial
 * partitioning (the PE grid splits into uniform sub-arrays so small
 * regions from different tenants run concurrently, see partition.hh)
 * and time-multiplexing (a per-tenant context table holds each saved
 * AcceleratorConfig plus iteration progress; partitions run
 * preemptive epoch slices and a context switch is costed through the
 * same config-stream latency model the controller uses).
 *
 * The simulator is clockless, so the scheduler keeps one cycle cursor
 * per partition and advances whichever partition frees up first —
 * an event-driven schedule whose decisions (round-robin, priority,
 * shortest-remaining-iterations) depend only on the submission order,
 * making the whole schedule deterministic.
 */

#ifndef MESA_SCHED_SCHEDULER_HH
#define MESA_SCHED_SCHEDULER_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "interconnect/interconnect.hh"
#include "mesa/config_builder.hh"
#include "mesa/controller.hh"
#include "mesa/mapper.hh"
#include "migrate/migrate.hh"
#include "sched/partition.hh"
#include "util/stats_registry.hh"

namespace mesa::sched
{

/** Preemption policy applied at every free partition. */
enum class Policy
{
    RoundRobin,        ///< Cycle through runnable tenants in id order.
    Priority,          ///< Highest priority first (ties: lowest id).
    ShortestRemaining  ///< Fewest remaining iterations first.
};

const char *policyName(Policy policy);
std::optional<Policy> policyByName(const std::string &name);

/** Scheduler configuration. */
struct SchedParams
{
    /**
     * The accelerator the ways are cut from, its memory hierarchy and
     * every translation switch (MesaParams::translatePolicy). Two
     * more fields act here: shadow_config (double-buffered config
     * plane: a context switch costs a single-cycle swap instead of
     * streaming the bitstream) and verify_before_offload (statically
     * verify every tenant's sub-array mapping and saved configuration
     * at submit time and refuse a region with error-severity findings
     * before it ever lands on a way — the Mestra-style legality check
     * for virtualized sub-array contexts).
     */
    core::MesaParams mesa;

    /** Spatial ways: number of uniform sub-array partitions. */
    int spatial_ways = 1;

    Policy policy = Policy::RoundRobin;

    /** Preemption slice: iterations a tenant runs before the
     *  partition re-arbitrates. */
    uint64_t epoch_iterations = 256;

    /**
     * Elastic repartitioning (the virtualized-fabric extension): when
     * the arbitrating way's tenant is the only runnable one and
     * adjacent healthy ways sit idle, live-migrate it onto the merged
     * row band (checkpoint at the round boundary, re-translate via
     * migrate::planMigration() for the larger sub-array, resume)
     * instead of leaving the idle bands dark. The band shrinks back
     * implicitly: as soon as another tenant is runnable the merge
     * criterion fails and slices return to single-way granularity.
     */
    bool elastic = false;
};

/** Per-tenant schedule outcome. */
struct TenantStats
{
    int tenant = 0;
    int priority = 0;
    uint32_t region_start = 0;

    uint64_t submit_cycle = 0;
    uint64_t first_run_cycle = 0;
    uint64_t finish_cycle = 0;    ///< Turnaround end (device cycles).
    uint64_t wait_cycles = 0;     ///< Runnable but not running.
    uint64_t run_cycles = 0;      ///< Executing on a partition.
    uint64_t switch_cycles = 0;   ///< Config streams charged to it.
    uint64_t switches = 0;        ///< Times (re)configured onto a way.
    uint64_t slices = 0;          ///< Epoch slices received.
    uint64_t iterations = 0;
    bool completed = false;       ///< Loop exited via its condition.

    accel::AccelRunResult accel;  ///< Aggregated device counters.

    uint64_t
    turnaroundCycles() const
    {
        return finish_cycle > submit_cycle
                   ? finish_cycle - submit_cycle
                   : 0;
    }
};

/** One scheduled slice (the timeline a determinism check compares). */
struct ScheduleSlice
{
    int partition = 0;
    int tenant = 0;
    uint64_t start = 0;   ///< Device cycle the slice begins.
    uint64_t cycles = 0;  ///< Switch cost + execution.
    uint64_t iterations = 0;
    bool switched = false;

    bool
    operator==(const ScheduleSlice &o) const
    {
        return partition == o.partition && tenant == o.tenant &&
               start == o.start && cycles == o.cycles &&
               iterations == o.iterations && switched == o.switched;
    }
};

/** Aggregate outcome of draining the pending tenants. */
struct ScheduleResult
{
    int ways = 1;
    uint64_t makespan_cycles = 0; ///< Batch start to last completion.
    uint64_t busy_cycles = 0;     ///< Sum of run+switch over ways.
    double occupancy = 0.0;       ///< busy / (ways * makespan).
    uint64_t total_switches = 0;
    uint64_t total_switch_cycles = 0;
    uint64_t total_iterations = 0;
    uint64_t dram_accesses = 0;

    /** Submit-time verify gate outcomes
     *  (SchedParams::mesa.verify_before_offload). */
    uint64_t verify_checked = 0;
    uint64_t verify_rejects = 0;

    /** Ways retired from arbitration (quarantined PEs in their row
     *  band); tenants are steered onto the healthy ways. */
    uint64_t degraded_ways = 0;

    // ----- elastic repartitioning (SchedParams::elastic) -----
    /** Live migrations onto a merged row band. */
    uint64_t migrations = 0;
    /** Migrations served by a cached per-geometry config (only the
     *  bitstream write was paid). */
    uint64_t migration_warm = 0;
    /** Re-translation cost (encode + imap) of cold migrations. */
    uint64_t migration_translate_cycles = 0;
    /** Bitstream-streaming cost of every migration. */
    uint64_t migration_stream_cycles = 0;

    std::vector<TenantStats> tenants;
    std::vector<ScheduleSlice> timeline;

    /** Aggregate throughput: iterations per kilocycle of makespan. */
    double
    throughputIterPerKcycle() const
    {
        return makespan_cycles
                   ? 1000.0 * double(total_iterations) /
                         double(makespan_cycles)
                   : 0.0;
    }

    /** Jain fairness index over per-tenant service (run cycles). */
    double fairnessJain() const;

    /** Register every schedule statistic under @p prefix (scalars,
     *  so repeated batches overwrite in place). */
    void registerInto(StatsRegistry &registry,
                      const std::string &prefix = "sched.") const;
};

/**
 * The arbiter. Tenants submit prepared loop regions; runAll() drains
 * them across the partitions under the configured policy. Also
 * implements core::OffloadArbiter so a MesaController can route its
 * qualified regions here instead of running them inline.
 */
class MultiTenantScheduler final : public core::OffloadArbiter
{
  public:
    MultiTenantScheduler(const SchedParams &params,
                         mem::MainMemory &memory);

    /**
     * Encode, map (against the partition geometry), and enqueue a
     * tenant's loop region. @p state must stay alive until runAll():
     * live-ins are latched from it at every slice and live-outs are
     * written back, which is exactly what lets a preempted context
     * resume.
     *
     * @return tenant id, or -1 if the body cannot be encoded/mapped
     *         within a partition
     */
    int submit(const std::vector<riscv::Instruction> &body,
               riscv::ArchState &state, bool parallel_hint = false,
               uint64_t max_iterations = ~uint64_t(0),
               int priority = 0);

    /** Drain every pending tenant to completion. */
    ScheduleResult runAll();

    // core::OffloadArbiter: submit + drain + report one tenant.
    std::optional<core::OffloadStats>
    serve(const core::OffloadRequest &request) override;

    /** Registry the schedule results auto-register into ("sched.*"). */
    void attachStats(StatsRegistry *registry) { stats_ = registry; }

    /**
     * Retire every partition whose row band contains one of these
     * physical PEs (e.g., the controller's faulty-PE map after a self
     * test): degraded ways take no further slices, and tenants are
     * steered onto the remaining healthy ways. With every way
     * degraded, submit() refuses new work and runAll() leaves pending
     * tenants incomplete (the callers' CPU fallback takes over).
     */
    void quarantinePes(const std::vector<ic::Coord> &pes);

    /** Ways still accepting work. */
    int healthyWays() const;

    const SchedParams &params() const { return params_; }
    int ways() const { return int(partitions_.size()); }
    size_t partitionCapacity() const { return part_params_.capacity(); }
    const std::vector<PartitionGeometry> &partitions() const
    {
        return geometry_;
    }
    size_t tenantCount() const { return tenants_.size(); }

  private:
    struct Partition
    {
        PartitionGeometry geometry;
        std::unique_ptr<accel::Accelerator> accel;
        uint64_t clock = 0;   ///< Device cycle this way is free at.
        uint64_t busy = 0;    ///< Run + switch cycles accumulated.
        int resident = -1;    ///< Tenant whose config is installed.
        bool degraded = false; ///< Quarantined PEs in this row band.
    };

    /** Context-table entry: everything needed to preempt/resume. */
    struct Tenant
    {
        accel::AcceleratorConfig config; ///< Saved configuration.
        riscv::ArchState *state = nullptr; ///< Architectural context.
        uint64_t remaining = ~uint64_t(0); ///< Iteration budget left.
        uint64_t stream_cycles = 0; ///< Context-switch stream cost.
        uint64_t encode_cycles = 0;
        uint64_t mapping_cycles = 0;
        bool parallel_hint = false;
        bool done = false;
        bool started = false;
        uint64_t busy_until = 0;   ///< Running on some way until then.
        uint64_t runnable_at = 0;  ///< When it last became runnable.
        TenantStats stats;

        /** Loop body, kept so elastic migration can re-translate the
         *  region for a merged row band (SchedParams::elastic). */
        std::vector<riscv::Instruction> body;
        /** Plans of past migrations, keyed by the band's physical
         *  row count (a repeat grow pays only the plan's stream and
         *  checkpoint cost). */
        std::map<int, migrate::MigrationPlan> geo_plans;
    };

    /** A merged row band the elastic policy migrates solo tenants
     *  onto: the contiguous ways [first_way, first_way + ways). */
    struct MergedBand
    {
        std::unique_ptr<accel::Accelerator> accel;
        int resident = -1; ///< Tenant whose config is installed.
    };

    /** Policy pick among runnable tenants at partition time @p now;
     *  -1 when every pending tenant is busy on another way. */
    int pickNext(uint64_t now);

    bool anyPending() const;

    /** True when tenant @p t is the only one runnable at @p now
     *  (everyone else is done or mid-slice on another way). */
    bool soloRunnable(int t, uint64_t now) const;

    /**
     * Elastic fast path: try to run tenant @p t's next slice on the
     * merged band of contiguous healthy ways that are all free at
     * @p now and contain way @p pk. Returns true when the slice ran
     * there (all constituent clocks advanced); false falls back to
     * the single-way path.
     */
    bool tryElasticSlice(int t, size_t pk, uint64_t now,
                         uint64_t batch_start, uint64_t trace_t0,
                         ScheduleResult &result, uint64_t &batch_end);

    SchedParams params_;
    mem::MainMemory &memory_;

    // Uniform partition geometry: one interconnect/config-block
    // serves all ways (declaration order matters — the block holds a
    // reference).
    std::vector<PartitionGeometry> geometry_;
    accel::AccelParams part_params_;
    std::unique_ptr<ic::Interconnect> part_ic_;
    std::unique_ptr<core::ConfigBlock> config_block_;

    std::vector<Partition> partitions_;
    std::vector<Tenant> tenants_; ///< The context table.
    size_t rr_next_ = 0;

    /** Merged-band devices, keyed by (first_way, ways). Persist
     *  across batches so their DRAM counters keep accumulating. */
    std::map<std::pair<int, int>, MergedBand> merged_;

    // Elastic migration counters for the current batch.
    uint64_t migrations_ = 0;
    uint64_t migration_warm_ = 0;
    uint64_t migration_translate_cycles_ = 0;
    uint64_t migration_stream_cycles_ = 0;

    uint64_t verify_checked_ = 0;
    uint64_t verify_rejects_ = 0;

    StatsRegistry *stats_ = nullptr;
};

} // namespace mesa::sched

#endif // MESA_SCHED_SCHEDULER_HH
