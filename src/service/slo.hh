/**
 * @file
 * Per-tenant, per-QoS SLO accounting for the service layer: tail
 * latency (p50/p99/p99.9), queue-wait vs service split in the
 * src/prof taxonomy, Jain fairness across tenants, and per-class
 * violation counters against latency targets — plus the bookkeeping
 * invariants (wait + service == latency, phase split sums exactly to
 * service time) whose violation count CI gates to zero.
 */

#ifndef MESA_SERVICE_SLO_HH
#define MESA_SERVICE_SLO_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <unordered_map>

#include "prof/profile.hh"
#include "service/job.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/stats_registry.hh"

namespace mesa::service
{

/** SLO targets. */
struct SloParams
{
    /** Per-class end-to-end latency targets (device cycles); a job
     *  whose latency() exceeds its class target is a violation. */
    std::array<uint64_t, QosClassCount> latency_target_cycles{
        50'000,    // Interactive
        500'000,   // Standard
        5'000'000, // Batch
    };
};

/** Materialized per-class summary (cycles). */
struct ClassSlo
{
    uint64_t jobs = 0;
    uint64_t rejects = 0;
    uint64_t violations = 0;
    uint64_t target_cycles = 0;
    double p50 = 0.0, p99 = 0.0, p999 = 0.0; ///< Latency percentiles.
    double mean_latency = 0.0, max_latency = 0.0;
    double mean_wait = 0.0, wait_p99 = 0.0;
    double mean_service = 0.0;
};

/** Streaming accumulator fed one JobRecord / rejection at a time. */
class SloAccounting
{
  public:
    SloAccounting() : SloAccounting(SloParams{}) {}
    explicit SloAccounting(const SloParams &params);

    /** Fold in one completed job; checks the bookkeeping
     *  invariants and counts (never hides) violations. */
    void record(const JobRecord &rec);

    /** Fold in one admission refusal. */
    void recordReject(const OffloadJob &job, RejectReason reason);

    uint64_t jobs() const { return jobs_; }
    uint64_t violations() const;
    uint64_t invariantViolations() const
    {
        return invariant_violations_;
    }
    ClassSlo classSummary(QosClass qos) const;
    const prof::PhaseBreakdown &phaseTotals() const { return phases_; }
    size_t activeTenants() const { return tenants_.size(); }

    /**
     * Jain fairness index over per-tenant total service cycles,
     * among tenants that completed at least one job: 1 = every
     * tenant received equal fabric time, 1/n = one tenant got it
     * all.
     */
    double jainFairness() const;

    /** Export current totals into a stats registry under @p prefix
     *  (e.g. "service.") — scalars plus the per-class latency
     *  histograms. Call after the run completes. */
    void exportInto(StatsRegistry &registry,
                    const std::string &prefix) const;

    /** Emit the "slo" JSON object (deterministic field order). */
    void writeJson(JsonWriter &json) const;

    /** Prometheus text exposition (mesa_service_* families). */
    void writePrometheus(std::ostream &os) const;

  private:
    struct ClassAcc
    {
        Histogram latency, wait, service;
        uint64_t jobs = 0;
        uint64_t rejects = 0;
        uint64_t violations = 0;
    };

    struct TenantAcc
    {
        uint64_t jobs = 0;
        uint64_t service_cycles = 0;
        uint64_t latency_sum = 0;
        uint64_t violations = 0;
    };

    SloParams params_;
    std::array<ClassAcc, QosClassCount> classes_;
    std::unordered_map<int, TenantAcc> tenants_;
    prof::PhaseBreakdown phases_; ///< Service-time split, all jobs.
    uint64_t jobs_ = 0;
    uint64_t invariant_violations_ = 0;
};

} // namespace mesa::service

#endif // MESA_SERVICE_SLO_HH
