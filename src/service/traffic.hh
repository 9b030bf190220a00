/**
 * @file
 * Seeded deterministic traffic generator: hundreds-to-thousands of
 * tenant sessions emitting offload jobs under open-loop (Poisson,
 * bursty, diurnal) or closed-loop (think-time) arrival processes.
 *
 * Everything is derived from one SplitMix64 root seed through forked
 * substreams keyed by purpose and (tenant, seq) — never by anything
 * timing-dependent. Job *content* (kernel, dataset size, QoS) for
 * tenant t's k-th job is a pure function of (seed, t, k), so the same
 * seed replays the same workload regardless of backend count or
 * dispatch policy; only arrival times differ between profiles, and in
 * closed-loop mode arrival times are the one quantity allowed to
 * depend on completion feedback.
 */

#ifndef MESA_SERVICE_TRAFFIC_HH
#define MESA_SERVICE_TRAFFIC_HH

#include <optional>
#include <string>
#include <vector>

#include "service/job.hh"
#include "util/rng.hh"

namespace mesa::service
{

/** Arrival process shape. */
enum class TrafficProfile
{
    Poisson = 0, ///< Open loop: exponential inter-arrival per tenant.
    Bursty,      ///< Open loop: long idle gaps, then tight bursts.
    Diurnal,     ///< Open loop: sinusoidal rate (thinned Poisson).
    ClosedLoop,  ///< Next job arrives think-time after completion.
};

const char *trafficProfileName(TrafficProfile profile);

/** Parse a profile name ("poisson"); fatal on unknown. */
TrafficProfile trafficProfileByName(const std::string &name);

/** Workload-shape knobs. Times are device cycles. */
struct TrafficParams
{
    TrafficProfile profile = TrafficProfile::Poisson;
    uint64_t seed = 1;
    int tenants = 64;

    /** Open loop: generate arrivals in [0, horizon_cycles). */
    uint64_t horizon_cycles = 2'000'000;

    /** Mean inter-arrival gap per tenant (Poisson / burst spacing
     *  base / diurnal peak-rate gap). */
    double mean_interarrival = 50'000.0;

    // Closed loop.
    uint64_t jobs_per_tenant = 4;
    double think_cycles = 10'000.0; ///< Mean think time.

    /** Kernel roster to draw from; empty = every MESA-supported
     *  suite kernel. */
    std::vector<std::string> kernels;

    /** Dataset sizes: power-of-two iteration counts drawn uniformly
     *  from [min_iterations, max_iterations] (powers of two keep the
     *  per-backend kernel/config caches meaningful). */
    uint64_t min_iterations = 32;
    uint64_t max_iterations = 256;
};

/** Deterministic job source. Stateless after construction: every
 *  query is a pure function of (params, arguments). */
class TrafficGenerator
{
  public:
    explicit TrafficGenerator(const TrafficParams &params);

    const TrafficParams &params() const { return params_; }
    bool
    closedLoop() const
    {
        return params_.profile == TrafficProfile::ClosedLoop;
    }

    /** Resolved kernel roster (after the supported-only filter). */
    const std::vector<std::string> &kernels() const { return kernels_; }

    /** QoS class is a per-tenant (session) property. */
    QosClass tenantQos(int tenant) const;

    /** Tenant t's k-th job content — kernel, size, QoS — with
     *  arrival_cycle unset. Pure in (seed, t, k). */
    OffloadJob job(int tenant, uint64_t k) const;

    /** All open-loop arrivals, sorted by (cycle, tenant, seq).
     *  Fatal if called on a closed-loop generator. */
    std::vector<OffloadJob> openLoopArrivals() const;

    /**
     * Closed loop: tenant t's k-th job, arriving a think-time gap
     * after @p after (its previous completion; 0 for k == 0).
     * Returns nullopt once the tenant's session is done. The think
     * gap is drawn from a (tenant, k)-keyed substream, so it does not
     * perturb any other tenant's stream.
     */
    std::optional<OffloadJob>
    closedLoopJob(int tenant, uint64_t k, uint64_t after) const;

  private:
    /** Exponential gap with the given mean, ≥ 1 cycle. */
    static uint64_t expGap(SplitMix64 &rng, double mean);

    void appendTenantArrivals(int tenant,
                              std::vector<OffloadJob> &out) const;

    TrafficParams params_;
    std::vector<std::string> kernels_;
    SplitMix64 root_;
};

} // namespace mesa::service

#endif // MESA_SERVICE_TRAFFIC_HH
