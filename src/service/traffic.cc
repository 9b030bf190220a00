#include "service/traffic.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "workloads/suite.hh"

namespace mesa::service
{

namespace
{

// Substream purposes. Each purpose forks its own lineage off the
// root so adding draws to one never shifts another.
constexpr uint64_t kQosStream = 0x716f73;     // "qos"
constexpr uint64_t kContentStream = 0x636f6e; // "con"
constexpr uint64_t kArrivalStream = 0x617272; // "arr"
constexpr uint64_t kThinkStream = 0x74686b;   // "thk"

// Bursty profile: jobs per burst, and the idle-gap mean in units of
// mean_interarrival.
constexpr int kBurstSize = 4;
constexpr double kBurstIdleFactor = 4.0;

// Diurnal profile: cycles per "day", and the trough rate over the
// peak rate.
constexpr double kDiurnalPeriod = 1'000'000.0;
constexpr double kDiurnalMinFrac = 0.2;

// Tenant QoS mix in tenants per mille; the remainder is Standard.
constexpr uint64_t kQosInteractivePerMille = 200;
constexpr uint64_t kQosBatchPerMille = 300;

/** Uniform double in [0, 1) from the top 53 bits. */
double
uniform01(SplitMix64 &rng)
{
    return double(rng.next() >> 11) * (1.0 / 9007199254740992.0);
}

} // namespace

const char *
trafficProfileName(TrafficProfile profile)
{
    switch (profile) {
      case TrafficProfile::Poisson:
        return "poisson";
      case TrafficProfile::Bursty:
        return "bursty";
      case TrafficProfile::Diurnal:
        return "diurnal";
      case TrafficProfile::ClosedLoop:
        return "closed-loop";
    }
    return "?";
}

TrafficProfile
trafficProfileByName(const std::string &name)
{
    if (name == "poisson")
        return TrafficProfile::Poisson;
    if (name == "bursty")
        return TrafficProfile::Bursty;
    if (name == "diurnal")
        return TrafficProfile::Diurnal;
    if (name == "closed-loop" || name == "closed")
        return TrafficProfile::ClosedLoop;
    fatal("unknown traffic profile '", name,
          "' (known: poisson bursty diurnal closed-loop)");
}

TrafficGenerator::TrafficGenerator(const TrafficParams &params)
    : params_(params), root_(params.seed)
{
    if (params_.tenants < 1)
        fatal("traffic: need at least one tenant");
    if (params_.min_iterations < 1 ||
        params_.max_iterations < params_.min_iterations)
        fatal("traffic: bad iteration range [", params_.min_iterations,
              ", ", params_.max_iterations, "]");
    if (params_.mean_interarrival < 1.0)
        fatal("traffic: mean_interarrival must be >= 1 cycle");

    if (params_.kernels.empty()) {
        // Default roster: every suite kernel whose hot loop qualifies
        // for MESA offload (probing a tiny instance is cheap — just
        // an assembly pass).
        for (const auto &entry : workloads::suiteRegistry())
            if (entry.make(8).mesa_supported)
                kernels_.push_back(entry.name);
    } else {
        // Validate names early (fatal on typos) instead of at first
        // dispatch, hours into a campaign.
        for (const auto &name : params_.kernels) {
            workloads::selectKernels({name});
            kernels_.push_back(name);
        }
    }
    if (kernels_.empty())
        fatal("traffic: empty kernel roster");
}

uint64_t
TrafficGenerator::expGap(SplitMix64 &rng, double mean)
{
    const double u = uniform01(rng);
    const double gap = -std::log1p(-u) * mean;
    if (gap < 1.0)
        return 1;
    return uint64_t(std::llround(gap));
}

QosClass
TrafficGenerator::tenantQos(int tenant) const
{
    SplitMix64 rng = root_.fork(kQosStream).fork(uint64_t(tenant));
    const uint64_t u = rng.below(1000);
    if (u < kQosInteractivePerMille)
        return QosClass::Interactive;
    if (u < kQosInteractivePerMille + kQosBatchPerMille)
        return QosClass::Batch;
    return QosClass::Standard;
}

OffloadJob
TrafficGenerator::job(int tenant, uint64_t k) const
{
    SplitMix64 rng =
        root_.fork(kContentStream).fork(uint64_t(tenant)).fork(k);
    OffloadJob job;
    job.tenant = tenant;
    job.seq = k;
    job.qos = tenantQos(tenant);
    job.kernel = kernels_[rng.below(kernels_.size())];
    // Power-of-two size in [min_iterations, max_iterations].
    uint64_t lo_exp = 0;
    while ((uint64_t(1) << lo_exp) < params_.min_iterations)
        ++lo_exp;
    uint64_t hi_exp = lo_exp;
    while ((uint64_t(2) << hi_exp) <= params_.max_iterations)
        ++hi_exp;
    job.iterations = uint64_t(1) << rng.range(lo_exp, hi_exp);
    return job;
}

void
TrafficGenerator::appendTenantArrivals(int tenant,
                                       std::vector<OffloadJob> &out) const
{
    SplitMix64 rng =
        root_.fork(kArrivalStream).fork(uint64_t(tenant));
    const double mean = params_.mean_interarrival;
    uint64_t now = 0;
    uint64_t seq = 0;
    const auto emit = [&](uint64_t cycle) {
        OffloadJob j = job(tenant, seq++);
        j.arrival_cycle = cycle;
        out.push_back(std::move(j));
    };

    switch (params_.profile) {
      case TrafficProfile::Poisson:
        for (now = expGap(rng, mean); now < params_.horizon_cycles;
             now += expGap(rng, mean))
            emit(now);
        break;

      case TrafficProfile::Bursty:
        // Long exponential idle gaps separated by tight bursts whose
        // spacing is a tenth of the base mean.
        for (;;) {
            now += expGap(rng, mean * kBurstIdleFactor);
            if (now >= params_.horizon_cycles)
                break;
            for (int b = 0;
                 b < kBurstSize && now < params_.horizon_cycles;
                 ++b) {
                emit(now);
                now += expGap(rng, mean / 10.0);
            }
        }
        break;

      case TrafficProfile::Diurnal: {
        // Thinned Poisson: candidates at the peak rate (gap = mean),
        // accepted with probability rate(t)/peak where rate follows a
        // raised cosine between min_frac and 1.
        const double two_pi = 6.283185307179586;
        for (now = expGap(rng, mean); now < params_.horizon_cycles;
             now += expGap(rng, mean)) {
            const double phase =
                two_pi * double(now) / kDiurnalPeriod;
            const double frac =
                kDiurnalMinFrac +
                (1.0 - kDiurnalMinFrac) * 0.5 *
                    (1.0 - std::cos(phase));
            if (uniform01(rng) < frac)
                emit(now);
        }
        break;
      }

      case TrafficProfile::ClosedLoop:
        fatal("traffic: closed-loop has no open-loop arrival list");
    }
}

std::vector<OffloadJob>
TrafficGenerator::openLoopArrivals() const
{
    std::vector<OffloadJob> out;
    for (int t = 0; t < params_.tenants; ++t)
        appendTenantArrivals(t, out);
    std::sort(out.begin(), out.end(),
              [](const OffloadJob &a, const OffloadJob &b) {
                  if (a.arrival_cycle != b.arrival_cycle)
                      return a.arrival_cycle < b.arrival_cycle;
                  if (a.tenant != b.tenant)
                      return a.tenant < b.tenant;
                  return a.seq < b.seq;
              });
    return out;
}

std::optional<OffloadJob>
TrafficGenerator::closedLoopJob(int tenant, uint64_t k,
                                uint64_t after) const
{
    if (!closedLoop())
        fatal("traffic: closedLoopJob on an open-loop generator");
    if (k >= params_.jobs_per_tenant)
        return std::nullopt;
    SplitMix64 rng =
        root_.fork(kThinkStream).fork(uint64_t(tenant)).fork(k);
    OffloadJob j = job(tenant, k);
    j.arrival_cycle = after + expGap(rng, params_.think_cycles);
    return j;
}

} // namespace mesa::service
