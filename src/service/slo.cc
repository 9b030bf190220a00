#include "service/slo.hh"

#include <algorithm>
#include <ostream>

namespace mesa::service
{

namespace
{

/** Histogram resolution: buckets per class, the width derived from
 *  the class target so two targets of range are covered. */
constexpr size_t HistogramBuckets = 64;

} // namespace

const char *
qosName(QosClass qos)
{
    switch (qos) {
      case QosClass::Interactive:
        return "interactive";
      case QosClass::Standard:
        return "standard";
      case QosClass::Batch:
        return "batch";
    }
    return "?";
}

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::None:
        return "none";
      case RejectReason::QueueFull:
        return "queue_full";
      case RejectReason::TenantLimit:
        return "tenant_limit";
      case RejectReason::Draining:
        return "draining";
      case RejectReason::OutOfRegion:
        return "out_of_region";
      case RejectReason::FabricDrained:
        return "fabric_drained";
    }
    return "?";
}

SloAccounting::SloAccounting(const SloParams &params) : params_(params)
{
    for (int c = 0; c < QosClassCount; ++c) {
        // Width sized so the histogram spans two targets: violations
        // land in-range, only gross outliers hit overflow (where the
        // percentile falls back to the tracked true max).
        const double target =
            double(params_.latency_target_cycles[size_t(c)]);
        const double width =
            std::max(1.0, target / (double(HistogramBuckets) / 2.0));
        classes_[size_t(c)].latency = Histogram(HistogramBuckets, width);
        classes_[size_t(c)].wait = Histogram(HistogramBuckets, width);
        classes_[size_t(c)].service = Histogram(HistogramBuckets, width);
    }
}

void
SloAccounting::record(const JobRecord &rec)
{
    // Bookkeeping invariants — the accounting must tile exactly, or
    // the wait/service split is lying.
    if (rec.queue_wait_cycles + rec.service_cycles !=
        rec.completion_cycle - rec.job.arrival_cycle)
        ++invariant_violations_;
    if (rec.phases.total() != rec.service_cycles)
        ++invariant_violations_;
    if (rec.dispatch_cycle < rec.job.arrival_cycle ||
        rec.completion_cycle != rec.dispatch_cycle + rec.service_cycles)
        ++invariant_violations_;

    ClassAcc &cls = classes_[size_t(rec.job.qos)];
    ++cls.jobs;
    cls.latency.sample(double(rec.latency()));
    cls.wait.sample(double(rec.queue_wait_cycles));
    cls.service.sample(double(rec.service_cycles));
    const bool violated =
        rec.latency() >
        params_.latency_target_cycles[size_t(rec.job.qos)];
    if (violated)
        ++cls.violations;

    TenantAcc &tenant = tenants_[rec.job.tenant];
    ++tenant.jobs;
    tenant.service_cycles += rec.service_cycles;
    tenant.latency_sum += rec.latency();
    if (violated)
        ++tenant.violations;

    phases_.accumulate(rec.phases);
    ++jobs_;
}

void
SloAccounting::recordReject(const OffloadJob &job, RejectReason reason)
{
    if (reason == RejectReason::None)
        return;
    ++classes_[size_t(job.qos)].rejects;
}

uint64_t
SloAccounting::violations() const
{
    uint64_t sum = 0;
    for (const ClassAcc &cls : classes_)
        sum += cls.violations;
    return sum;
}

ClassSlo
SloAccounting::classSummary(QosClass qos) const
{
    const ClassAcc &cls = classes_[size_t(qos)];
    ClassSlo out;
    out.jobs = cls.jobs;
    out.rejects = cls.rejects;
    out.violations = cls.violations;
    out.target_cycles = params_.latency_target_cycles[size_t(qos)];
    out.p50 = cls.latency.p50();
    out.p99 = cls.latency.p99();
    out.p999 = cls.latency.p999();
    out.mean_latency = cls.latency.mean();
    out.max_latency = cls.latency.max();
    out.mean_wait = cls.wait.mean();
    out.wait_p99 = cls.wait.p99();
    out.mean_service = cls.service.mean();
    return out;
}

double
SloAccounting::jainFairness() const
{
    double sum = 0.0, sum_sq = 0.0;
    size_t n = 0;
    for (const auto &kv : tenants_) {
        if (kv.second.jobs == 0)
            continue;
        const double x = double(kv.second.service_cycles);
        sum += x;
        sum_sq += x * x;
        ++n;
    }
    if (n == 0 || sum_sq == 0.0)
        return 1.0;
    return (sum * sum) / (double(n) * sum_sq);
}

void
SloAccounting::exportInto(StatsRegistry &registry,
                          const std::string &prefix) const
{
    registry.scalar(prefix + "jobs", double(jobs_));
    registry.scalar(prefix + "violations", double(violations()));
    registry.scalar(prefix + "invariant_violations",
                    double(invariant_violations_));
    registry.scalar(prefix + "fairness_jain", jainFairness());
    registry.scalar(prefix + "tenants_active",
                    double(tenants_.size()));
    for (int c = 0; c < QosClassCount; ++c) {
        const ClassSlo s = classSummary(QosClass(c));
        const std::string base =
            prefix + "qos." + qosName(QosClass(c)) + ".";
        registry.scalar(base + "jobs", double(s.jobs));
        registry.scalar(base + "rejects", double(s.rejects));
        registry.scalar(base + "violations", double(s.violations));
        registry.scalar(base + "latency_p50", s.p50);
        registry.scalar(base + "latency_p99", s.p99);
        registry.scalar(base + "latency_p999", s.p999);
        registry.scalar(base + "wait_mean", s.mean_wait);
        registry.scalar(base + "service_mean", s.mean_service);
        registry.linkHistogram(base + "latency",
                               classes_[size_t(c)].latency);
    }
    for (size_t p = 0; p < prof::PhaseCount; ++p)
        registry.scalar(prefix + "phase." +
                            prof::phaseName(prof::Phase(p)),
                        double(phases_.cycles[p]));
}

void
SloAccounting::writeJson(JsonWriter &json) const
{
    json.beginObject();
    json.field("jobs", jobs_);
    json.field("violations", violations());
    json.field("invariant_violations", invariant_violations_);
    json.field("fairness_jain", jainFairness());
    json.field("tenants_active", uint64_t(tenants_.size()));
    json.key("classes");
    json.beginArray();
    for (int c = 0; c < QosClassCount; ++c) {
        const ClassSlo s = classSummary(QosClass(c));
        json.beginObject();
        json.field("qos", qosName(QosClass(c)));
        json.field("jobs", s.jobs);
        json.field("rejects", s.rejects);
        json.field("violations", s.violations);
        json.field("target_cycles", s.target_cycles);
        json.field("latency_p50", s.p50);
        json.field("latency_p99", s.p99);
        json.field("latency_p999", s.p999);
        json.field("latency_mean", s.mean_latency);
        json.field("latency_max", s.max_latency);
        json.field("wait_mean", s.mean_wait);
        json.field("wait_p99", s.wait_p99);
        json.field("service_mean", s.mean_service);
        json.end();
    }
    json.end();
    json.key("phases");
    json.beginObject();
    for (size_t p = 0; p < prof::PhaseCount; ++p)
        json.field(prof::phaseName(prof::Phase(p)),
                   phases_.cycles[p]);
    json.end();
    json.end();
}

void
SloAccounting::writePrometheus(std::ostream &os) const
{
    os << "# HELP mesa_service_jobs_total Completed offload jobs.\n"
       << "# TYPE mesa_service_jobs_total counter\n";
    for (int c = 0; c < QosClassCount; ++c)
        os << "mesa_service_jobs_total{qos=\""
           << qosName(QosClass(c)) << "\"} "
           << classes_[size_t(c)].jobs << "\n";

    os << "# HELP mesa_service_rejects_total Jobs refused by "
          "admission control.\n"
       << "# TYPE mesa_service_rejects_total counter\n";
    for (int c = 0; c < QosClassCount; ++c)
        os << "mesa_service_rejects_total{qos=\""
           << qosName(QosClass(c)) << "\"} "
           << classes_[size_t(c)].rejects << "\n";

    os << "# HELP mesa_service_slo_violations_total Jobs over their "
          "class latency target.\n"
       << "# TYPE mesa_service_slo_violations_total counter\n";
    for (int c = 0; c < QosClassCount; ++c)
        os << "mesa_service_slo_violations_total{qos=\""
           << qosName(QosClass(c)) << "\"} "
           << classes_[size_t(c)].violations << "\n";

    os << "# HELP mesa_service_latency_cycles End-to-end offload "
          "latency quantiles (device cycles).\n"
       << "# TYPE mesa_service_latency_cycles summary\n";
    for (int c = 0; c < QosClassCount; ++c) {
        const ClassSlo s = classSummary(QosClass(c));
        const char *name = qosName(QosClass(c));
        os << "mesa_service_latency_cycles{qos=\"" << name
           << "\",quantile=\"0.5\"} " << s.p50 << "\n"
           << "mesa_service_latency_cycles{qos=\"" << name
           << "\",quantile=\"0.99\"} " << s.p99 << "\n"
           << "mesa_service_latency_cycles{qos=\"" << name
           << "\",quantile=\"0.999\"} " << s.p999 << "\n";
    }

    os << "# HELP mesa_service_phase_cycles Service-time split by "
          "attribution phase.\n"
       << "# TYPE mesa_service_phase_cycles counter\n";
    for (size_t p = 0; p < prof::PhaseCount; ++p)
        os << "mesa_service_phase_cycles{phase=\""
           << prof::phaseName(prof::Phase(p)) << "\"} "
           << phases_.cycles[p] << "\n";

    os << "# HELP mesa_service_fairness_jain Jain fairness index "
          "over per-tenant fabric time.\n"
       << "# TYPE mesa_service_fairness_jain gauge\n"
       << "mesa_service_fairness_jain " << jainFairness() << "\n";
}

} // namespace mesa::service
