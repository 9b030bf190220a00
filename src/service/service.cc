#include "service/service.hh"

#include <algorithm>
#include <map>
#include <queue>

#include "absint/certificate.hh"
#include "cpu/system.hh"
#include "dfg/ldfg.hh"
#include "riscv/emulator.hh"
#include "util/logging.hh"
#include "workloads/suite.hh"

namespace mesa::service
{

namespace
{

/** FNV-1a over the kernel name: the affinity shard key. */
size_t
kernelShard(const std::string &kernel, size_t backends)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : kernel) {
        h ^= uint64_t(uint8_t(c));
        h *= 0x100000001b3ull;
    }
    return size_t(h % backends);
}

/** Pending completion: (cycle, record index), min-heap order. */
struct Completion
{
    uint64_t cycle;
    uint64_t record;
    bool
    operator>(const Completion &other) const
    {
        if (cycle != other.cycle)
            return cycle > other.cycle;
        return record > other.record;
    }
};

/** Closed-loop arrival order: (cycle, tenant, seq), min-heap. */
struct ArrivalLater
{
    bool
    operator()(const OffloadJob &a, const OffloadJob &b) const
    {
        if (a.arrival_cycle != b.arrival_cycle)
            return a.arrival_cycle > b.arrival_cycle;
        if (a.tenant != b.tenant)
            return a.tenant > b.tenant;
        return a.seq > b.seq;
    }
};

constexpr uint64_t kNever = ~uint64_t(0);

/** Jobs gathered into one co-scheduled batch. */
constexpr size_t kMaxBatch = 4;

/** The whole event-loop state, so dispatch helpers stay readable. */
struct Engine
{
    const ServiceParams &params;
    TrafficGenerator gen;
    OffloadQueue queue;
    SloAccounting slo;
    std::vector<std::unique_ptr<ServiceBackend>> backends;
    std::vector<uint64_t> busy_until;

    // Open-loop arrivals (pre-generated) / closed-loop heap.
    std::vector<OffloadJob> arrivals;
    size_t next_arrival = 0;
    std::priority_queue<OffloadJob, std::vector<OffloadJob>,
                        ArrivalLater>
        upcoming;

    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions;

    ServiceResult result;
    uint64_t last_progress = 0;

    explicit Engine(const ServiceParams &p)
        : params(p), gen(p.traffic), queue(p.admission), slo(p.slo)
    {
        if (p.backends < 1)
            fatal("service: need at least one backend");
        for (int b = 0; b < p.backends; ++b)
            backends.push_back(
                std::make_unique<ServiceBackend>(b, p.backend));
        busy_until.assign(size_t(p.backends), 0);
        // Quarantine draining, last line of defense: when every
        // backend has degraded (quarantined regions / retired PEs),
        // new offers are shed as FabricDrained instead of being
        // admitted onto faulty fabric.
        queue.setFabricDrainedGate([this] {
            for (const auto &be : backends)
                if (!be->degraded())
                    return false;
            return true;
        });
        if (gen.closedLoop()) {
            for (int t = 0; t < p.traffic.tenants; ++t)
                if (auto job = gen.closedLoopJob(t, 0, 0))
                    upcoming.push(*job);
        } else {
            arrivals = gen.openLoopArrivals();
        }
    }

    uint64_t
    nextArrivalCycle() const
    {
        if (gen.closedLoop())
            return upcoming.empty() ? kNever
                                    : upcoming.top().arrival_cycle;
        return next_arrival < arrivals.size()
                   ? arrivals[next_arrival].arrival_cycle
                   : kNever;
    }

    void
    submit(const OffloadJob &job)
    {
        const RejectReason reason = queue.offer(job);
        if (reason != RejectReason::None)
            slo.recordReject(job, reason);
    }

    /** Admission closes; every not-yet-arrived job is shed (counted
     *  as a Draining rejection) so conservation stays exact. */
    void
    beginDrain()
    {
        queue.stopAdmission();
        result.stopped = true;
        if (gen.closedLoop()) {
            while (!upcoming.empty()) {
                submit(upcoming.top());
                upcoming.pop();
            }
        } else {
            for (; next_arrival < arrivals.size(); ++next_arrival)
                submit(arrivals[next_arrival]);
        }
    }

    void
    processCompletionsAt(uint64_t now)
    {
        while (!completions.empty() &&
               completions.top().cycle == now) {
            const JobRecord &rec =
                result.records[completions.top().record];
            completions.pop();
            queue.onComplete(rec.job);
            slo.record(rec);
            ++result.completed;
            // Closed loop: the tenant thinks, then submits its next
            // job — unless the session roster is exhausted or we are
            // draining.
            if (gen.closedLoop() && !queue.draining()) {
                if (auto job = gen.closedLoopJob(
                        rec.job.tenant, rec.job.seq + 1, now))
                    upcoming.push(*job);
            }
            if (params.progress && params.progress_every &&
                result.completed - last_progress >=
                    params.progress_every) {
                last_progress = result.completed;
                params.progress({result.completed, queue.submitted(),
                                 queue.rejectedTotal(), now});
            }
        }
    }

    void
    processArrivalsAt(uint64_t now)
    {
        if (gen.closedLoop()) {
            while (!upcoming.empty() &&
                   upcoming.top().arrival_cycle == now) {
                submit(upcoming.top());
                upcoming.pop();
            }
        } else {
            for (; next_arrival < arrivals.size() &&
                   arrivals[next_arrival].arrival_cycle == now;
                 ++next_arrival)
                submit(arrivals[next_arrival]);
        }
    }

    bool
    anyHealthy() const
    {
        for (const auto &be : backends)
            if (!be->degraded())
                return true;
        return false;
    }

    /** Can backend @p b take new work at @p now? Quarantine draining:
     *  a degraded backend takes none while any healthy one exists —
     *  queued jobs wait for (or steer to) healthy fabric instead of
     *  running degraded. With the whole pool degraded the gate lifts
     *  so already-admitted work still drains (the controller's own
     *  relocate/CPU-fallback path owns correctness there). */
    bool
    dispatchable(size_t b, uint64_t now) const
    {
        if (busy_until[b] > now)
            return false;
        return !backends[b]->degraded() || !anyHealthy();
    }

    /** Idle backend chosen for a plain dispatch: least lifetime busy
     *  cycles, ties to the lowest id. */
    int
    leastLoadedIdle(uint64_t now) const
    {
        int best = -1;
        for (size_t b = 0; b < backends.size(); ++b) {
            if (!dispatchable(b, now))
                continue;
            if (best < 0 || backends[b]->busyCycles() <
                                backends[size_t(best)]->busyCycles())
                best = int(b);
        }
        return best;
    }

    /** Pick (pending index, backend) per the dispatch policy, or
     *  pending index ~0 when nothing can be placed right now. */
    std::pair<size_t, int>
    pickDispatch(uint64_t now) const
    {
        const auto &pending = queue.pending();
        switch (params.policy) {
          case DispatchPolicy::LeastLoaded:
            return {0, leastLoadedIdle(now)};

          case DispatchPolicy::QosStrict: {
            size_t best = 0;
            for (size_t i = 1; i < pending.size(); ++i)
                if (int(pending[i].qos) < int(pending[best].qos))
                    best = i; // FIFO within class: first strict win.
            return {best, leastLoadedIdle(now)};
          }

          case DispatchPolicy::KernelAffinity: {
            // First FIFO job whose home shard is idle; if no home is
            // free, stay work-conserving: FIFO head to the
            // least-loaded idle backend.
            for (size_t i = 0; i < pending.size(); ++i) {
                const int home = int(
                    kernelShard(pending[i].kernel, backends.size()));
                if (dispatchable(size_t(home), now))
                    return {i, home};
            }
            return {0, leastLoadedIdle(now)};
          }
        }
        return {0, -1};
    }

    void
    dispatchAt(uint64_t now)
    {
        while (!queue.empty()) {
            const auto [index, backend] = pickDispatch(now);
            if (backend < 0)
                return; // Every backend is busy (or drain-gated).
            ServiceBackend &be = *backends[size_t(backend)];
            // Drain accounting: this dispatch passed over at least
            // one idle degraded backend for a healthy one.
            if (!be.degraded()) {
                for (size_t b = 0; b < backends.size(); ++b) {
                    if (busy_until[b] <= now &&
                        backends[b]->degraded()) {
                        ++result.drain_steers;
                        break;
                    }
                }
            }

            std::vector<OffloadJob> batch;
            batch.push_back(queue.take(index));
            if (be.schedWays() > 1) {
                // Gather same-kernel co-tenants, FIFO order.
                const auto &pending = queue.pending();
                std::vector<size_t> picks;
                for (size_t i = 0;
                     i < pending.size() &&
                     batch.size() + picks.size() < kMaxBatch;
                     ++i)
                    if (pending[i].kernel == batch.front().kernel)
                        picks.push_back(i);
                // Erase back-to-front so indices stay valid.
                for (auto it = picks.rbegin(); it != picks.rend();
                     ++it)
                    batch.push_back(queue.take(*it));
                std::sort(batch.begin() + 1, batch.end(),
                          [](const OffloadJob &a, const OffloadJob &b) {
                              return a.id < b.id;
                          });
            }

            std::vector<JobRecord> recs =
                batch.size() == 1
                    ? std::vector<JobRecord>{be.execute(batch.front(),
                                                        now)}
                    : be.executeBatch(batch, now);
            for (JobRecord &rec : recs) {
                busy_until[size_t(backend)] = std::max(
                    busy_until[size_t(backend)], rec.completion_cycle);
                result.horizon_cycles = std::max(
                    result.horizon_cycles, rec.completion_cycle);
                completions.push(
                    {rec.completion_cycle, result.records.size()});
                result.records.push_back(std::move(rec));
            }
        }
    }

    void
    run()
    {
        for (;;) {
            if (params.stop && !queue.draining() &&
                params.stop->load(std::memory_order_relaxed))
                beginDrain();

            const uint64_t arr = nextArrivalCycle();
            const uint64_t done = completions.empty()
                                      ? kNever
                                      : completions.top().cycle;
            if (arr == kNever && done == kNever)
                break;
            // Completions first on ties: they free backends (and, in
            // closed loop, schedule successors) before new arrivals
            // contend for admission.
            const uint64_t now = std::min(arr, done);
            if (done == now)
                processCompletionsAt(now);
            if (arr == now)
                processArrivalsAt(now);
            dispatchAt(now);
        }
        if (!queue.empty())
            fatal("service: event loop exited with ", queue.depth(),
                  " jobs stranded in the queue");
    }

    ServiceResult
    finish()
    {
        result.submitted = queue.submitted();
        result.accepted = queue.accepted();
        for (int r = 0; r < RejectReasonCount; ++r)
            result.rejects[size_t(r)] =
                queue.rejected(RejectReason(r));
        result.clock_ghz = params.backend.mesa.clock_ghz;

        // Global conservation: everything submitted was either
        // accepted or counted as shed, and everything accepted
        // completed (drained).
        result.invariant_violations = slo.invariantViolations();
        if (result.submitted !=
            result.accepted + result.rejectedTotal())
            ++result.invariant_violations;
        if (result.accepted != result.completed)
            ++result.invariant_violations;
        if (slo.jobs() != result.completed)
            ++result.invariant_violations;

        for (const auto &be : backends)
            result.backends.push_back(
                {be->id(), be->jobs(), be->batches(), be->busyCycles(),
                 be->cacheHits(), be->cacheMisses(),
                 be->cacheTagConflicts(), be->quarantinedRegions(),
                 be->retiredPes()});
        result.slo = std::move(slo);
        return std::move(result);
    }
};

} // namespace

std::function<bool(const OffloadJob &)>
makeCertificateGate(const accel::AccelParams &accel)
{
    // Shared across copies of the returned predicate: the verdict is
    // a pure function of (kernel, iterations), so every job of the
    // same shape reuses one analysis.
    auto verdicts = std::make_shared<
        std::map<std::pair<std::string, uint64_t>, bool>>();
    return [accel, verdicts](const OffloadJob &job) -> bool {
        const auto key = std::make_pair(job.kernel, job.iterations);
        if (auto it = verdicts->find(key); it != verdicts->end())
            return it->second;
        bool out_of_region = false;
        for (const auto &entry : workloads::suiteRegistry()) {
            if (job.kernel != entry.name)
                continue;
            const workloads::Kernel kernel = entry.make(job.iterations);
            const auto body = kernel.loopBody();
            if (!kernel.mesa_supported || body.empty())
                break;
            dfg::BuildError err = dfg::BuildError::None;
            const auto ldfg = dfg::Ldfg::build(
                body, accel.op_latency, 4 * accel.capacity(), &err);
            if (!ldfg)
                break; // Not encodable: the backend monitor's call.
            // Bind the proof to the job's own memory image at loop
            // entry, exactly as the backend would execute it.
            mem::MainMemory memory;
            kernel.plant(memory);
            riscv::Emulator emu(memory);
            if (!kernel.enterLoop(emu))
                break; // Loop entry unreachable: nothing to certify.
            const absint::BodyCertificate cert =
                absint::analyze(*ldfg);
            const absint::CertificateInstance inst =
                absint::instantiate(cert, emu.state(),
                                    absint::residentRegion(memory));
            out_of_region =
                inst.footprint == absint::RegionClass::ProvenOut;
            break;
        }
        (*verdicts)[key] = out_of_region;
        return out_of_region;
    };
}

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::LeastLoaded:
        return "least-loaded";
      case DispatchPolicy::KernelAffinity:
        return "kernel-affinity";
      case DispatchPolicy::QosStrict:
        return "qos-strict";
    }
    return "?";
}

DispatchPolicy
dispatchPolicyByName(const std::string &name)
{
    if (name == "least-loaded")
        return DispatchPolicy::LeastLoaded;
    if (name == "kernel-affinity" || name == "affinity")
        return DispatchPolicy::KernelAffinity;
    if (name == "qos-strict" || name == "qos")
        return DispatchPolicy::QosStrict;
    fatal("unknown dispatch policy '", name,
          "' (known: least-loaded kernel-affinity qos-strict)");
}

ServiceResult
runService(const ServiceParams &params)
{
    Engine engine(params);
    engine.run();
    return engine.finish();
}

void
writeServiceJson(const ServiceParams &params,
                 const ServiceResult &result, JsonWriter &json)
{
    json.beginObject();
    json.field("tool", "mesa_serve");
    json.field("profile",
               trafficProfileName(params.traffic.profile));
    json.field("policy", dispatchPolicyName(params.policy));
    json.field("seed", params.traffic.seed);
    json.field("backends", uint64_t(params.backends));
    json.field("sched_ways", uint64_t(params.backend.sched_ways));
    json.field("tenants", uint64_t(params.traffic.tenants));
    json.field("accel", params.backend.mesa.accel.name);

    json.key("admission");
    json.beginObject();
    json.field("max_depth", uint64_t(params.admission.max_depth));
    json.field("max_tenant_inflight",
               uint64_t(params.admission.max_tenant_inflight));
    json.end();

    json.field("submitted", result.submitted);
    json.field("accepted", result.accepted);
    json.field("completed", result.completed);
    json.field("stopped", result.stopped);
    json.key("rejects");
    json.beginObject();
    for (int r = 1; r < RejectReasonCount; ++r)
        json.field(rejectReasonName(RejectReason(r)),
                   result.rejects[size_t(r)]);
    json.end();

    json.field("horizon_cycles", result.horizon_cycles);
    json.field("offloads_per_second_sim",
               result.offloadsPerSecondSim());
    json.field("drain_steers", result.drain_steers);
    json.field("invariant_violations", result.invariant_violations);

    json.key("slo");
    result.slo.writeJson(json);

    json.key("backend_detail");
    json.beginArray();
    for (const BackendSummary &be : result.backends) {
        json.beginObject();
        json.field("id", uint64_t(be.id));
        json.field("jobs", be.jobs);
        json.field("batches", be.batches);
        json.field("busy_cycles", be.busy_cycles);
        json.field("config_cache_hits", be.cache_hits);
        json.field("config_cache_misses", be.cache_misses);
        json.field("config_cache_tag_conflicts",
                   be.cache_tag_conflicts);
        json.field("quarantined_regions", be.quarantined_regions);
        json.field("retired_pes", be.retired_pes);
        json.end();
    }
    json.end();
    json.end();
}

void
writeFabricHealthPrometheus(const ServiceResult &result,
                            std::ostream &os)
{
    os << "# HELP mesa_fault_quarantined_regions Loop regions "
          "currently quarantined on this backend.\n"
       << "# TYPE mesa_fault_quarantined_regions gauge\n";
    for (const BackendSummary &be : result.backends)
        os << "mesa_fault_quarantined_regions{backend=\"" << be.id
           << "\"} " << be.quarantined_regions << "\n";

    os << "# HELP mesa_fault_retired_pes PEs retired after BIST "
          "fault localization on this backend.\n"
       << "# TYPE mesa_fault_retired_pes gauge\n";
    for (const BackendSummary &be : result.backends)
        os << "mesa_fault_retired_pes{backend=\"" << be.id << "\"} "
           << be.retired_pes << "\n";

    os << "# HELP mesa_service_drain_steers_total Dispatches steered "
          "onto a healthy backend past an idle degraded one.\n"
       << "# TYPE mesa_service_drain_steers_total counter\n"
       << "mesa_service_drain_steers_total " << result.drain_steers
       << "\n";
}

std::string
closedLoopDigest(const ServiceResult &result)
{
    std::vector<const JobRecord *> sorted;
    sorted.reserve(result.records.size());
    for (const JobRecord &rec : result.records)
        sorted.push_back(&rec);
    std::sort(sorted.begin(), sorted.end(),
              [](const JobRecord *a, const JobRecord *b) {
                  if (a->job.tenant != b->job.tenant)
                      return a->job.tenant < b->job.tenant;
                  return a->job.seq < b->job.seq;
              });
    JsonWriter json;
    json.beginArray();
    for (const JobRecord *rec : sorted) {
        json.beginObject();
        json.field("tenant", uint64_t(rec->job.tenant));
        json.field("seq", rec->job.seq);
        json.field("kernel", rec->job.kernel);
        json.field("iterations", rec->job.iterations);
        json.field("qos", qosName(rec->job.qos));
        json.field("offloaded", rec->offloaded);
        json.field("state_digest", rec->state_digest);
        json.field("mem_digest", rec->mem_digest);
        json.end();
    }
    json.end();
    return json.str();
}

} // namespace mesa::service
