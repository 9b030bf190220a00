#include "sched/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "mesa/translate.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace mesa::sched
{

using accel::AccelRunResult;

namespace
{

/** Iterations a tenant must still owe before an elastic migration is
 *  worth its translation and streaming cost. */
constexpr uint64_t ElasticMinRemaining = 256;

} // namespace

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::RoundRobin:
        return "round-robin";
      case Policy::Priority:
        return "priority";
      case Policy::ShortestRemaining:
        return "shortest-remaining";
    }
    return "?";
}

std::optional<Policy>
policyByName(const std::string &name)
{
    if (name == "round-robin" || name == "rr")
        return Policy::RoundRobin;
    if (name == "priority" || name == "prio")
        return Policy::Priority;
    if (name == "shortest-remaining" || name == "srj" || name == "sjf")
        return Policy::ShortestRemaining;
    return std::nullopt;
}

double
ScheduleResult::fairnessJain() const
{
    double sum = 0.0, sq = 0.0;
    size_t n = 0;
    for (const auto &t : tenants) {
        const double x = double(t.run_cycles);
        sum += x;
        sq += x * x;
        ++n;
    }
    if (n == 0 || sq == 0.0)
        return 1.0;
    return (sum * sum) / (double(n) * sq);
}

void
ScheduleResult::registerInto(StatsRegistry &registry,
                             const std::string &prefix) const
{
    auto set = [&](const std::string &key, double v) {
        registry.scalar(prefix + key, v);
    };
    set("ways", double(ways));
    set("makespan_cycles", double(makespan_cycles));
    set("busy_cycles", double(busy_cycles));
    set("occupancy", occupancy);
    set("switches", double(total_switches));
    set("switch_cycles", double(total_switch_cycles));
    set("iterations", double(total_iterations));
    set("dram_accesses", double(dram_accesses));
    set("throughput_iter_per_kcycle", throughputIterPerKcycle());
    set("fairness_jain", fairnessJain());
    set("tenant_count", double(tenants.size()));
    set("verify.configs_checked", double(verify_checked));
    set("verify.rejects", double(verify_rejects));
    set("degraded_ways", double(degraded_ways));
    set("migrations", double(migrations));
    set("migration_warm", double(migration_warm));
    set("migration_translate_cycles",
        double(migration_translate_cycles));
    set("migration_stream_cycles", double(migration_stream_cycles));
    for (const auto &t : tenants) {
        // Relative to @p prefix: set() prepends it.
        const std::string p =
            "tenant" + std::to_string(t.tenant) + ".";
        set(p + "priority", double(t.priority));
        set(p + "wait_cycles", double(t.wait_cycles));
        set(p + "run_cycles", double(t.run_cycles));
        set(p + "switch_cycles", double(t.switch_cycles));
        set(p + "switches", double(t.switches));
        set(p + "slices", double(t.slices));
        set(p + "iterations", double(t.iterations));
        set(p + "first_run_cycle", double(t.first_run_cycle));
        set(p + "turnaround_cycles", double(t.turnaroundCycles()));
        set(p + "completed", t.completed ? 1.0 : 0.0);
    }
}

MultiTenantScheduler::MultiTenantScheduler(const SchedParams &params,
                                           mem::MainMemory &memory)
    : params_(params), memory_(memory),
      geometry_(planPartitions(params.mesa.accel, params.spatial_ways)),
      part_params_(params.mesa.accel.subArray(0, geometry_.front().rows))
{
    part_ic_ = std::make_unique<ic::AccelNocInterconnect>(
        part_params_.rows, part_params_.cols,
        part_params_.noc_slice_width);
    config_block_ = std::make_unique<core::ConfigBlock>(part_params_);

    partitions_.reserve(geometry_.size());
    for (size_t k = 0; k < geometry_.size(); ++k) {
        Partition p;
        p.geometry = geometry_[k];
        p.accel = std::make_unique<accel::Accelerator>(
            params_.mesa.accel.subArray(geometry_[k].origin_row,
                                        geometry_[k].rows),
            memory_, params_.mesa.accel_mem);
        p.accel->setTraceTrack("sched.p" + std::to_string(k) +
                               ".accel");
        partitions_.push_back(std::move(p));
    }
}

void
MultiTenantScheduler::quarantinePes(const std::vector<ic::Coord> &pes)
{
    for (auto &p : partitions_) {
        for (const ic::Coord pe : pes) {
            if (pe.r >= p.geometry.origin_row &&
                pe.r < p.geometry.origin_row + p.geometry.rows) {
                p.degraded = true;
                break;
            }
        }
    }
}

int
MultiTenantScheduler::healthyWays() const
{
    int n = 0;
    for (const auto &p : partitions_)
        n += p.degraded ? 0 : 1;
    return n;
}

int
MultiTenantScheduler::submit(
    const std::vector<riscv::Instruction> &body,
    riscv::ArchState &state, bool parallel_hint,
    uint64_t max_iterations, int priority)
{
    if (body.empty())
        return -1;
    if (healthyWays() == 0)
        return -1;

    // A partition runs its tenants purely spatially and fault-free
    // (degraded ways are skipped, never mapped around).
    auto tr = core::translate(body, part_params_, *part_ic_,
                              params_.mesa.translatePolicy(parallel_hint));
    if (!tr)
        return -1;
    tr->options.tile_factor = tr->max_tiles;

    const uint32_t region_start = body.front().pc;
    const uint32_t region_end = body.back().pc + 4;
    Tenant t;
    t.config = tr->lower(*config_block_, region_start, region_end);

    if (params_.mesa.verify_before_offload) {
        // Legality check against the partition geometry before the
        // context can ever land on a sub-array.
        ++verify_checked_;
        const verify::Report report = core::verifyTranslation(
            *tr, t.config, part_params_, *part_ic_);
        if (!report.clean()) {
            ++verify_rejects_;
            logDebug("sched", "verify gate refused region 0x", std::hex,
                     region_start, std::dec, ": ", report.summary());
            return -1;
        }
    }
    t.state = &state;
    t.remaining = max_iterations;
    t.stream_cycles = config_block_->configCycles(t.config);
    t.encode_cycles = tr->encode_cycles;
    t.mapping_cycles = tr->map.mapping_cycles;
    t.parallel_hint = parallel_hint;
    t.body = body;

    uint64_t now = partitions_.front().clock;
    for (const auto &p : partitions_)
        now = std::min(now, p.clock);

    const int id = int(tenants_.size());
    t.stats.tenant = id;
    t.stats.priority = priority;
    t.stats.region_start = region_start;
    t.stats.submit_cycle = now;
    t.runnable_at = now;
    t.busy_until = now;
    tenants_.push_back(std::move(t));
    return id;
}

bool
MultiTenantScheduler::anyPending() const
{
    for (const auto &t : tenants_)
        if (!t.done)
            return true;
    return false;
}

int
MultiTenantScheduler::pickNext(uint64_t now)
{
    const size_t n = tenants_.size();
    auto runnable = [&](size_t i) {
        return !tenants_[i].done && tenants_[i].busy_until <= now;
    };

    switch (params_.policy) {
      case Policy::RoundRobin:
        for (size_t k = 0; k < n; ++k) {
            const size_t i = (rr_next_ + k) % n;
            if (runnable(i)) {
                rr_next_ = (i + 1) % n;
                return int(i);
            }
        }
        return -1;

      case Policy::Priority: {
        int best = -1;
        for (size_t i = 0; i < n; ++i) {
            if (!runnable(i))
                continue;
            if (best < 0 || tenants_[i].stats.priority >
                                tenants_[size_t(best)].stats.priority)
                best = int(i);
        }
        return best;
      }

      case Policy::ShortestRemaining: {
        int best = -1;
        for (size_t i = 0; i < n; ++i) {
            if (!runnable(i))
                continue;
            if (best < 0 || tenants_[i].remaining <
                                tenants_[size_t(best)].remaining)
                best = int(i);
        }
        return best;
      }
    }
    return -1;
}

bool
MultiTenantScheduler::soloRunnable(int t, uint64_t now) const
{
    for (size_t j = 0; j < tenants_.size(); ++j) {
        if (int(j) == t || tenants_[j].done)
            continue;
        if (tenants_[j].busy_until <= now)
            return false;
    }
    return true;
}

bool
MultiTenantScheduler::tryElasticSlice(int t, size_t pk, uint64_t now,
                                      uint64_t batch_start,
                                      uint64_t trace_t0,
                                      ScheduleResult &result,
                                      uint64_t &batch_end)
{
    Tenant &T = tenants_[size_t(t)];
    if (T.remaining < ElasticMinRemaining)
        return false;
    if (!soloRunnable(t, now))
        return false;

    // Merged band: the maximal contiguous run of healthy ways, all
    // free at @p now, containing the arbitrating way.
    auto free_now = [&](size_t k) {
        return !partitions_[k].degraded && partitions_[k].clock <= now;
    };
    size_t lo = pk, hi = pk;
    while (lo > 0 && free_now(lo - 1))
        --lo;
    while (hi + 1 < partitions_.size() && free_now(hi + 1))
        ++hi;
    const int m = int(hi - lo + 1);
    if (m < 2)
        return false;

    const int origin = geometry_[lo].origin_row;
    int rows = 0;
    for (size_t k = lo; k <= hi; ++k)
        rows += geometry_[k].rows;

    MergedBand &mb = merged_[{int(lo), m}];
    if (!mb.accel) {
        mb.accel = std::make_unique<accel::Accelerator>(
            params_.mesa.accel.subArray(origin, rows), memory_,
            params_.mesa.accel_mem);
        mb.accel->setTraceTrack("sched.m" + std::to_string(lo) + "x" +
                                std::to_string(m) + ".accel");
    }

    // Per-geometry plan: re-translate the first time this tenant
    // lands on a band this tall (tiling can now spread across the
    // merged rows), reuse it warm afterwards. The band is taller than
    // the tenant's way, so a fresh plan is always a cold one.
    uint64_t switch_cost = 0;
    bool warm = true;
    auto it = T.geo_plans.find(rows);
    if (it == T.geo_plans.end()) {
        // A live migration places every node.
        core::TranslatePolicy policy =
            params_.mesa.translatePolicy(T.parallel_hint);
        policy.max_unmapped_frac = 0.0;
        auto plan = migrate::planMigration(T.body, T.config,
                                           mb.accel->params(), policy);
        if (!plan)
            return false;
        warm = false;
        const uint64_t translate =
            plan->cost.encode_cycles + plan->cost.mapping_cycles;
        switch_cost += translate;
        migration_translate_cycles_ += translate;
        it = T.geo_plans.emplace(rows, std::move(*plan)).first;
    }
    const migrate::MigrationPlan &plan = it->second;

    T.stats.wait_cycles += now - std::min(now, T.runnable_at);
    if (!T.started) {
        T.started = true;
        T.stats.first_run_cycle = now;
    }

    // The migration itself: register-file hand-off at the round
    // boundary plus the bitstream stream into the merged plane.
    const bool switched = mb.resident != t;
    if (switched) {
        const uint64_t stream = params_.mesa.shadow_config
                                    ? 1
                                    : plan.cost.config_cycles;
        switch_cost += stream + plan.cost.checkpoint_cycles;
        mb.accel->configure(plan.config);
        mb.resident = t;
        ++migrations_;
        if (warm)
            ++migration_warm_;
        migration_stream_cycles_ += stream;
        ++T.stats.switches;
        T.stats.switch_cycles += switch_cost;
        ++result.total_switches;
        result.total_switch_cycles += switch_cost;
    }
    // The merge clobbers every constituent plane, and overlapping
    // merged bands share rows with this one.
    for (auto &[key, band] : merged_) {
        if (&band != &mb && key.first <= int(hi) &&
            key.first + key.second > int(lo))
            band.resident = -1;
    }

    bool unchallenged = true;
    for (size_t j = 0; j < tenants_.size(); ++j)
        if (int(j) != t && !tenants_[j].done)
            unchallenged = false;
    const uint64_t slice =
        unchallenged || params_.epoch_iterations == 0
            ? T.remaining
            : std::min(T.remaining, params_.epoch_iterations);

    const uint64_t run_start = now + switch_cost;
    Tracer &tracer = Tracer::global();
    if (Tracer::active())
        tracer.setBase(trace_t0 + (run_start - batch_start));
    AccelRunResult res = mb.accel->run(*T.state, slice);

    T.stats.accel.accumulate(res);
    T.stats.run_cycles += res.cycles;
    T.stats.iterations += res.iterations;
    ++T.stats.slices;
    T.remaining -= std::min(T.remaining, res.iterations);

    const uint64_t end = run_start + res.cycles;
    for (size_t k = lo; k <= hi; ++k) {
        partitions_[k].clock = end;
        partitions_[k].busy += switch_cost + res.cycles;
        partitions_[k].resident = -1;
    }
    result.busy_cycles += uint64_t(m) * (switch_cost + res.cycles);
    result.total_iterations += res.iterations;
    T.busy_until = end;
    T.runnable_at = end;
    batch_end = std::max(batch_end, end);

    if (res.completed || T.remaining == 0 || res.iterations == 0) {
        T.done = true;
        T.stats.completed = res.completed;
        T.stats.finish_cycle = end;
    }
    result.timeline.push_back({int(lo), t, now,
                               switch_cost + res.cycles,
                               res.iterations, switched});

    if (Tracer::active()) {
        const std::string ptrack = "sched.m" + std::to_string(lo) +
                                   "x" + std::to_string(m);
        const uint64_t tstart = trace_t0 + (now - batch_start);
        if (switched)
            tracer.span(ptrack, "migrate-in", tstart, switch_cost,
                        {{"tenant", t}, {"warm", warm ? 1 : 0}});
        tracer.span(ptrack, "tenant" + std::to_string(t),
                    tstart + switch_cost, res.cycles,
                    {{"iterations", res.iterations}, {"ways", m}});
        tracer.span("sched.tenant" + std::to_string(t), "run",
                    tstart + switch_cost, res.cycles,
                    {{"merged_ways", m},
                     {"iterations", res.iterations}});
    }
    return true;
}

ScheduleResult
MultiTenantScheduler::runAll()
{
    migrations_ = 0;
    migration_warm_ = 0;
    migration_translate_cycles_ = 0;
    migration_stream_cycles_ = 0;

    ScheduleResult result;
    result.ways = ways();
    result.verify_checked = verify_checked_;
    result.verify_rejects = verify_rejects_;
    result.degraded_ways = uint64_t(ways() - healthyWays());
    if (!anyPending()) {
        for (const auto &t : tenants_)
            result.tenants.push_back(t.stats);
        return result;
    }

    Tracer &tracer = Tracer::global();
    const uint64_t trace_entry_base =
        Tracer::active() ? tracer.base() : 0;
    const uint64_t trace_t0 = Tracer::active() ? tracer.now() : 0;

    uint64_t batch_start = partitions_.front().clock;
    for (const auto &p : partitions_)
        batch_start = std::min(batch_start, p.clock);
    uint64_t batch_end = batch_start;
    const auto dram_total = [&] {
        uint64_t total = 0;
        for (const auto &p : partitions_)
            total += p.accel->hierarchy().dramAccesses();
        for (const auto &[key, band] : merged_)
            if (band.accel)
                total += band.accel->hierarchy().dramAccesses();
        return total;
    };
    const uint64_t dram_before = dram_total();

    while (anyPending()) {
        // The healthy partition that frees up first arbitrates next.
        size_t pk = partitions_.size();
        for (size_t k = 0; k < partitions_.size(); ++k) {
            if (partitions_[k].degraded)
                continue;
            if (pk == partitions_.size() ||
                partitions_[k].clock < partitions_[pk].clock)
                pk = k;
        }
        if (pk == partitions_.size()) {
            // Every way is degraded: pending tenants stay incomplete
            // and the callers fall back to CPU execution.
            break;
        }
        Partition *p = &partitions_[pk];

        const int t = pickNext(p->clock);
        if (t < 0) {
            // Every pending tenant is mid-slice on another way:
            // idle this partition to the earliest release.
            uint64_t next = ~uint64_t(0);
            for (const auto &tn : tenants_)
                if (!tn.done)
                    next = std::min(next, tn.busy_until);
            p->clock = std::max(p->clock, next);
            continue;
        }
        Tenant &T = tenants_[size_t(t)];

        // Elastic repartitioning: a solo tenant with enough work left
        // is live-migrated onto the merged band of idle healthy ways.
        if (params_.elastic &&
            tryElasticSlice(t, pk, p->clock, batch_start, trace_t0,
                            result, batch_end))
            continue;

        // Residency affinity: if the picked tenant's config is still
        // installed on another way that is free at the same instant,
        // run there and skip the reconfiguration stream.
        if (partitions_[pk].resident != t) {
            for (size_t k = 0; k < partitions_.size(); ++k) {
                if (!partitions_[k].degraded &&
                    partitions_[k].resident == t &&
                    partitions_[k].clock <= p->clock) {
                    pk = k;
                    p = &partitions_[pk];
                    break;
                }
            }
        }

        const uint64_t start = p->clock;
        T.stats.wait_cycles += start - std::min(start, T.runnable_at);
        if (!T.started) {
            T.started = true;
            T.stats.first_run_cycle = start;
        }

        // Context switch: stream the tenant's saved configuration
        // into this partition's plane (or swap the shadow plane).
        uint64_t switch_cost = 0;
        const bool switched = p->resident != t;
        if (switched) {
            switch_cost =
                params_.mesa.shadow_config ? 1 : T.stream_cycles;
            p->accel->configure(T.config);
            p->resident = t;
            ++T.stats.switches;
            T.stats.switch_cycles += switch_cost;
            ++result.total_switches;
            result.total_switch_cycles += switch_cost;
        }
        const uint64_t run_start = start + switch_cost;

        // An unchallenged pick can never be preempted at an epoch
        // boundary (priority is static, shortest-remaining only gets
        // shorter, round-robin with one tenant has nobody to rotate
        // to), so it runs to completion instead of paying the
        // pipeline refill at every slice.
        bool unchallenged = true;
        for (size_t j = 0; j < tenants_.size(); ++j) {
            if (int(j) == t || tenants_[j].done)
                continue;
            const Tenant &J = tenants_[j];
            switch (params_.policy) {
              case Policy::RoundRobin:
                unchallenged = false;
                break;
              case Policy::Priority:
                if (J.stats.priority > T.stats.priority ||
                    (J.stats.priority == T.stats.priority &&
                     int(j) < t))
                    unchallenged = false;
                break;
              case Policy::ShortestRemaining:
                if (J.remaining < T.remaining ||
                    (J.remaining == T.remaining && int(j) < t))
                    unchallenged = false;
                break;
            }
            if (!unchallenged)
                break;
        }

        const uint64_t slice =
            unchallenged || params_.epoch_iterations == 0
                ? T.remaining
                : std::min(T.remaining, params_.epoch_iterations);

        // Anchor the accelerator's local timeline at the slice start.
        if (Tracer::active())
            tracer.setBase(trace_t0 + (run_start - batch_start));
        AccelRunResult res = p->accel->run(*T.state, slice);

        T.stats.accel.accumulate(res);
        T.stats.run_cycles += res.cycles;
        T.stats.iterations += res.iterations;
        ++T.stats.slices;
        T.remaining -= std::min(T.remaining, res.iterations);

        p->clock = run_start + res.cycles;
        p->busy += switch_cost + res.cycles;
        result.busy_cycles += switch_cost + res.cycles;
        result.total_iterations += res.iterations;
        T.busy_until = p->clock;
        T.runnable_at = p->clock;
        batch_end = std::max(batch_end, p->clock);

        if (res.completed || T.remaining == 0 ||
            res.iterations == 0) {
            T.done = true;
            T.stats.completed = res.completed;
            T.stats.finish_cycle = p->clock;
        }

        result.timeline.push_back({int(pk), t, start,
                                   switch_cost + res.cycles,
                                   res.iterations, switched});

        // This way's plane now holds the tenant's band config; any
        // merged band sharing its rows lost residency.
        for (auto &[key, band] : merged_)
            if (key.first <= int(pk) && key.first + key.second > int(pk))
                band.resident = -1;

        if (Tracer::active()) {
            const std::string ptrack =
                "sched.p" + std::to_string(pk);
            const uint64_t tstart = trace_t0 + (start - batch_start);
            if (switched)
                tracer.span(ptrack, "config-switch", tstart,
                            switch_cost,
                            {{"tenant", t},
                             {"stream_cycles", switch_cost}});
            tracer.span(ptrack, "tenant" + std::to_string(t),
                        tstart + switch_cost, res.cycles,
                        {{"iterations", res.iterations},
                         {"remaining", T.remaining}});
            tracer.span("sched.tenant" + std::to_string(t), "run",
                        tstart + switch_cost, res.cycles,
                        {{"partition", int(pk)},
                         {"iterations", res.iterations}});
        }
    }

    result.makespan_cycles = batch_end - batch_start;
    result.migrations = migrations_;
    result.migration_warm = migration_warm_;
    result.migration_translate_cycles = migration_translate_cycles_;
    result.migration_stream_cycles = migration_stream_cycles_;
    // Shared DRAM bandwidth floor: every partition's fills contend on
    // the same channels the full-array device would use.
    result.dram_accesses = dram_total() - dram_before;
    if (!params_.mesa.accel.ideal_memory && result.dram_accesses > 0) {
        const uint64_t floor = uint64_t(
            std::ceil(double(result.dram_accesses) /
                      params_.mesa.accel.dram_accesses_per_cycle));
        result.makespan_cycles =
            std::max(result.makespan_cycles, floor);
    }
    result.occupancy =
        result.makespan_cycles
            ? double(result.busy_cycles) /
                  (double(ways()) * double(result.makespan_cycles))
            : 0.0;
    for (const auto &t : tenants_)
        result.tenants.push_back(t.stats);

    if (Tracer::active())
        tracer.setBase(trace_entry_base + result.makespan_cycles);
    if (stats_)
        result.registerInto(*stats_);
    return result;
}

std::optional<core::OffloadStats>
MultiTenantScheduler::serve(const core::OffloadRequest &request)
{
    if (!request.state || request.body.empty())
        return std::nullopt;
    const int id =
        submit(request.body, *request.state, request.parallel_hint,
               request.max_iterations, request.priority);
    if (id < 0)
        return std::nullopt;
    runAll();

    const Tenant &T = tenants_[size_t(id)];
    if (!T.done) {
        // The batch drained without serving this tenant (every way
        // degraded mid-batch): report failure so the controller's CPU
        // fallback takes over.
        return std::nullopt;
    }
    core::OffloadStats os;
    os.region_start = request.body.front().pc;
    os.region_end = request.body.back().pc + 4;
    os.encode_cycles = T.encode_cycles;
    os.mapping_cycles = T.mapping_cycles;
    os.config_cycles = T.stream_cycles;
    os.tile_factor = T.config.tileCount();
    os.pipelined = T.config.pipelined;
    os.model_latency = T.config.model_latency;
    os.sched_wait_cycles = T.stats.wait_cycles;
    os.sched_switches = T.stats.switches;
    os.accel_cycles = T.stats.run_cycles;
    os.accel_iterations = T.stats.iterations;
    os.accel = T.stats.accel;
    return os;
}

} // namespace mesa::sched
