#include "mesa/controller.hh"

#include <algorithm>
#include <array>

#include "dfg/unroll.hh"
#include "fault/checkpoint.hh"
#include "mesa/translation_store.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace mesa::core
{

using accel::AccelRunResult;
using cpu::RegionMonitor;
using riscv::Instruction;
using riscv::TraceEntry;

/**
 * Every point event the controller counts or traces as an instant
 * (paper §4: offload, reject, reconfigure, fault, rollback, relocate).
 * Each has exactly one row in kEvents below; the config cache counts
 * its own hits and misses.
 */
enum class ControllerEvent : uint8_t
{
    // Offloads and their translation phases.
    Offload, Rejection, EncodeCycles, MappingCycles, ConfigCycles,
    ImapInstructions,
    // Reconfiguration and the iterative optimizer.
    Reconfig, ReconfigCycles, OptimizerAttempt, OptimizerRemap,
    // Device-loop epochs.
    Epoch, AccelCycles, AccelIterations,
    // Fallbacks, in FallbackReason order (None has no row).
    FallbackVerifyDirty, FallbackFaultDetected, FallbackWatchdog,
    FallbackStructural, FallbackQuarantined,
    // The verify-before-offload gate.
    VerifyChecked, VerifyViolations, VerifyFallback,
    // Persistent translation store, in PersistOutcome order (Disabled
    // has no row).
    PersistHit, PersistMiss, PersistCorrupt, PersistVersionSkew,
    PersistKeyMismatch, PersistStored, PersistStoreFailed,
    // Fault detection, recovery and quarantine.
    CrcFailure, WatchdogTrip, WatchdogRollback, CheckedRun,
    GoldenMismatch, Rollback, CpuReexec, SelfTest, PeQuarantine,
    RegionQuarantineEnter, RegionQuarantineExit,
    // Drain-and-relocate.
    Relocation, RelocationSuccess, RelocateTranslateCycles,
    RelocateStreamCycles,
    // Certificate gating.
    Certificate, Certified, SnapshotSkip, BudgetTightened, TripWatchdog,
    Count
};

namespace
{

using Event = ControllerEvent;

/** Step bound for the golden model's re-execution of one region. */
constexpr uint64_t GoldenSteps = 50'000'000;

/** Step bound for runTransparent (program entry to halt). */
constexpr uint64_t TransparentSteps = 200'000'000;

/**
 * The event catalog, indexed by event. A row with a stat path is a
 * counter, registered while its gate is open; a row with a track is a
 * trace instant, recorded whenever tracing is active. A counter and
 * an instant that fire under different conditions are two rows.
 */
constexpr auto kEvents = [] {
    using enum ControllerEvent;
    using enum StatGate;
    std::array<EventInfo, size_t(Count)> t{};
    auto row = [&t](Event e, EventInfo info) { t[size_t(e)] = info; };
    row(Offload, {"mesa.offloads", Always});
    row(Rejection, {"mesa.rejections", Always});
    row(EncodeCycles, {"mesa.phase.encode_cycles", Always});
    row(MappingCycles, {"mesa.phase.mapping_cycles", Always});
    row(ConfigCycles, {"mesa.phase.config_cycles", Always});
    row(ImapInstructions, {"mesa.imap.instructions", Always});
    row(Reconfig, {"mesa.reconfig.count", Always});
    row(ReconfigCycles, {"mesa.reconfig.cycles", Always});
    row(OptimizerAttempt, {"mesa.optimizer.attempts", Always});
    row(OptimizerRemap, {"mesa.optimizer.remaps", Always});
    row(Epoch, {"mesa.epochs", Always});
    row(AccelCycles, {"accel.cycles", Always});
    row(AccelIterations, {"accel.iterations", Always});
    // Structural and verify fallbacks happen in any mode.
    row(FallbackVerifyDirty, {"mesa.fallback.verify_dirty", Always});
    row(FallbackFaultDetected, {"mesa.fallback.fault_detected", Always});
    row(FallbackWatchdog, {"mesa.fallback.watchdog", Always});
    row(FallbackStructural, {"mesa.fallback.structural", Always});
    row(FallbackQuarantined, {"mesa.fallback.quarantined", Always});
    row(VerifyChecked, {"mesa.verify.configs_checked", Verify});
    row(VerifyViolations, {"mesa.verify.violations", Verify});
    row(VerifyFallback, {"mesa.verify.fallbacks", Verify});
    // Only with a cache directory, so runs without one keep their
    // stats output byte-identical to builds without the store.
    row(PersistHit, {"mesa.cache.persist_hits", Store});
    row(PersistMiss, {"mesa.cache.persist_misses", Store});
    row(PersistCorrupt, {"mesa.cache.persist_corrupt", Store});
    row(PersistVersionSkew, {"mesa.cache.persist_version_skew", Store});
    row(PersistKeyMismatch, {"mesa.cache.persist_key_mismatch", Store});
    row(PersistStored, {"mesa.cache.persist_stores", Store});
    row(PersistStoreFailed, {"mesa.cache.persist_store_failures", Store});
    row(CrcFailure,
        {"mesa.fault.crc_failures", Fault, "mesa.fault", "crc-mismatch"});
    row(WatchdogTrip, {"mesa.fault.watchdog_trips", Fault, "mesa.fault",
                       "watchdog-trip"});
    // A golden mismatch rolls back too, but only a watchdog trip
    // traces it.
    row(WatchdogRollback, {nullptr, Fault, "mesa.fault", "rollback"});
    row(CheckedRun, {"mesa.fault.checked_runs", Fault});
    row(GoldenMismatch, {"mesa.fault.mismatches", Fault, "mesa.fault",
                         "golden-mismatch"});
    row(Rollback, {"mesa.fault.rollbacks", Fault});
    row(CpuReexec, {"mesa.fault.cpu_reexec_instructions", Fault});
    row(SelfTest, {"mesa.fault.self_tests", Fault});
    row(PeQuarantine, {"mesa.fault.quarantined_pes", Fault, "mesa.fault",
                       "pe-quarantine"});
    row(RegionQuarantineEnter,
        {nullptr, Fault, "mesa.fault", "region-quarantine-enter"});
    row(RegionQuarantineExit,
        {nullptr, Fault, "mesa.fault", "region-quarantine-exit"});
    row(Relocation, {"mesa.migrate.relocations", FaultMigrate});
    row(RelocationSuccess,
        {"mesa.migrate.relocation_success", FaultMigrate});
    row(RelocateTranslateCycles,
        {"mesa.migrate.translate_cycles", FaultMigrate});
    row(RelocateStreamCycles,
        {"mesa.migrate.stream_cycles", FaultMigrate});
    // Every gated offload traces its certificate; only a proven-in
    // footprint counts as certified.
    row(Certificate, {nullptr, FaultCertify, "mesa.absint", "certificate"});
    row(Certified, {"mesa.absint.certified", FaultCertify});
    row(SnapshotSkip, {"mesa.absint.snapshot_skips", FaultCertify});
    row(BudgetTightened, {"mesa.absint.budget_tightened", FaultCertify});
    row(TripWatchdog, {"mesa.absint.trip_watchdogs", FaultCertify,
                       "mesa.absint", "trip-watchdog"});
    return t;
}();

static_assert(std::ranges::all_of(kEvents, [](const EventInfo &e) {
                  return e.stat || (e.track && e.instant);
              }),
              "every event needs a counter or an instant");

constexpr Event
fallbackEvent(FallbackReason reason)
{
    if (reason == FallbackReason::None)
        panic("FallbackReason::None has no event");
    return Event(size_t(Event::FallbackVerifyDirty) + size_t(reason) - 1);
}
static_assert(fallbackEvent(FallbackReason::Quarantined) ==
              Event::FallbackQuarantined);

constexpr Event
persistEvent(PersistOutcome outcome)
{
    if (outcome == PersistOutcome::Disabled)
        panic("PersistOutcome::Disabled has no event");
    return Event(size_t(Event::PersistHit) + size_t(outcome) - 1);
}
static_assert(persistEvent(PersistOutcome::StoreFailed) ==
              Event::PersistStoreFailed);

} // namespace

TranslatePolicy
MesaParams::translatePolicy(bool parallel_hint) const
{
    TranslatePolicy policy;
    policy.mapper = mapper;
    policy.allow_tiling = parallel_hint && enable_tiling;
    policy.max_unmapped_frac = max_unmapped_frac;
    policy.options.enable_forwarding = enable_forwarding;
    policy.options.enable_vectorization = enable_vectorization;
    policy.options.enable_prefetch = enable_prefetch;
    // Pipelining is safe for any loop: the dataflow engine enforces
    // loop-carried register dependences, so a serial reduction simply
    // pipelines around its recurrence.
    policy.options.pipelined = enable_pipelining;
    return policy;
}

void
TransparentRunResult::registerInto(StatsRegistry &registry,
                                   const std::string &prefix) const
{
    auto set = [&](const std::string &key, double v) {
        registry.scalar(prefix + key, v);
    };
    set("total_cycles", double(total_cycles));
    set("cpu.cycles", double(cpu_cycles));
    set("cpu.instructions", double(cpu_instructions));
    set("cpu.mispredicts", double(cpu.mispredicts));
    set("cpu.dram_accesses", double(cpu.dram_accesses));
    set("accel.cycles", double(accel_cycles));
    set("offloads", double(offloads.size()));
    set("rejections", double(rejections.size()));
    set("accel.iterations", double(acceleratedIterations()));
    for (size_t i = 0; i < offloads.size(); ++i) {
        const auto &o = offloads[i];
        const std::string p =
            prefix + "offload" + std::to_string(i) + ".";
        registry.scalar(p + "config_cycles",
                        double(o.totalConfigCycles()));
        registry.scalar(p + "encode_cycles", double(o.encode_cycles));
        registry.scalar(p + "mapping_cycles", double(o.mapping_cycles));
        registry.scalar(p + "stream_cycles", double(o.config_cycles));
        registry.scalar(p + "cache_hit", o.config_cache_hit ? 1.0 : 0.0);
        registry.scalar(p + "cpu_overlap_iterations",
                        double(o.cpu_overlap_iterations));
        registry.scalar(p + "reconfig_cycles",
                        double(o.reconfig_cycles));
        registry.scalar(p + "reconfigurations",
                        double(o.reconfigurations));
        registry.scalar(p + "sched_wait_cycles",
                        double(o.sched_wait_cycles));
        registry.scalar(p + "sched_switches",
                        double(o.sched_switches));
        registry.scalar(p + "tiles", double(o.tile_factor));
        registry.scalar(p + "pipelined", o.pipelined ? 1.0 : 0.0);
        registry.scalar(p + "unmapped", double(o.unmapped));
        registry.scalar(p + "iterations", double(o.accel_iterations));
        registry.scalar(p + "cycles", double(o.accel_cycles));
        registry.scalar(p + "loads", double(o.accel.loads));
        registry.scalar(p + "stores", double(o.accel.stores));
        registry.scalar(p + "forwards",
                        double(o.accel.store_load_forwards));
        registry.scalar(p + "invalidations",
                        double(o.accel.load_invalidations));
        registry.scalar(p + "noc_transfers",
                        double(o.accel.noc_transfers));
        registry.scalar(p + "dram_accesses",
                        double(o.accel.dram_accesses));
        registry.scalar(p + "disabled_ops",
                        double(o.accel.disabled_ops));
        registry.scalar(p + "pes_used", double(o.accel.pes_used));
        registry.scalar(p + "model_latency", o.model_latency);
        registry.scalar(p + "fallback", double(int(o.fallback)));
        registry.scalar(p + "cpu_reexec_instructions",
                        double(o.cpu_reexec_instructions));
        registry.scalar(p + "watchdog_tripped",
                        o.accel.watchdog_tripped ? 1.0 : 0.0);
        registry.scalar(p + "faults_fired",
                        double(o.accel.faults_fired));
    }
}

std::span<const EventInfo>
MesaController::eventCatalog()
{
    return kEvents;
}

bool
MesaController::gateOpen(StatGate gate) const
{
    const fault::FaultToleranceParams &fp = params_.fault;
    switch (gate) {
      case StatGate::Always: return true;
      case StatGate::Verify: return params_.verify_before_offload;
      case StatGate::Store: return TranslationStore::global().enabled();
      case StatGate::Fault: return fp.enabled;
      case StatGate::FaultMigrate:
        return fp.enabled && fp.migrate_on_fault;
      case StatGate::FaultCertify:
        return fp.enabled && fp.certificate_gating;
    }
    return false;
}

void
MesaController::emit(Event event, uint64_t n,
                     std::initializer_list<TraceArg> args)
{
    if (Counter *c = counters_[size_t(event)])
        *c += n;
    const EventInfo &info = kEvents[size_t(event)];
    if (info.instant && Tracer::active()) {
        Tracer &tracer = Tracer::global();
        tracer.instant(info.track, info.instant, tracer.now(), args);
    }
}

void
MesaController::attachStats(StatsRegistry *registry,
                            uint64_t snapshot_iterations)
{
    stats_ = registry;
    snapshot_iterations_ = snapshot_iterations;
    snapshot_accum_ = 0;
    counters_.assign(kEvents.size(), nullptr);
    epoch_cycles_ = nullptr;
    epoch_cycles_per_iter_ = nullptr;
    verify_rule_counters_.clear();
    if (!stats_)
        return;
    for (size_t e = 0; e < kEvents.size(); ++e)
        if (kEvents[e].stat && gateOpen(kEvents[e].gate))
            counters_[e] = &stats_->counter(kEvents[e].stat);
    config_cache_.registerStats(*stats_, "mesa.config_cache.");
    epoch_cycles_ = &stats_->histogram("mesa.epoch.cycles", 32, 256.0);
    epoch_cycles_per_iter_ =
        &stats_->average("mesa.epoch.cycles_per_iter");
    // Live gauges: current quarantine/retirement state (scalars,
    // overwritten in place at every transition).
    updateFaultGauges();
}

void
MesaController::attachProfile(prof::AccelProfile *profile)
{
    profile_ = profile;
    accel_.setProfile(profile);
}

Counter &
MesaController::verifyRuleCounter(const std::string &rule)
{
    auto it = verify_rule_counters_.find(rule);
    if (it == verify_rule_counters_.end()) {
        Counter &c = stats_->counter("mesa.verify.rule." + rule);
        it = verify_rule_counters_.emplace(rule, &c).first;
    }
    return *it->second;
}

bool
MesaController::verifyPrepared(const Prepared &prep)
{
    const verify::Report report = verifyTranslation(
        prep, prep.config, params_.accel, accel_.interconnect());

    const bool clean = report.clean();
    emit(Event::VerifyChecked);
    emit(Event::VerifyViolations, report.errorCount());
    if (!clean)
        emit(Event::VerifyFallback);
    if (stats_)
        for (const auto &[rule, count] : report.countsByRule())
            verifyRuleCounter(rule) += count;
    if (!clean)
        logDebug("controller", "verify gate rejected region 0x", std::hex,
                 prep.config.region_start, std::dec, ": ",
                 report.summary());
    return clean;
}

uint64_t
MesaController::tracePreparePhases(const Prepared &prep,
                                   const OffloadStats &os, uint64_t t0)
{
    emit(Event::EncodeCycles, os.encode_cycles);
    emit(Event::MappingCycles, os.mapping_cycles);
    emit(Event::ConfigCycles, os.config_cycles);
    emit(Event::ImapInstructions, prep.map.imap_trace.size());
    if (!Tracer::active())
        return t0 + os.totalConfigCycles();

    // The three spans' durations are exactly the OffloadStats phase
    // fields, so the mesa.ctrl track totals reconcile with the stats.
    Tracer &tracer = Tracer::global();
    uint64_t t = t0;
    if (os.encode_cycles > 0) {
        tracer.span("mesa.ctrl", "encode", t, os.encode_cycles,
                    {{"nodes", uint64_t(prep.ldfg.size())},
                     {"pc", uint64_t(os.region_start)}});
        t += os.encode_cycles;
    }
    if (os.mapping_cycles > 0) {
        tracer.span(
            "mesa.ctrl", "map", t, os.mapping_cycles,
            {{"instructions", uint64_t(prep.map.imap_trace.size())},
             {"unmapped", uint64_t(prep.map.unmapped.size())},
             {"model_latency", prep.map.model_latency}});
        emitImapTrace(tracer, "mesa.imap", prep.map.imap_trace, t);
        t += os.mapping_cycles;
    }
    if (os.config_cycles > 0) {
        tracer.span("mesa.ctrl", "config-stream", t, os.config_cycles,
                    {{"cache_hit", os.config_cache_hit ? 1 : 0},
                     {"tiles", prep.options.tile_factor}});
        t += os.config_cycles;
    }
    return t;
}

MesaController::MesaController(const MesaParams &params,
                               mem::MainMemory &memory)
    : params_(params), memory_(&memory),
      accel_(params.accel, memory, params.accel_mem),
      mapper_(accel_.params(), accel_.interconnect(), params.mapper),
      config_block_(accel_.params()), quarantine_(params.fault.quarantine)
{
    // C1's size bound is the accelerator's instruction capacity
    // (times the fold factor when time-multiplexing is enabled).
    const size_t effective =
        params_.accel.capacity() *
        (params_.enable_time_multiplexing
             ? size_t(std::max(1, params_.max_time_multiplex))
             : 1);
    params_.monitor.max_instructions =
        std::min(params_.monitor.max_instructions, effective);
    // Persistent translation-store key component; params_ is fixed
    // from here on, so the fingerprint is computed once.
    params_crc_ = paramsFingerprint(params_);
    counters_.assign(kEvents.size(), nullptr);
}

bool
MesaController::translateOnly(const std::vector<Instruction> &body,
                              bool parallel_hint)
{
    if (body.empty())
        return false;
    return prepare(body, parallel_hint, body.front().pc,
                   body.back().pc + 4)
        .has_value();
}

std::optional<MesaController::Prepared>
MesaController::prepare(const std::vector<Instruction> &body,
                        bool parallel_hint, uint32_t region_start,
                        uint32_t region_end)
{
    last_prepare_fallback_ = FallbackReason::Structural;
    const uint32_t region_tag = bodyCrc(body);

    // Persistent translation store (--cache-dir): a warm start skips
    // LDFG encode, mapping, and config generation entirely. The entry
    // is pure simulator-side memoization — the modeled phase cycles
    // travel inside it — so results are bit-identical either way.
    TranslationStore &tstore = TranslationStore::global();
    TranslationKey tkey;
    if (tstore.enabled()) {
        tkey = TranslationKey{region_start, region_end, region_tag,
                              params_crc_,
                              blockedPeDigest(faulty_pes_.coords()),
                              parallel_hint};
        Prepared warm;
        const PersistOutcome outcome = tstore.load(tkey, warm);
        emit(persistEvent(outcome));
        if (outcome == PersistOutcome::Hit) {
            // An entry stored without a certificate revives one here,
            // so a guarded offload never depends on the store's
            // history.
            certify(warm, region_start);
            // Replay the verify gate so mesa.verify.* counters (and a
            // potential veto) match a cold translation exactly.
            if (params_.verify_before_offload &&
                !verifyPrepared(warm)) {
                last_prepare_fallback_ = FallbackReason::VerifyDirty;
                return std::nullopt;
            }
            logDebug("controller", "persisted translation hit for region 0x",
                     std::hex, region_start, std::dec, " (", warm.ldfg.size(),
                     " nodes)");
            return warm;
        }
    }

    const size_t capacity = params_.accel.capacity();

    // Unrolling (extension): replicate small bodies so one pass
    // covers several original iterations; the CPU resumes at the
    // closing branch and runs the tail sequentially. Checked fault
    // mode disables it: the golden model re-executes the region to
    // its natural exit, which an unrolled pass (CPU tail pending,
    // resume_pc inside the region) does not reach.
    const bool checked_fault_mode =
        params_.fault.enabled && params_.fault.checked_mode;
    std::vector<Instruction> working = body;
    TranslatePolicy policy = params_.translatePolicy(parallel_hint);
    if (params_.enable_unrolling && !checked_fault_mode &&
        body.size() <= capacity) {
        for (int f = std::max(2, params_.unroll_factor); f >= 2;
             f /= 2) {
            // Unrolling competes with tiling for PEs: only replicate
            // bodies small enough that the grid keeps tiling headroom.
            if (body.size() * size_t(f) > capacity / 4)
                continue;
            if (auto unrolled = dfg::unrollBody(body, f)) {
                working = std::move(unrolled->body);
                policy.options.live_in_adjustments =
                    std::move(unrolled->live_in_adjustments);
                // Resume at the closing branch.
                policy.options.resume_pc = region_end - 4;
                break;
            }
        }
    }

    policy.blocked = faulty_pes_.coords();
    // Oversized bodies fold onto a virtual grid (extension): up to
    // max_time_multiplex instructions share each PE.
    policy.fold_limit = params_.enable_time_multiplexing
                            ? params_.max_time_multiplex
                            : 1;
    auto translation = translate(working, params_.accel,
                                 accel_.interconnect(), policy);
    if (!translation)
        return std::nullopt;

    Prepared prep;
    static_cast<Translation &>(prep) = std::move(*translation);
    prep.body_tag = region_tag;
    // The first configuration tiles conservatively (half the grid's
    // ceiling): without runtime information, over-committing the
    // array risks memory-port thrash. Iterative optimization scales
    // the tiling up from profiled epochs (paper: "we opt instead to
    // continuously iterate to close in on the optimum").
    prep.options.tile_factor = std::max(1, (prep.max_tiles + 1) / 2);
    prep.config = prep.lower(config_block_, region_start, region_end);

    certify(prep, region_start);

    if (params_.verify_before_offload && !verifyPrepared(prep)) {
        last_prepare_fallback_ = FallbackReason::VerifyDirty;
        return std::nullopt;
    }
    logDebug("controller", "prepared region 0x", std::hex, region_start,
             std::dec, ": ", prep.ldfg.size(), " nodes, tiles ",
             prep.options.tile_factor, "/", prep.max_tiles, ", tm ",
             prep.options.time_multiplex, ", model ",
             prep.map.model_latency);
    // Persist the finished translation (after the verify gate, so
    // only offloadable entries ever land on disk). A corrupt or
    // version-skewed file is overwritten here, self-healing the store.
    if (tstore.enabled())
        emit(persistEvent(tstore.store(tkey, prep)));
    return prep;
}

void
MesaController::certify(Prepared &prep, uint32_t region_start)
{
    // Abstract-interpretation certificate (footprint + trip bounds).
    // Only meaningful for the natural body: an unrolled pass resumes
    // mid-region, so its per-entry trip/footprint closed forms do not
    // describe the original loop. The certificate is a pure function
    // of the body (keyed by the same CRC as the config), so a cached
    // one is revived instead of re-running the fixpoint.
    if (!params_.fault.enabled || prep.cert || prep.options.resume_pc != 0)
        return;
    prep.cert = config_cache_.certificate(region_start, prep.body_tag);
    if (!prep.cert)
        prep.cert = std::make_shared<const absint::BodyCertificate>(
            absint::analyze(prep.ldfg));
}

bool
MesaController::runWithOptimization(Prepared &prep,
                                    riscv::ArchState &state,
                                    uint64_t max_iterations,
                                    OffloadStats &os,
                                    uint64_t cycle_budget)
{
    accel_.configure(prep.config);
    os.model_latency = prep.config.model_latency;
    os.tile_factor = prep.config.tileCount();
    os.pipelined = prep.config.pipelined;

    IterativeOptimizer optimizer(mapper_);
    uint64_t remaining = max_iterations;
    uint64_t budget_left = cycle_budget; // 0 = only the device cap.
    int attempts = 0;
    bool cut = false;

    // Timeline cursor: epochs and reconfigurations lay out back-to-
    // back on the absolute timeline starting from the current instant.
    Tracer &tracer = Tracer::global();
    const uint64_t entry_base = tracer.base();
    const uint64_t offload_start = tracer.now();
    uint64_t cursor = offload_start;

    while (remaining > 0) {
        const bool may_optimize = params_.iterative_optimization &&
                                  attempts < params_.max_reconfigs;
        const uint64_t epoch =
            may_optimize
                ? std::min(remaining, params_.profile_epoch_iterations)
                : remaining;

        // The accelerator (and its LS-entry DRAM instants) emits on a
        // local 0-based timeline; anchor it at the cursor.
        if (Tracer::active())
            tracer.setBase(cursor);
        AccelRunResult res = accel_.run(state, epoch, budget_left);
        logDebug("controller", "epoch: ", res.iterations, " iterations in ",
                 res.cycles, " cycles", res.completed ? " (done)" : "");
        os.accel.accumulate(res);
        os.accel_cycles += res.cycles;
        os.accel_iterations += res.iterations;
        remaining -= std::min(remaining, res.iterations);
        emit(Event::Epoch);
        emit(Event::AccelCycles, res.cycles);
        emit(Event::AccelIterations, res.iterations);
        if (stats_) {
            epoch_cycles_->sample(double(res.cycles));
            if (res.iterations > 0)
                epoch_cycles_per_iter_->sample(
                    double(res.cycles) / double(res.iterations));
            snapshot_accum_ += res.iterations;
            if (snapshot_iterations_ > 0 &&
                snapshot_accum_ >= snapshot_iterations_) {
                const Counter &iterations =
                    *counters_[size_t(Event::AccelIterations)];
                stats_->snapshot("iter" +
                                 std::to_string(iterations.value()));
                snapshot_accum_ = 0;
            }
        }
        if (Tracer::active())
            tracer.span("accel", "epoch", cursor, res.cycles,
                        {{"iterations", res.iterations},
                         {"tiles", os.tile_factor},
                         {"pes_used", uint64_t(res.pes_used)}});
        cursor += res.cycles;
        if (res.completed)
            break;
        // Watchdog trip (device cap or the per-offload fault budget),
        // or the budget spent without a device-side trip (the epoch
        // ended exactly on the boundary): stop driving the fabric.
        cut = res.watchdog_tripped ||
              (cycle_budget && res.cycles >= budget_left);
        if (cut)
            break;
        if (cycle_budget)
            budget_left -= res.cycles;
        if (!may_optimize)
            continue;

        ++attempts;
        emit(Event::OptimizerAttempt);
        IterativeOptimizer::applyFeedback(prep.ldfg, accel_);

        // Loop-level feedback first: if the profiled epoch left grid
        // capacity unused, scale the tiling up (the conservative
        // first configuration closes in on the optimum iteratively).
        if (prep.options.tile_factor < prep.max_tiles) {
            prep.options.tile_factor = std::min(
                prep.max_tiles, prep.options.tile_factor * 2);
            cursor += reconfigure(prep, nullptr, cursor, os);
            continue;
        }

        // Otherwise attempt a data-driven remap from measured node
        // and edge latencies.
        const OptimizeOutcome outcome =
            optimizer.optimize(prep.ldfg, os.model_latency);
        if (Tracer::active())
            tracer.instant(
                "mesa.ctrl", "optimize-attempt", cursor,
                {{"old_model_latency", outcome.old_model_latency},
                 {"new_model_latency", outcome.new_model_latency},
                 {"remapped", outcome.remapped ? 1 : 0}});
        if (outcome.remapped)
            cursor += reconfigure(prep, &outcome, cursor, os);
    }

    // Shift the time base past the offload so the caller's timeline
    // (base + its own published cycle) resumes after the last epoch.
    if (Tracer::active())
        tracer.setBase(entry_base + (cursor - offload_start));
    return cut;
}

uint64_t
MesaController::reconfigure(Prepared &prep, const OptimizeOutcome *remap,
                            uint64_t cursor, OffloadStats &os)
{
    // A tile scale keeps the offload's latency, which may differ from
    // prep.map's: a config-cache hit carries a remapped one.
    if (remap) {
        prep.map = remap->map;
        os.model_latency = remap->new_model_latency;
    }
    prep.config = config_block_.build(prep.ldfg, prep.map.sdfg,
                                      prep.options, os.region_start,
                                      os.region_end);
    prep.config.model_latency = os.model_latency;
    accel_.configure(prep.config);
    config_cache_.insert(prep.config, prep.body_tag, prep.cert);
    // With a shadow plane the bitstream streams during the previous
    // epoch; only the swap stalls the array. A remap's mapping runs on
    // MESA concurrently with execution; the charged cost is the
    // bitstream write (or the swap) plus any mapping time not hidden
    // by the epoch.
    const uint64_t stream = params_.shadow_config
                                ? 1
                                : config_block_.configCycles(prep.config);
    const uint64_t mapping = remap ? prep.map.mapping_cycles : 0;
    const uint64_t cost = mapping + stream;
    ++os.reconfigurations;
    os.reconfig_cycles += cost;
    emit(Event::Reconfig);
    emit(Event::ReconfigCycles, cost);
    Tracer &tracer = Tracer::global();
    if (!remap) {
        os.tile_factor = prep.config.tileCount();
        if (Tracer::active())
            tracer.span("mesa.ctrl",
                        params_.shadow_config ? "shadow-swap" : "reconfig",
                        cursor, cost,
                        {{"tiles", os.tile_factor}, {"reason", "tile-scale"}});
        return cost;
    }
    emit(Event::OptimizerRemap);
    emit(Event::MappingCycles, mapping);
    emit(Event::ImapInstructions, prep.map.imap_trace.size());
    if (Tracer::active()) {
        tracer.span("mesa.ctrl", "remap", cursor, cost,
                    {{"model_latency", os.model_latency},
                     {"mapping_cycles", mapping},
                     {"stream_cycles", stream}});
        emitImapTrace(tracer, "mesa.imap", prep.map.imap_trace, cursor);
    }
    return cost;
}

void
MesaController::cpuReexecute(riscv::ArchState &state, OffloadStats &os)
{
    riscv::Emulator cpu(*memory_);
    cpu.reset(state.pc);
    cpu.state() = state;
    const uint64_t steps = cpu.runWhileInRegion(
        os.region_start, os.region_end, GoldenSteps);
    state = cpu.state();
    os.cpu_reexec_instructions += steps;
    emit(Event::CpuReexec, steps);
}

void
MesaController::onFaultDetected(OffloadStats &os)
{
    if (quarantine_.onFault(os.region_start))
        emit(Event::RegionQuarantineEnter, 1,
             {{"pc", uint64_t(os.region_start)},
              {"strikes",
               uint64_t(quarantine_.strikes(os.region_start))}});
    config_cache_.invalidate(os.region_start);
    size_t newly = 0;
    emit(Event::SelfTest);
    for (const ic::Coord pos : accel_.selfTest())
        newly += faulty_pes_.add(pos) ? 1 : 0;
    if (newly > 0) {
        // Permanent defects localized: retire the PEs from the
        // mapper's free matrix, flush every cached placement (any of
        // them may route through the dead hardware), and lift the
        // region's sentence — with the root cause mapped around, the
        // fabric deserves a fresh chance.
        mapper_.setBlockedPes(faulty_pes_.coords());
        config_cache_.clear();
        quarantine_.clear(os.region_start);
        logDebug("controller", "self test retired ", newly, " PE(s), ",
                 faulty_pes_.size(), " total");
        emit(Event::PeQuarantine, newly,
             {{"new_pes", uint64_t(newly)},
              {"total_pes", uint64_t(faulty_pes_.size())}});
    }
    updateFaultGauges();
}

void
MesaController::updateFaultGauges()
{
    if (!stats_ || !params_.fault.enabled)
        return;
    stats_->scalar("mesa.fault.quarantined_regions",
                   double(quarantine_.quarantinedCount()));
    stats_->scalar("mesa.fault.retired_pes", double(faulty_pes_.size()));
}

bool
MesaController::relocatePrepared(Prepared &prep,
                                 const std::vector<Instruction> &body,
                                 bool parallel_hint, OffloadStats &os)
{
    // Quarantine strike + BIST first: retiring the root cause blocks
    // it in the mapper.
    onFaultDetected(os);
    emit(Event::Relocation);
    // Re-translate around whatever the self test retired. When BIST
    // localized nothing (transients and stuck control lines are not
    // reproducible under it), this degenerates to a checkpoint-retry
    // on a fresh translation — the region still never runs degraded,
    // and a second trip falls back to the CPU.
    auto fresh = prepare(body, parallel_hint, os.region_start,
                         os.region_end);
    if (!fresh)
        return false;
    prep = std::move(*fresh);
    config_cache_.insert(prep.config, prep.body_tag, prep.cert);
    const uint64_t stream = config_block_.configCycles(prep.config);
    // The re-translation and the new bitstream write are charged to
    // the offload like any reconfiguration.
    os.encode_cycles += prep.encode_cycles;
    os.mapping_cycles += prep.map.mapping_cycles;
    os.config_cycles += stream;
    emit(Event::RelocateTranslateCycles,
         prep.encode_cycles + prep.map.mapping_cycles);
    emit(Event::RelocateStreamCycles, stream);
    emit(Event::EncodeCycles, prep.encode_cycles);
    emit(Event::MappingCycles, prep.map.mapping_cycles);
    emit(Event::ConfigCycles, stream);
    if (Tracer::active())
        Tracer::global().span(
            "mesa.ctrl", "relocate", Tracer::global().now(),
            prep.encode_cycles + prep.map.mapping_cycles + stream,
            {{"pc", uint64_t(os.region_start)},
             {"blocked_pes", uint64_t(faulty_pes_.size())}});
    logDebug("controller", "relocated region 0x", std::hex,
             os.region_start, std::dec, " around ", faulty_pes_.size(),
             " retired PE(s)");
    return true;
}

void
MesaController::crcGate(Prepared &prep, const OffloadStats &os)
{
    // Campaign hook: model an SEU in the stored bitstream.
    if (config_corruptor_)
        config_corruptor_(prep.config);
    if (accel::configCrc(prep.config) == prep.config.crc)
        return;
    emit(Event::CrcFailure, 1,
         {{"pc", uint64_t(os.region_start)},
          {"stored", uint64_t(prep.config.crc)}});
    // The stored bitstream is corrupt, but the encoder-side LDFG and
    // mapping are intact: rebuild the configuration from them (the
    // build stamps a fresh CRC) and replace the poisoned cache entry.
    config_cache_.invalidate(os.region_start);
    prep.config =
        prep.lower(config_block_, os.region_start, os.region_end);
    config_cache_.insert(prep.config, prep.body_tag, prep.cert);
}

MesaController::GuardLimits
MesaController::bindCertificate(const Prepared &prep,
                                const riscv::ArchState &state,
                                uint64_t max_iterations, OffloadStats &os)
{
    const fault::FaultToleranceParams &fp = params_.fault;
    GuardLimits limits{max_iterations, fp.watchdog_cycles};
    if (!prep.cert || !prep.cert->converged)
        return limits;
    const absint::CertificateInstance inst = absint::instantiate(
        *prep.cert, state, absint::residentRegion(*memory_));
    // Iteration watchdog, in every fault-mode offload: a clean run
    // provably exits within inst.trips iterations from this entry
    // state, so the fabric never needs more. Capping here turns a
    // runaway loop (stuck control line, corrupted exit condition)
    // into a detection after at most the proven trip count instead
    // of letting it burn the whole cycle budget.
    if (inst.trips_finite && inst.trips > 0 &&
        inst.trips < max_iterations) {
        limits.iterations = inst.trips;
        limits.trip_capped = true;
    }
    if (!fp.certificate_gating)
        return limits;
    limits.proven_in = inst.footprint == absint::RegionClass::ProvenIn;
    os.certified = limits.proven_in;
    if (inst.trips_finite) {
        const uint64_t derived = absint::watchdogBudget(
            *prep.cert, inst.trips, prep.options.time_multiplex);
        if (derived > 0) {
            os.cert_watchdog_budget = derived;
            limits.cycles = fp.watchdog_cycles
                                ? std::min(fp.watchdog_cycles, derived)
                                : derived;
            if (limits.cycles == derived)
                emit(Event::BudgetTightened);
        }
    }
    if (limits.proven_in)
        emit(Event::Certified);
    emit(Event::Certificate, 1,
         {{"pc", uint64_t(os.region_start)},
          {"proven_in", limits.proven_in ? 1 : 0},
          {"trips", inst.trips_finite ? inst.trips : 0}});
    return limits;
}

MesaController::Verdict
MesaController::detect(bool cut, const GuardLimits &limits,
                       const fault::Checkpoint &ckpt,
                       riscv::ArchState &state, OffloadStats &os)
{
    // The proven trip count ran out without the loop exit firing:
    // impossible for a clean run, so the offload hung.
    os.trip_watchdog = limits.trip_capped && !cut && !os.accel.completed;
    if (os.trip_watchdog)
        emit(Event::TripWatchdog, 1,
             {{"pc", uint64_t(os.region_start)},
              {"trips", limits.iterations}});
    if (cut || os.trip_watchdog) {
        // Detection point 2: the offload hung (stuck control line) or
        // overran its budget.
        emit(Event::WatchdogTrip, 1,
             {{"pc", uint64_t(os.region_start)},
              {"cycles", os.accel_cycles}});
        return Verdict::Hung;
    }
    // Detection point 3: golden-model comparison (DMR in time). Only
    // a run that reached the loop exit is comparable — the golden
    // model executes the region to its natural exit.
    if (!params_.fault.checked_mode || !os.accel.completed)
        return Verdict::Clean;
    emit(Event::CheckedRun);
    const riscv::ArchState accel_state = state;
    // A proven-in-region footprint makes the page-by-page memory diff
    // redundant as a recovery mechanism: restore + golden
    // re-execution below always leaves memory at the golden result,
    // so skipping the compare can never admit a silent corruption --
    // it only forgoes counting a memory-only mismatch as a detected
    // fault.
    fault::MemSnapshot accel_pages;
    if (!limits.proven_in)
        accel_pages = memory_->snapshot();
    ckpt.restore(state, *memory_);
    cpuReexecute(state, os);
    bool match = state == accel_state;
    if (limits.proven_in) {
        os.snapshot_skipped = true;
        emit(Event::SnapshotSkip);
    } else {
        match = match && fault::memorySnapshotsEqual(memory_->snapshot(),
                                                     accel_pages);
    }
    if (match)
        return Verdict::Clean;
    // state/memory already hold the golden result: detection and
    // recovery coincide on this path.
    emit(Event::GoldenMismatch, 1, {{"pc", uint64_t(os.region_start)}});
    emit(Event::Rollback);
    os.fallback = FallbackReason::FaultDetected;
    return Verdict::Mismatch;
}

void
MesaController::settle(Verdict verdict, bool relocated, OffloadStats &os)
{
    // The stats report how the last attempt ended.
    os.accel.watchdog_tripped = verdict == Verdict::Hung;
    if (verdict != Verdict::Clean) {
        // One fault, one verdict: one fallback, and one strike and
        // self test, which a relocation has already run. Its placement
        // failed too, so it leaves the cache.
        emit(fallbackEvent(os.fallback));
        if (relocated)
            config_cache_.invalidate(os.region_start);
        else
            onFaultDetected(os);
        return;
    }
    // The offload finished on the fabric, relocated or not.
    os.fallback = FallbackReason::None;
    if (quarantine_.onSuccess(os.region_start))
        emit(Event::RegionQuarantineExit, 1,
             {{"pc", uint64_t(os.region_start)}});
    if (relocated)
        emit(Event::RelocationSuccess);
    updateFaultGauges();
}

void
MesaController::runGuarded(Prepared &prep, riscv::ArchState &state,
                           uint64_t max_iterations, OffloadStats &os,
                           const std::vector<Instruction> &body,
                           bool parallel_hint)
{
    if (!params_.fault.enabled) {
        // Only the device-level watchdog (always armed) guards the
        // run: a cut leaves partial progress written back, and the
        // CPU resumes the loop from there.
        if (runWithOptimization(prep, state, max_iterations, os)) {
            os.fallback = FallbackReason::Watchdog;
            emit(fallbackEvent(os.fallback));
        }
        return;
    }
    crcGate(prep, os); // Detection point 1.
    const GuardLimits limits =
        bindCertificate(prep, state, max_iterations, os);
    // The same checkpoint serves rollback and relocation: a drained
    // offload resumes from it on the re-translated placement.
    const fault::Checkpoint ckpt =
        fault::Checkpoint::capture(state, *memory_);
    auto attempt = [&] {
        const bool cut = runWithOptimization(prep, state, limits.iterations,
                                             os, limits.cycles);
        return detect(cut, limits, ckpt, state, os);
    };
    Verdict verdict = attempt();
    bool relocated = false;
    while (verdict == Verdict::Hung) {
        // The one recovery path: roll back, then relocate and retry
        // once, otherwise re-execute the region on the CPU.
        emit(Event::Rollback);
        emit(Event::WatchdogRollback, 1,
             {{"pc", uint64_t(os.region_start)}});
        os.fallback = FallbackReason::Watchdog;
        ckpt.restore(state, *memory_);
        if (!relocated && params_.fault.migrate_on_fault) {
            relocated = true;
            if (relocatePrepared(prep, body, parallel_hint, os)) {
                verdict = attempt();
                continue;
            }
        }
        cpuReexecute(state, os);
        break;
    }
    settle(verdict, relocated, os);
}

void
MesaController::runInline(Prepared &prep, riscv::ArchState &state,
                          uint64_t max_iterations, OffloadStats &os,
                          const std::vector<Instruction> &body,
                          bool parallel_hint)
{
    emit(Event::Offload);
    // Attribute the attached profile's device-cycle growth to this
    // offload.
    std::array<uint64_t, 3> mark{};
    if (profile_)
        mark = {profile_->compute_cycles, profile_->noc_stall_cycles,
                profile_->mem_stall_cycles};
    runGuarded(prep, state, max_iterations, os, body, parallel_hint);
    if (!profile_)
        return;
    os.prof_compute_cycles = profile_->compute_cycles - mark[0];
    os.prof_noc_stall_cycles = profile_->noc_stall_cycles - mark[1];
    os.prof_mem_stall_cycles = profile_->mem_stall_cycles - mark[2];
}

std::optional<OffloadStats>
MesaController::serveShared(const std::vector<Instruction> &body,
                            riscv::ArchState &state, bool parallel_hint,
                            uint64_t max_iterations)
{
    const OffloadRequest req{.tenant = tenant_id_,
                             .priority = tenant_priority_,
                             .body = body,
                             .state = &state,
                             .parallel_hint = parallel_hint,
                             .max_iterations = max_iterations};
    auto served = arbiter_->serve(req);
    if (served)
        emit(Event::Offload);
    return served;
}

std::optional<MesaController::Prepared>
MesaController::prepareOffload(const std::vector<Instruction> &body,
                               bool parallel_hint, OffloadStats &os)
{
    // A re-encountered region reuses its stored configuration; only
    // the bitstream write is paid again.
    const accel::AcceleratorConfig *cached =
        config_cache_.lookup(os.region_start, bodyCrc(body));
    auto prep =
        prepare(body, parallel_hint, os.region_start, os.region_end);
    if (!prep) {
        emit(fallbackEvent(last_prepare_fallback_));
        return std::nullopt;
    }
    if (cached) {
        os.config_cache_hit = true;
        prep->config = *cached;
    } else {
        os.encode_cycles = prep->encode_cycles;
        os.mapping_cycles = prep->map.mapping_cycles;
        config_cache_.insert(prep->config, prep->body_tag, prep->cert);
    }
    os.config_cycles = config_block_.configCycles(prep->config);
    os.unmapped = prep->map.unmapped.size();
    return prep;
}

std::optional<OffloadStats>
MesaController::offloadLoop(const std::vector<Instruction> &body,
                            riscv::ArchState &state, bool parallel_hint,
                            uint64_t max_iterations)
{
    if (body.empty())
        return std::nullopt;
    // Multi-tenant mode: enqueue with the shared arbiter instead of
    // running inline on the private accelerator.
    if (arbiter_)
        return serveShared(body, state, parallel_hint, max_iterations);
    const uint32_t region_start = body.front().pc;
    const uint32_t region_end = body.back().pc + 4;

    OffloadStats os;
    os.region_start = region_start;
    os.region_end = region_end;

    if (params_.fault.enabled &&
        !quarantine_.shouldOffload(region_start)) {
        // Serving a backoff sentence: the region executes on the CPU.
        os.fallback = FallbackReason::Quarantined;
        emit(fallbackEvent(os.fallback));
        updateFaultGauges();
        state.pc = region_start;
        cpuReexecute(state, os);
        return os;
    }

    auto prepared = prepareOffload(body, parallel_hint, os);
    if (!prepared)
        return std::nullopt;
    Prepared &prep = *prepared;

    // In the lower-level entry there is no CPU to overlap with: the
    // configuration phases occupy the timeline before the first epoch.
    Tracer &tracer = Tracer::global();
    const uint64_t t0 = tracer.now();
    const uint64_t t1 = tracePreparePhases(prep, os, t0);
    if (Tracer::active())
        tracer.setBase(tracer.base() + (t1 - t0));
    runInline(prep, state, max_iterations, os, body, parallel_hint);
    return os;
}

TransparentRunResult
MesaController::runTransparent(const riscv::Program &program,
                               const cpu::ThreadInit &init,
                               bool parallel_hint)
{
    TransparentRunResult result;

    cpu::loadProgram(*memory_, program);
    mem::MemHierarchy cpu_mem(params_.cpu_mem);
    cpu::OooCore core(params_.host_core, cpu_mem);
    RegionMonitor monitor(params_.monitor);

    riscv::Emulator emu(*memory_);
    emu.reset(program.base_pc);
    if (init)
        init(emu.state());

    struct Ctx
    {
        uint64_t prev_branch_cycles = 0;
        uint64_t last_iter_cost = 0;
        TraceEntry last_entry;
    } ctx;

    emu.setObserver([&](const TraceEntry &entry) {
        core.consume(entry);
        // Publish the committed CPU cycle so passive observers (the
        // monitor's decision instants) can stamp events with now().
        if (Tracer::active())
            Tracer::global().setCycle(core.cycles());
        monitor.observe(entry);
        ctx.last_entry = entry;
        if (entry.inst.isBackwardBranch() && entry.branch_taken) {
            const uint64_t now = core.cycles();
            ctx.last_iter_cost = now - ctx.prev_branch_cycles;
            ctx.prev_branch_cycles = now;
        }
    });

    Tracer &tracer = Tracer::global();
    uint64_t cpu_seg_start = tracer.now();
    uint64_t steps = 0;
    while (!emu.halted() && steps < TransparentSteps) {
        emu.step();
        ++steps;

        const auto &decision = monitor.decision();
        if (!decision)
            continue;
        if (!decision->qualified) {
            emit(Event::Rejection);
            result.rejections.push_back(*decision);
            monitor.rearm();
            continue;
        }

        // --- Qualified: state.pc is at the loop entry. ---
        const cpu::LoopInfo loop = decision->loop;
        monitor.traceCache().backfill(*memory_);
        const std::vector<Instruction> body = monitor.traceCache().body();

        if (params_.fault.enabled &&
            !quarantine_.shouldOffload(loop.start)) {
            // Region serving a backoff sentence: skip the offload and
            // let the CPU keep executing the loop naturally.
            emit(Event::FallbackQuarantined);
            updateFaultGauges();
            monitor.rearm();
            continue;
        }

        if (arbiter_) {
            // Multi-tenant mode: the shared arbiter owns the device;
            // enqueue the region and resume the CPU when it returns.
            if (Tracer::active()) {
                const uint64_t handoff = tracer.now();
                if (handoff > cpu_seg_start)
                    tracer.span("cpu0", "execute", cpu_seg_start,
                                handoff - cpu_seg_start);
            }
            if (auto served = serveShared(body, emu.state(), parallel_hint,
                                          ~uint64_t(0)))
                result.offloads.push_back(*served);
            else
                monitor.blacklist(loop.start);
            cpu_seg_start = tracer.now();
            monitor.rearm();
            continue;
        }

        OffloadStats os;
        os.region_start = loop.start;
        os.region_end = loop.end;

        auto prepared = prepareOffload(body, parallel_hint, os);
        if (!prepared) {
            // Structural failure: never consider this region again.
            monitor.blacklist(loop.start);
            monitor.rearm();
            continue;
        }
        Prepared &prep = *prepared;

        // MESA's configuration phases run concurrently with the CPU:
        // lay them on the controller tracks starting at the decision
        // instant, without advancing the CPU's time base.
        const uint64_t decision_cycle = tracer.now();
        tracePreparePhases(prep, os, decision_cycle);

        // --- CPU executes iterations while MESA configures. ---
        const uint64_t iter_cost = std::max<uint64_t>(
            1, ctx.last_iter_cost);
        const uint64_t overlap_iters =
            (os.totalConfigCycles() + iter_cost - 1) / iter_cost;
        os.cpu_overlap_iterations = overlap_iters;

        bool exited_early = false;
        for (uint64_t k = 0; k < overlap_iters && !exited_early; ++k) {
            // Run until the next closing-branch commit.
            while (!emu.halted()) {
                if (!loop.contains(emu.state().pc)) {
                    exited_early = true;
                    break;
                }
                emu.step();
                ++steps;
                const auto &te = ctx.last_entry;
                if (te.inst.pc == loop.branchPc()) {
                    if (!te.branch_taken)
                        exited_early = true;
                    break;
                }
            }
            if (emu.halted())
                exited_early = true;
        }
        if (exited_early) {
            // The loop ended before configuration completed; nothing
            // to offload this time.
            monitor.rearm();
            continue;
        }

        // --- Offload: transfer architectural state, run, return. ---
        if (Tracer::active()) {
            // Close the CPU execution segment at the handoff point
            // and mark the configuration overlap window.
            const uint64_t handoff = tracer.now();
            if (handoff > cpu_seg_start)
                tracer.span("cpu0", "execute", cpu_seg_start,
                            handoff - cpu_seg_start);
            if (handoff > decision_cycle)
                tracer.span("cpu0", "config-overlap", decision_cycle,
                            handoff - decision_cycle,
                            {{"iterations", overlap_iters},
                             {"config_cycles",
                              os.totalConfigCycles()}});
        }
        runInline(prep, emu.state(), ~uint64_t(0), os, body, parallel_hint);
        cpu_seg_start = tracer.now();
        result.offloads.push_back(os);
        monitor.rearm();
    }

    result.cpu_cycles = core.finish();
    if (Tracer::active()) {
        // Close the trailing CPU segment with the drained pipeline's
        // final cycle count.
        const uint64_t end = tracer.base() + result.cpu_cycles;
        tracer.setCycle(result.cpu_cycles);
        if (end > cpu_seg_start)
            tracer.span("cpu0", "execute", cpu_seg_start,
                        end - cpu_seg_start);
    }
    result.cpu_instructions = core.stats().instructions;
    result.cpu.cycles = result.cpu_cycles;
    result.cpu.instructions = core.stats().instructions;
    result.cpu.mispredicts = core.stats().mispredicts;
    result.cpu.loads = core.stats().loads;
    result.cpu.stores = core.stats().stores;
    result.cpu.fp_ops = core.stats().fp_ops;
    result.cpu.dram_accesses = cpu_mem.dramAccesses();
    result.cpu.threads = 1;
    for (const auto &os : result.offloads)
        result.accel_cycles += os.accel_cycles + os.reconfig_cycles;
    result.total_cycles = result.cpu_cycles + result.accel_cycles;
    result.final_state = emu.state();
    result.halted = emu.halted();
    return result;
}

} // namespace mesa::core
