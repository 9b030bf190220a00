/**
 * @file
 * The MESA controller top (paper Fig. 7): monitors CPU execution for
 * acceleration opportunities (F1), translates qualified loop regions
 * to latency-weighted DFGs and maps them onto the spatial accelerator
 * (F2), and iteratively re-optimizes the configuration from runtime
 * performance counters (F3). runTransparent() gives the end-to-end
 * flow of paper §5.1: the CPU keeps executing while MESA encodes,
 * maps, and configures; control transfers at the next loop entry and
 * returns to the CPU (with architectural state) at loop exit.
 */

#ifndef MESA_MESA_CONTROLLER_HH
#define MESA_MESA_CONTROLLER_HH

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "absint/certificate.hh"
#include "accel/accelerator.hh"
#include "cpu/monitor.hh"
#include "cpu/system.hh"
#include "fault/params.hh"
#include "fault/quarantine.hh"
#include "mesa/config_builder.hh"
#include "mesa/config_cache.hh"
#include "mesa/mapper.hh"
#include "mesa/optimizer.hh"
#include "mesa/translate.hh"
#include "util/stats.hh"
#include "util/stats_registry.hh"
#include "util/trace.hh"

namespace mesa::fault
{
struct Checkpoint;
} // namespace mesa::fault

namespace mesa::core
{

/** Full configuration of a MESA-enabled system. */
struct MesaParams
{
    accel::AccelParams accel = accel::AccelParams::m128();
    MapperParams mapper;
    cpu::MonitorParams monitor;
    cpu::CoreParams host_core;        ///< CPU core MESA attaches to.
    mem::HierarchyParams cpu_mem;
    mem::HierarchyParams accel_mem;

    // Optimization switches.
    bool enable_tiling = true;
    bool enable_pipelining = true;
    bool enable_vectorization = true;
    bool enable_forwarding = true;
    bool enable_prefetch = true;
    bool iterative_optimization = true;

    /**
     * Extension: allow loops larger than the PE count by folding the
     * mapping onto a virtual grid (up to max_time_multiplex
     * instructions share a PE). Off by default — the paper's MESA is
     * purely spatial and rejects such loops at C1.
     */
    bool enable_time_multiplexing = false;
    int max_time_multiplex = 4;

    /**
     * Extension: runtime loop unrolling for small bodies (the paper
     * leaves unrolling to AOT compilers). The accelerated loop covers
     * unroll_factor original iterations per pass; the CPU runs the
     * tail. Off by default.
     */
    bool enable_unrolling = false;
    int unroll_factor = 4;

    /**
     * Extension: double-buffered configuration plane. The next
     * bitstream streams into the shadow plane while the accelerator
     * keeps executing; a reconfiguration then costs a single-cycle
     * swap instead of stalling for the bitstream write.
     */
    bool shadow_config = false;

    /**
     * Run the static verifier (src/verify) over every freshly
     * prepared region: mapping legality plus config round-trip
     * against the source LDFG. Error-severity findings veto the
     * offload (the region falls back to CPU execution and is
     * blacklisted like any structural failure); findings land under
     * "mesa.verify.*" in the attached stats registry. Off by default
     * — the real controller would bake these invariants into the
     * pipeline, the knob models a self-checking deployment.
     */
    bool verify_before_offload = false;

    /** Iterations profiled between optimization attempts. */
    uint64_t profile_epoch_iterations = 128;
    int max_reconfigs = 2;

    /** Mapping failures tolerated before the region is abandoned. */
    double max_unmapped_frac = 0.25;

    /** Clock (GHz), for reporting config latency in wall time. */
    double clock_ghz = 2.0;

    /**
     * Fault tolerance (the mesa_fault subsystem): config CRC gate,
     * pre-offload checkpoint + rollback, watchdog budgets, optional
     * golden-model checked mode, and quarantine of faulting regions
     * and defective PEs. Off by default.
     */
    fault::FaultToleranceParams fault;

    /**
     * The translation switches every producer of a placement shares:
     * mapper window, tiling (only with @p parallel_hint), unmapped
     * tolerance and the lowering options. Callers add what only they
     * need (blocked PEs, fold limit, unrolling).
     */
    TranslatePolicy translatePolicy(bool parallel_hint) const;
};

/**
 * Why an offload was abandoned and the region executed on the CPU.
 * One taxonomy across every bail-out path: the verify gate, the fault
 * detection pipeline, the watchdog, structural mapping failures, and
 * the quarantine blacklist.
 */
enum class FallbackReason
{
    None = 0,       ///< The offload ran (or no offload was attempted).
    VerifyDirty,    ///< Static verifier vetoed the prepared config.
    FaultDetected,  ///< CRC mismatch or golden-model divergence.
    Watchdog,       ///< Cycle budget tripped; rolled back.
    Structural,     ///< Encode/map failed (unsupported region).
    Quarantined,    ///< Region serving an exponential-backoff sentence.
};

/**
 * Outcome of one persistent translation-store probe or store (see
 * mesa/translation_store.hh). The controller counts each under its
 * "mesa.cache.persist_*" event when a store is enabled.
 */
enum class PersistOutcome
{
    Disabled = 0,  ///< No cache directory configured.
    Hit,           ///< Entry deserialized and integrity-checked.
    Miss,          ///< No entry on disk for the key.
    Corrupt,       ///< Truncated file or CRC mismatch; ignored.
    VersionSkew,   ///< Other format version; ignored.
    KeyMismatch,   ///< File's embedded key differs; ignored.
    Stored,        ///< Entry written to disk.
    StoreFailed,   ///< Write failed (permissions, disk full).
};

/**
 * When a controller event's counter exists: attachStats() registers a
 * catalog counter only while its gate is open, so a run without a
 * feature carries none of that feature's counters.
 */
enum class StatGate : uint8_t
{
    Always,       ///< Every attached registry.
    Verify,       ///< verify_before_offload.
    Store,        ///< A persistent translation store is enabled.
    Fault,        ///< fault.enabled.
    FaultMigrate, ///< fault.enabled and fault.migrate_on_fault.
    FaultCertify, ///< fault.enabled and fault.certificate_gating.
};

/** One row of the controller's event catalog. */
struct EventInfo
{
    const char *stat = nullptr;    ///< Counter path; null: trace only.
    StatGate gate = StatGate::Always;
    const char *track = nullptr;   ///< Trace track; null: counter only.
    const char *instant = nullptr; ///< Instant name on that track.
};

/** The controller's events; defined with the catalog in controller.cc. */
enum class ControllerEvent : uint8_t;

/**
 * A fully translated region: the translation (T1 encode, T2 map, the
 * tile ceiling) plus the built accelerator configuration (T3) and the
 * controller's bookkeeping. A pure function of (body, parallel hint,
 * region bounds, MESA params, blocked-PE set) — which is what makes
 * it safe to memoize across processes in the persistent translation
 * store.
 */
struct PreparedRegion : Translation
{
    accel::AcceleratorConfig config;
    uint32_t body_tag = 0; ///< Config-cache key guard (bodyCrc).
    /** Abstract-interpretation certificate for the (non-unrolled)
     *  body, in fault mode. Shared with the config cache so
     *  re-encountered regions skip the fixpoint. */
    std::shared_ptr<const absint::BodyCertificate> cert;
};

/** Per-offload statistics. */
struct OffloadStats
{
    uint32_t region_start = 0;
    uint32_t region_end = 0;

    uint64_t encode_cycles = 0;   ///< LDFG build (rename) time.
    uint64_t mapping_cycles = 0;  ///< imap FSM time (Fig. 8).
    uint64_t config_cycles = 0;   ///< Bitstream streaming time.
    uint64_t totalConfigCycles() const
    {
        return encode_cycles + mapping_cycles + config_cycles;
    }

    bool config_cache_hit = false;
    int tile_factor = 1;
    bool pipelined = false;
    size_t unmapped = 0;
    double model_latency = 0.0;   ///< Modeled cycles per iteration.

    uint64_t cpu_overlap_iterations = 0; ///< Run on CPU during config.
    int reconfigurations = 0;
    uint64_t reconfig_cycles = 0;

    /** Set when the region was served by a shared offload arbiter:
     *  cycles spent queued behind other tenants, and the number of
     *  times the scheduler (re)configured a partition for it. */
    uint64_t sched_wait_cycles = 0;
    uint64_t sched_switches = 0;

    uint64_t accel_cycles = 0;
    uint64_t accel_iterations = 0;
    accel::AccelRunResult accel; ///< Aggregated accelerator counters.

    /**
     * Device-cycle attribution for this offload, captured from the
     * attached profile (zero when none is attached or the offload was
     * served by an arbiter). When captured, the three buckets sum to
     * accel_cycles exactly.
     */
    uint64_t prof_compute_cycles = 0;
    uint64_t prof_noc_stall_cycles = 0;
    uint64_t prof_mem_stall_cycles = 0;

    /**
     * Certificate gating (fault.certificate_gating): the offload's
     * memory footprint was statically proven inside the resident
     * region for this entry state, the checked-mode memory-snapshot
     * comparison was skipped on that proof, and the watchdog ran
     * under the certificate-derived budget (0 = no finite trip proof).
     */
    bool certified = false;
    bool snapshot_skipped = false;
    uint64_t cert_watchdog_budget = 0;
    /** The iteration watchdog fired: the fabric consumed the proven
     *  trip count without reaching the loop exit — impossible for a
     *  clean run, so the offload was rolled back as faulty. */
    bool trip_watchdog = false;

    /** Why this region fell back to the CPU (None = it did not). */
    FallbackReason fallback = FallbackReason::None;
    /** Instructions the CPU re-executed after a rollback (or executed
     *  in place of a quarantined offload). */
    uint64_t cpu_reexec_instructions = 0;
};

/** One tenant's offload request, as routed to an external arbiter. */
struct OffloadRequest
{
    int tenant = 0;
    int priority = 0;
    std::vector<riscv::Instruction> body;
    riscv::ArchState *state = nullptr; ///< Live CPU state to hand off.
    bool parallel_hint = false;
    uint64_t max_iterations = ~uint64_t(0);
};

/**
 * A shared accelerator arbiter (the mesa_sched subsystem implements
 * this). When one is attached to a controller, qualified regions are
 * enqueued with the arbiter — which may time-slice them against other
 * tenants' pending requests on a spatially partitioned array —
 * instead of running inline on the controller's private accelerator.
 */
class OffloadArbiter
{
  public:
    virtual ~OffloadArbiter() = default;

    /**
     * Enqueue the request and drive the shared device until this
     * tenant's region completes (other pending tenants may progress
     * too). nullopt if the region cannot be mapped on a partition.
     */
    virtual std::optional<OffloadStats>
    serve(const OffloadRequest &request) = 0;
};

/** End-to-end outcome of a transparent run. */
struct TransparentRunResult
{
    uint64_t total_cycles = 0; ///< CPU + reconfig + accelerator.
    uint64_t cpu_cycles = 0;
    uint64_t cpu_instructions = 0;
    uint64_t accel_cycles = 0;
    cpu::RunResult cpu; ///< Full CPU-side stats (energy model input).
    std::vector<OffloadStats> offloads;
    std::vector<cpu::MonitorDecision> rejections;
    riscv::ArchState final_state;
    bool halted = false;

    uint64_t
    acceleratedIterations() const
    {
        uint64_t n = 0;
        for (const auto &o : offloads)
            n += o.accel_iterations;
        return n;
    }

    /**
     * Register every run statistic into a stats registry under
     * @p prefix (e.g. "run."): the single flattening walk that
     * --stats-json and tests share.
     */
    void registerInto(StatsRegistry &registry,
                      const std::string &prefix = "") const;
};

/** The MESA hardware controller. */
class MesaController
{
  public:
    MesaController(const MesaParams &params, mem::MainMemory &memory);

    /**
     * Execute a program transparently: run on the host CPU model,
     * monitor for loops, offload qualified regions to the spatial
     * accelerator, resume the CPU at loop exit. The program must halt
     * via ecall/ebreak.
     *
     * @param parallel_hint the region's loop is OpenMP-annotated
     *        (omp parallel / omp simd), enabling tiling/pipelining
     */
    TransparentRunResult runTransparent(const riscv::Program &program,
                                        const cpu::ThreadInit &init,
                                        bool parallel_hint = false);

    /**
     * Lower-level entry: encode, map, configure, and run an already-
     * extracted loop body from the given architectural state. Used by
     * tests, benches, and the examples.
     *
     * @return stats, or nullopt if the body cannot be encoded/mapped
     */
    std::optional<OffloadStats> offloadLoop(
        const std::vector<riscv::Instruction> &body,
        riscv::ArchState &state, bool parallel_hint,
        uint64_t max_iterations = ~uint64_t(0));

    /**
     * Translation-only entry: probe the persistent store and run the
     * encode/map/config pipeline (or a warm load) for an extracted
     * body, without configuring or running the fabric. Lets benches
     * time cold-vs-warm translation in isolation.
     *
     * @return true if the body translated (or warm-loaded)
     */
    bool translateOnly(const std::vector<riscv::Instruction> &body,
                       bool parallel_hint);

    accel::Accelerator &accelerator() { return accel_; }
    const MesaParams &params() const { return params_; }
    ConfigCache &configCache() { return config_cache_; }

    /**
     * Re-point the controller (and its accelerator) at a different
     * main memory. The service layer's enabling decoupling: one
     * controller per fabric backend persists across jobs — keeping
     * its config cache warm, its quarantine ledger, retired-PE map,
     * and stats — while every job binds its own fresh memory image.
     * Only call between runs (never with an offload in flight).
     */
    void
    rebindMemory(mem::MainMemory &memory)
    {
        memory_ = &memory;
        accel_.rebindMemory(memory);
    }

    /**
     * Campaign hook (fault mode): called on the prepared configuration
     * right before the CRC gate, modeling an SEU in the stored
     * bitstream. The hook mutates the config in place; the controller
     * must then catch the corruption via the CRC re-derivation.
     */
    void
    setConfigCorruptor(
        std::function<void(accel::AcceleratorConfig &)> hook)
    {
        config_corruptor_ = std::move(hook);
    }

    /** PEs retired by the self test (fed into the mapper). */
    const fault::FaultyPeMap &faultyPes() const { return faulty_pes_; }

    /** Region backoff state (fault mode). */
    const fault::RegionQuarantine &quarantine() const
    {
        return quarantine_;
    }

    /**
     * Attach a stats registry: the controller registers the counter
     * of every event in eventCatalog() whose gate is open, plus the
     * config-cache counters, the epoch histogram/average and (fault
     * mode) the quarantine gauges, and keeps them current while
     * running. Optional; pass nullptr to detach. The registry must
     * outlive the controller's runs.
     *
     * @param snapshot_iterations record a registry snapshot every
     *        N accelerated iterations (0 disables; epochs still
     *        bound the granularity, see profile_epoch_iterations)
     */
    void attachStats(StatsRegistry *registry,
                     uint64_t snapshot_iterations = 0);

    /**
     * Every event the controller counts or traces as an instant, one
     * row each: the only place a controller counter path or a
     * mesa.fault / mesa.absint instant name is spelled.
     */
    static std::span<const EventInfo> eventCatalog();

    /**
     * Attach a cycle-attribution profile (prof/): forwards to the
     * private accelerator and makes every inline offload capture its
     * compute / NoC-stall / mem-stall split into OffloadStats. Pass
     * nullptr to detach; detached profiling costs nothing. The
     * profile must outlive the controller's runs.
     */
    void attachProfile(prof::AccelProfile *profile);
    prof::AccelProfile *profile() const { return profile_; }

    /**
     * Attach a shared offload arbiter: qualified regions enqueue with
     * it (tagged with this controller's tenant id and priority)
     * instead of running inline. Pass nullptr to detach and return to
     * single-tenant inline execution. The arbiter must outlive the
     * controller's runs.
     */
    void
    setOffloadArbiter(OffloadArbiter *arbiter, int tenant = 0,
                      int priority = 0)
    {
        arbiter_ = arbiter;
        tenant_id_ = tenant;
        tenant_priority_ = priority;
    }
    OffloadArbiter *offloadArbiter() const { return arbiter_; }

    /** Convert accelerator cycles to nanoseconds at the MESA clock. */
    double
    cyclesToNs(uint64_t cycles) const
    {
        return double(cycles) / params_.clock_ghz;
    }

  private:
    /** Encode+map+build for a body; nullopt on failure. */
    using Prepared = PreparedRegion;
    std::optional<Prepared> prepare(
        const std::vector<riscv::Instruction> &body, bool parallel_hint,
        uint32_t region_start, uint32_t region_end);

    /**
     * Prepare the region [os.region_start, os.region_end) for an
     * offload: translate it, or revive its config-cache entry, and
     * fill @p os's translation phase cycles (a cache hit pays only
     * the bitstream write). nullopt, with the fallback counted, when
     * the region cannot be offloaded.
     */
    std::optional<Prepared> prepareOffload(
        const std::vector<riscv::Instruction> &body, bool parallel_hint,
        OffloadStats &os);

    /**
     * Run the verify-before-offload gate over a prepared region
     * (passes 2+3 of the static verifier) and feed the verify.*
     * counters. @return true when the region may be offloaded.
     */
    bool verifyPrepared(const Prepared &prep);

    /** Run the configured region with iterative optimization.
     *  @param cycle_budget per-offload fabric watchdog budget (0 =
     *         only the device-level cap applies)
     *  @return true when a watchdog cut the run short */
    bool runWithOptimization(Prepared &prep, riscv::ArchState &state,
                             uint64_t max_iterations, OffloadStats &os,
                             uint64_t cycle_budget = 0);

    /**
     * Install a rebuilt configuration mid-offload: the optimizer's
     * @p remap (its map and latency), or with nullptr a tile scale
     * from prep.options. Configures the fabric, caches the config,
     * charges the swap to @p os and traces it at @p cursor.
     * @return the cycles charged
     */
    uint64_t reconfigure(Prepared &prep, const OptimizeOutcome *remap,
                         uint64_t cursor, OffloadStats &os);

    /** Count the offload and run it inline under the guard, capturing
     *  the attached profile's device-cycle attribution into @p os. */
    void runInline(Prepared &prep, riscv::ArchState &state,
                   uint64_t max_iterations, OffloadStats &os,
                   const std::vector<riscv::Instruction> &body,
                   bool parallel_hint);

    /** Enqueue the region with the attached arbiter; counts it as an
     *  offload when served. */
    std::optional<OffloadStats> serveShared(
        const std::vector<riscv::Instruction> &body,
        riscv::ArchState &state, bool parallel_hint,
        uint64_t max_iterations);

    /** How a guarded attempt ended. */
    enum class Verdict
    {
        Clean,    ///< Ran (and, checked, matched the golden model).
        Hung,     ///< A watchdog or the proven trip count cut it.
        Mismatch, ///< Diverged from the golden model (now restored).
    };

    /** What the certificate binds for one guarded offload. */
    struct GuardLimits
    {
        uint64_t iterations; ///< Iteration cap for every attempt.
        uint64_t cycles;     ///< Watchdog budget (0 = device cap).
        bool trip_capped = false; ///< iterations is the proven trip count.
        bool proven_in = false;   ///< Footprint proven in-region.
    };

    /**
     * Fault-tolerant offload dispatch, as steps: the CRC gate, the
     * certificate binding, a checkpoint, an attempt (run + detect),
     * the one recovery path for a hung attempt (roll back, relocate
     * and retry once, else re-execute on the CPU), and settle. Plain
     * runWithOptimization when fault mode is off. @p body must be the
     * region's non-empty body (relocation re-translates it).
     */
    void runGuarded(Prepared &prep, riscv::ArchState &state,
                    uint64_t max_iterations, OffloadStats &os,
                    const std::vector<riscv::Instruction> &body,
                    bool parallel_hint);

    /** Attach the body's certificate to @p prep in fault mode (not
     *  to an unrolled pass): the config cache's copy, else a fresh
     *  absint::analyze. Cold translations and store hits share it. */
    void certify(Prepared &prep, uint32_t region_start);

    /** Detection point 1: run the corruptor hook, re-derive the CRC
     *  and on a mismatch rebuild the config from the intact mapping. */
    void crcGate(Prepared &prep, const OffloadStats &os);

    /** Bind the static certificate to the entry state and the
     *  resident memory: the iteration cap always; with certificate
     *  gating also the watchdog budget and whether the footprint is
     *  proven in-region. */
    GuardLimits bindCertificate(const Prepared &prep,
                                const riscv::ArchState &state,
                                uint64_t max_iterations, OffloadStats &os);

    /** Judge one attempt: hung (watchdog @p cut or the trip cap) or,
     *  in checked mode, the golden compare, which leaves the golden
     *  result in @p state and memory. */
    Verdict detect(bool cut, const GuardLimits &limits,
                   const fault::Checkpoint &ckpt, riscv::ArchState &state,
                   OffloadStats &os);

    /** Record the final verdict, once per offload: the fallback and
     *  fault bookkeeping, or a quarantine success (and a relocation
     *  success). @p relocated: a relocation was attempted, which has
     *  already struck the region and run the self test. */
    void settle(Verdict verdict, bool relocated, OffloadStats &os);

    /**
     * Drain-and-relocate (fault.migrate_on_fault): strike the region
     * and run the self test, then re-translate @p body around the
     * blocked set and swap the relocated placement into @p prep,
     * charging the re-translation to @p os and the mesa.migrate.*
     * counters.
     * @return true when a relocated placement was installed (the
     *         caller re-runs from the restored checkpoint)
     */
    bool relocatePrepared(Prepared &prep,
                          const std::vector<riscv::Instruction> &body,
                          bool parallel_hint, OffloadStats &os);

    /** Execute [region_start, region_end) on the functional emulator
     *  from @p state (the recovery path after a rollback). */
    void cpuReexecute(riscv::ArchState &state, OffloadStats &os);

    /** Post-detection bookkeeping, once per faulty offload:
     *  quarantine strike, cache invalidation, and the self test -> PE
     *  retirement path. */
    void onFaultDetected(OffloadStats &os);

    /** Refresh the live quarantine/retirement gauges
     *  (mesa.fault.quarantined_regions, mesa.fault.retired_pes). */
    void updateFaultGauges();

    /**
     * Count and trace one catalog event: add @p n to its counter when
     * its gate registered one, and record its instant, with @p args,
     * when tracing is active.
     */
    void emit(ControllerEvent event, uint64_t n = 1,
              std::initializer_list<TraceArg> args = {});

    /** Is @p gate open for this controller's parameters? */
    bool gateOpen(StatGate gate) const;

    /**
     * Emit the controller-phase timeline spans (encode, per-
     * instruction imap, config streaming) for a prepared offload,
     * starting at absolute cycle @p t0. Also feeds the live phase
     * counters. Returns t0 + totalConfigCycles().
     */
    uint64_t tracePreparePhases(const Prepared &prep,
                                const OffloadStats &os, uint64_t t0);

    /** Per-rule verify counters, created on first finding. */
    Counter &verifyRuleCounter(const std::string &rule);

    MesaParams params_;
    mem::MainMemory *memory_; ///< Rebindable (see rebindMemory).
    accel::Accelerator accel_;
    InstructionMapper mapper_;
    ConfigBlock config_block_;
    ConfigCache config_cache_;

    StatsRegistry *stats_ = nullptr;
    prof::AccelProfile *profile_ = nullptr;
    /** One counter per catalog row; null while its gate is closed. */
    std::vector<Counter *> counters_;
    Histogram *epoch_cycles_ = nullptr;
    Average *epoch_cycles_per_iter_ = nullptr;
    std::map<std::string, Counter *> verify_rule_counters_;
    uint64_t snapshot_iterations_ = 0;
    uint64_t snapshot_accum_ = 0; ///< Iterations since last snapshot.

    OffloadArbiter *arbiter_ = nullptr;
    int tenant_id_ = 0;
    int tenant_priority_ = 0;

    /** Fingerprint of every prepare()-relevant parameter, part of the
     *  persistent translation-store key (computed once at build). */
    uint32_t params_crc_ = 0;

    // ----- fault tolerance state -----
    fault::RegionQuarantine quarantine_;
    fault::FaultyPeMap faulty_pes_;
    std::function<void(accel::AcceleratorConfig &)> config_corruptor_;
    /** Why the most recent prepare() returned nullopt. */
    FallbackReason last_prepare_fallback_ = FallbackReason::Structural;
};

} // namespace mesa::core

#endif // MESA_MESA_CONTROLLER_HH
