/**
 * @file
 * Cycle-level model of the custom spatial accelerator (paper §5.2):
 * a grid of PEs joined by direct neighbor links and a half-ring NoC,
 * load/store entries sharing memory ports, a control network
 * asserting per-PE enable signals (predicated forward branches), and
 * per-PE latency counters that feed MESA's performance model.
 *
 * Execution follows the configured dataflow: each PE holds one
 * instruction (or, with the time-multiplexing extension, a few that
 * share its issue slots); an operation starts when its inputs arrive
 * and its guards allow it. Iterations either run back-to-back or
 * overlap (loop pipelining); tiled instances of the same SDFG run
 * concurrently, sharing memory ports (paper Fig. 6).
 */

#ifndef MESA_ACCEL_ACCELERATOR_HH
#define MESA_ACCEL_ACCELERATOR_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/config_types.hh"
#include "accel/fault_plane.hh"
#include "accel/params.hh"
#include "mem/cache.hh"
#include "mem/lsq.hh"
#include "mem/memory.hh"
#include "prof/profile.hh"
#include "riscv/emulator.hh"
#include "util/stats.hh"

namespace mesa::accel
{

/** Aggregate outcome and activity of one accelerated run. */
struct AccelRunResult
{
    uint64_t cycles = 0;      ///< Wall-clock cycles of the whole run.
    uint64_t iterations = 0;  ///< Total loop iterations (all tiles).
    bool completed = false;   ///< Loop exited via its branch condition.

    // Activity counters for the energy model (clock-gated PEs do not
    // accumulate busy cycles).
    uint64_t pe_busy_cycles = 0;
    uint64_t fp_busy_cycles = 0;
    uint64_t disabled_ops = 0; ///< Predicated-off executions.
    uint64_t noc_transfers = 0;
    uint64_t local_transfers = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t store_load_forwards = 0;
    uint64_t load_invalidations = 0;
    uint64_t dram_accesses = 0;

    /** Configured (powered) PEs vs the whole array: unused tiles are
     *  power-gated, so leakage scales with the active region. */
    uint64_t pes_used = 0;
    uint64_t pes_total = 0;

    /** The watchdog cycle budget cut this run off mid-loop. */
    bool watchdog_tripped = false;

    /** Installed fault-plane activations that corrupted a value. */
    uint64_t faults_fired = 0;

    double
    avgIterationCycles() const
    {
        return iterations ? double(cycles) / double(iterations) : 0.0;
    }

    /** Fold one epoch's counters into this aggregate. */
    void accumulate(const AccelRunResult &epoch);
};

/** The accelerator device. Configure once per region, then run. */
class Accelerator
{
  public:
    Accelerator(const AccelParams &params, mem::MainMemory &memory,
                const mem::HierarchyParams &mem_params = {});

    /** Install a configuration (T3); clears all run state. */
    void configure(const AcceleratorConfig &config);

    bool configured() const { return !config_.slots.empty(); }
    const AcceleratorConfig &config() const { return config_; }

    /**
     * Execute the configured loop starting from the CPU's
     * architectural state. Live-ins are latched from @p state; on
     * completion live-outs and the exit pc are written back.
     *
     * @param max_iterations stop early after this many total
     *        iterations (the controller uses this for profiling
     *        epochs between re-optimizations)
     * @param cycle_budget additional watchdog budget for this run
     *        (0 = none); the effective cap is the smaller of this and
     *        params().watchdog_cycles. The fault-tolerant controller
     *        threads its remaining per-offload budget through here.
     */
    AccelRunResult run(riscv::ArchState &state,
                       uint64_t max_iterations = ~uint64_t(0),
                       uint64_t cycle_budget = 0);

    const AccelParams &params() const { return params_; }
    const ic::Interconnect &interconnect() const { return *ic_; }
    mem::MemHierarchy &hierarchy() { return hierarchy_; }

    /**
     * Re-point the fabric's load/store path at a different main
     * memory. Takes effect at the next configure() (which rebuilds
     * every instance's load/store unit); never call it mid-run. This
     * is the service-layer decoupling: one persistent fabric instance
     * (warm hierarchy tags, fault plane, latency counters) serves a
     * stream of jobs that each bring their own memory image.
     */
    void rebindMemory(mem::MainMemory &memory) { memory_ = &memory; }

    /**
     * Timeline track this device emits its tile spans on. A scheduler
     * running several sub-array partitions concurrently gives each
     * its own track so their slices do not interleave on "accel".
     */
    void setTraceTrack(std::string track)
    {
        trace_track_ = std::move(track);
    }
    const std::string &traceTrack() const { return trace_track_; }

    // ----- fault injection (mesa_fault campaigns) -----

    /** Install a set of hardware defects; persists across configure().
     *  Physical coordinates — virtual slot positions are translated
     *  (time-multiplex fold, tile origin) before matching. */
    void injectFaults(const FaultPlane &plane);
    const FaultPlane &faultPlane() const { return fault_plane_; }
    void clearFaults() { injectFaults(FaultPlane{}); }

    /**
     * Built-in self test: exercises every PE and link with a known
     * pattern and reports the physical PEs whose datapath misbehaves
     * (a dead link implicates both endpoints). Transient upsets and
     * stuck control lines are, by nature, not reproducible under
     * BIST and are not reported. The controller feeds the result into
     * the mapper's blocked set so re-mapping routes around defects.
     */
    std::vector<ic::Coord> selfTest() const;

    /**
     * Attach (or detach, with nullptr) a cycle-attribution profile.
     * While attached, every run() decomposes its wall cycles into
     * compute / NoC-stall / mem-stall — summing exactly to the cycles
     * it returns — and feeds the spatial per-PE / per-link counters.
     * run() picks the profiled or the profile-free device loop once
     * per call, so a detached profile costs nothing per slot. The
     * profile is resized to the physical grid.
     */
    void setProfile(prof::AccelProfile *profile);
    prof::AccelProfile *profile() const { return prof_; }

    /** Measured average execution latency of a node (PE counters). */
    double measuredNodeLatency(dfg::NodeId id) const;

    /** Measured average transfer latency into node id, operand 0/1. */
    double measuredEdgeLatency(dfg::NodeId id, int operand) const;

    /** Reset the latency counters (new profiling epoch). */
    void resetCounters();

  private:
    /**
     * One producer -> consumer transfer, resolved at configure(): the
     * placement and NoC routes are fixed per configuration, so the
     * device loop never asks the interconnect again.
     */
    struct Route
    {
        int32_t src = -1;      ///< Producer slot; -1 = no such edge.
        int32_t lane = -1;     ///< Shared NoC bus (index into
                               ///< lane_bus_); -1 = local link.
        uint64_t latency = 0;  ///< Cycles on the wire after any wait.
        bool fallback = false; ///< Unmapped endpoint: secondary bus.
    };

    /**
     * Per-slot constants of the configured dataflow (the plan): every
     * PeSlot field the device loop reads, so it never touches
     * config_.slots.
     */
    struct SlotPlan
    {
        riscv::Op op = riscv::Op::Addi;
        riscv::OpClass cls = riscv::OpClass::Nop;
        bool fp = false;        ///< FP functional unit (activity).
        size_t pe_key = 0;      ///< Index into the per-PE busy table.
        uint64_t latency = 0;   ///< Service cycles (op_latency).
        uint64_t busy = 0;      ///< PE switching-activity cycles.
        int32_t imm = 0;        ///< Immediate after imm_overrides.
        uint32_t pc = 0;        ///< The instruction's pc (auipc, jal).
        Route src1, src2;       ///< Operand 0/1 producers.
        int32_t live_in1 = -1;  ///< Operand 0/1 register when no
        int32_t live_in2 = -1;  ///< producer slot feeds it.
        Route prev_writer;      ///< Forwarded old value when disabled.
        int32_t prev_dest_live_in = -1; ///< ... or this register's.
        uint32_t guards_begin = 0; ///< [begin, end) in guard_routes_.
        uint32_t guards_end = 0;
        /** Static store->load forwarding source slot (-1 = none). */
        int32_t forward_from_store = -1;
        int32_t vector_group = -1; ///< Vectorized load group, -1 none.
        bool vector_leader = false;
        bool prefetch = false;
        int32_t prefetch_stride = 0;
    };

    /**
     * Activity of one slot (all tile instances) during one run(),
     * folded into the latency counters and the busy totals once at
     * the end of that run. A non-load slot's service time is always
     * its plan latency and every edge arrives latency cycles after
     * its bus grant, so counts and waits reproduce every
     * per-execution sample sum exactly.
     */
    struct SlotCount
    {
        uint64_t execs = 0;     ///< Enabled (non-predicated) executions.
        uint64_t load_svc = 0;  ///< Sum of done - ready (loads only).
        uint64_t wait1 = 0;     ///< Bus wait on operand 0's route.
        uint64_t wait2 = 0;     ///< Bus wait on operand 1's route.
    };

    /** One slot on one tile instance: its physical PE and the
     *  permanent fault-plane corruption that reaches it. */
    struct SlotSite
    {
        ic::Coord phys;         ///< Invalid for unmapped slots.
        uint32_t pe_xor = 0;    ///< Stuck-at defects of the PE.
        uint32_t link_xor1 = 0; ///< Dead link on the operand 0 hop.
        uint32_t link_xor2 = 0; ///< Dead link on the operand 1 hop.
    };

    struct Instance
    {
        std::array<uint32_t, riscv::NumUnifiedRegs> regs{};
        std::array<uint64_t, riscv::NumUnifiedRegs> reg_avail{};
        std::unique_ptr<mem::LoadStoreUnit> lsu;
        /** Next-free cycle per lane (NoC bus the plan books). */
        std::vector<uint64_t> bus_free;
        /** Per slot; rebuilt by configure() and injectFaults(). */
        std::vector<SlotSite> sites;
        uint64_t next_floor = 0;
        uint64_t last_end = 0;
        uint64_t iterations = 0;
        bool done = false;

        // Per-instance cycle attribution (profiling only): the
        // exposed wall windows of this instance's iterations, split
        // compute / NoC stall / mem stall. The critical (slowest)
        // instance's split is the run's device-cycle attribution.
        uint64_t prof_compute = 0;
        uint64_t prof_noc = 0;
        uint64_t prof_mem = 0;
    };

    /**
     * Profiling scratch: how each slot's completion this iteration
     * was produced, enough to walk the critical path backwards.
     */
    struct ProfEdge
    {
        int32_t src = -1;  ///< Producer slot index.
        uint64_t t0 = 0;   ///< Producer completion (segment start).
        uint64_t arr = 0;  ///< Arrival at the consumer.
        bool noc = false;  ///< Shared-bus or fallback-bus transfer.
        bool used = false;
    };

    struct ProfSlot
    {
        uint64_t ready = 0; ///< Service start (== done when disabled).
        uint64_t done = 0;
        bool mem = false;   ///< Service segment is memory time.
        std::array<ProfEdge, 3> e; ///< Operand 0/1, max guard input.
    };

    /**
     * One iteration of one instance; returns loop-continue. Adds the
     * iteration's activity to @p count (one entry per slot). Prof
     * selects the instantiation that feeds the attached profile; the
     * other has no profiler code at all.
     */
    template <bool Prof>
    bool runIteration(Instance &inst, AccelRunResult &result,
                      SlotCount *count);

    /** Add one run's SlotCounts to the latency counters and the
     *  result's busy totals. */
    void foldCounts(const std::vector<SlotCount> &counts,
                    AccelRunResult &result);

    /**
     * Decompose one iteration's exposed wall window [lo, end) of
     * @p inst by walking the critical path backwards through the
     * recorded ProfSlot bindings (see prof/profile.hh for the model).
     * The attributed segments tile the window exactly.
     */
    void attributeIteration(Instance &inst, uint64_t lo, uint64_t end);

    /** Physical PE a slot executes on for a given tile instance. */
    ic::Coord physicalPos(ic::Coord pos, size_t inst_index) const;

    /** Resolve the transfer from slot @p src into slot @p dst,
     *  giving its NoC bus a lane if it has none yet. */
    Route route(dfg::NodeId src, size_t dst);

    /** Rebuild every instance's SlotSite table for the current
     *  configuration and fault plane. */
    void resolveSites();

    const AccelParams params_;
    mem::MainMemory *memory_; ///< Rebindable (see rebindMemory).
    mem::MemHierarchy hierarchy_;
    mem::PortPool ports_;
    std::unique_ptr<ic::Interconnect> ic_;

    AcceleratorConfig config_;
    std::vector<Instance> instances_;
    std::string trace_track_ = "accel";
    FaultPlane fault_plane_;
    prof::AccelProfile *prof_ = nullptr;
    std::vector<ProfSlot> prof_slot_; ///< Sized with the config.
    /** Per lane: the attached profile's entry for its bus, resolved
     *  on the lane's first transfer in a run (null until then). */
    std::vector<prof::LinkStats *> prof_lane_;

    /** Per-PE busy tracking keyed by flattened virtual position
     *  (pipelining resource constraint; time-multiplexed nodes share
     *  a key). Keys past the mapped range are the per-slot fallback
     *  keys for unmapped nodes (see SlotPlan::pe_key). */
    std::vector<std::vector<uint64_t>> pe_free_; // [instance][key]
    /** The configuration compiled for the device loop (configure). */
    std::vector<SlotPlan> plan_;
    std::vector<Route> guard_routes_;
    /** Live-outs as (unified register, final writer slot), in
     *  register order. */
    std::vector<std::pair<int, int32_t>> live_outs_;
    /** Slots some slot reads before (or as) it executes in an
     *  iteration: the only scratch the iteration must reset. */
    std::vector<int32_t> read_ahead_;
    /** Interconnect bus id of each lane, in first-booked order: the
     *  plan's buses, numbered densely. */
    std::vector<int> lane_bus_;

    // Per-iteration scratch, sized once in configure() and reused so
    // the per-cycle loop performs no heap allocation. Every slot
    // writes its entries before any later slot reads them, so only
    // read_ahead_ slots are reset per iteration.
    std::vector<uint32_t> iter_out_;
    std::vector<uint64_t> iter_done_;
    std::vector<char> iter_taken_;
    std::vector<std::pair<int, uint64_t>> iter_group_done_;

    // Performance counters (paper §5.2): per-node and per-edge.
    std::vector<CycleAverage> node_latency_;
    std::vector<CycleAverage> edge_latency1_;
    std::vector<CycleAverage> edge_latency2_;
};

} // namespace mesa::accel

#endif // MESA_ACCEL_ACCELERATOR_HH
