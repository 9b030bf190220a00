/**
 * @file
 * Fault-tolerance knobs for the MESA controller. Off by default: the
 * paper's controller assumes a reliable fabric; enabling this models
 * a self-checking deployment where every offload is guarded by the
 * detection/recovery pipeline described in ARCHITECTURE.md
 * ("Reliability").
 */

#ifndef MESA_FAULT_PARAMS_HH
#define MESA_FAULT_PARAMS_HH

#include <cstdint>

namespace mesa::fault
{

/**
 * Backoff/decay tuning for the region quarantine blacklist. The
 * defaults reproduce the original hard-coded behaviour: strikes cap
 * at 16 (so the skip sentence saturates at 2^15 encounters) and two
 * consecutive clean offloads forgive one strike.
 */
struct QuarantineParams
{
    /** Strike ceiling; the skip sentence is 2^(strikes-1). */
    int max_strikes = 16;

    /** Consecutive clean offloads that forgive one strike. */
    int forgive_successes = 2;
};

/** Controller-side fault tolerance configuration. */
struct FaultToleranceParams
{
    /** Master switch: checkpoint/rollback, CRC gate, quarantine. */
    bool enabled = false;

    /**
     * Checked mode: after every completed offload, roll back to the
     * checkpoint and re-execute the region on the functional emulator
     * (golden model), comparing architectural state and memory
     * byte-exactly. A mismatch adopts the golden result — detection
     * and recovery in one step (DMR in time, not space).
     */
    bool checked_mode = false;

    /**
     * Per-offload fabric cycle budget in fault mode, threaded through
     * every epoch (detection point 2). Independent of the hard device
     * cap in AccelParams::watchdog_cycles, which applies always.
     * 0 = only the device cap applies.
     */
    uint64_t watchdog_cycles = 2'000'000;

    /**
     * Use abstract-interpretation certificates (src/absint) to gate
     * the runtime checks. Offloads whose memory footprint is proven
     * inside the resident region skip the golden-model memory-snapshot
     * comparison in checked mode (architectural state is still
     * compared byte-exactly; the golden model still re-executes, so
     * memory always ends at the golden result -- the skip can never
     * admit a silent corruption). Offloads with a proven trip count
     * run under a certificate-derived watchdog budget, tightening
     * watchdog_cycles when the proof allows. Each gated offload
     * records mesa.absint.* counters and a certificate trace event.
     *
     * The iteration watchdog is not gated: every fault-mode offload
     * with a proven trip count runs under it, so a hang is detected
     * after at most that many iterations.
     */
    bool certificate_gating = false;

    /**
     * Drain-and-relocate instead of degrade-in-place: after a
     * watchdog-detected fault retires PEs, re-map the interrupted
     * region around the blocked set and resume it from the restored
     * checkpoint on the repaired placement (one attempt; a second
     * fault falls back to CPU re-execution as before). Counted under
     * mesa.migrate.* in the stats registry.
     */
    bool migrate_on_fault = false;

    /** Region-quarantine backoff/decay tuning. */
    QuarantineParams quarantine;

    /** Seed for in-situ injection hooks (CLI --seed). */
    uint64_t seed = 0;
};

} // namespace mesa::fault

#endif // MESA_FAULT_PARAMS_HH
