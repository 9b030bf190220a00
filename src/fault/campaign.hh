/**
 * @file
 * Seeded fault-injection campaigns over the workload suite. One
 * campaign runs every kernel under repeated injections drawn from a
 * deterministic RNG, cycling through the five FaultKind models, and
 * classifies every injection against a pre-computed golden run:
 *
 *   recovered — final state matches golden and the controller
 *               reported a detection (the recovery pipeline worked);
 *   benign    — matches golden with no detection (the fault landed on
 *               unused hardware / a masked value);
 *   corrupted — detection fired but the final state is wrong
 *               (recovery failed: the bug class CI must catch);
 *   silent    — wrong state, no detection (silent data corruption —
 *               the headline number; must be zero in checked mode).
 *
 * Permanent faults (stuck PE, dead link) get a second offload of the
 * same region on the same controller so the remap path is exercised:
 * the campaign asserts the new placement puts zero nodes on
 * quarantined PEs (remap_checks / remap_clean).
 */

#ifndef MESA_FAULT_CAMPAIGN_HH
#define MESA_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "accel/params.hh"
#include "fault/injector.hh"
#include "fault/params.hh"
#include "workloads/kernel.hh"

namespace mesa::fault
{

/** Campaign configuration. */
struct CampaignParams
{
    uint64_t seed = 1;
    int injections_per_kernel = 32;
    workloads::SuiteScale scale{128};
    /** Kernel names to run; empty = the full suite. */
    std::vector<std::string> kernels;
    /** Golden-model checked mode (required for the zero-silent-
     *  corruption guarantee). */
    bool checked = true;
    /** Per-offload fault watchdog budget (cycles). */
    uint64_t watchdog_cycles = 50'000;
    /**
     * Certificate gating: run the abstract-interpretation certifier
     * on every offload; footprint-certified offloads skip the checked-
     * mode memory-snapshot comparison (state compare and golden
     * re-execution remain), and proven trip counts derive tighter
     * watchdog budgets. The zero-silent-corruption gate must hold
     * unchanged.
     */
    bool certify = false;
    /**
     * Drain-and-relocate (mesa_faultsim --migrate): after a watchdog
     * trip the controller live-migrates the checkpointed offload onto
     * the degraded fabric (blocked PEs routed around) instead of
     * falling straight back to the CPU. The zero-silent-corruption
     * gate must hold with faults landing mid-migration, and the
     * report adds migration cost vs re-translation cost.
     */
    bool migrate = false;
    /** Quarantine backoff/decay knobs threaded to every controller. */
    QuarantineParams quarantine;
    accel::AccelParams accel = accel::AccelParams::m128();
    /**
     * Worker threads for the injection loop (<= 0 = hardware
     * concurrency). Injections shard within each kernel, each on its
     * own memory/controller/registry, and merge in index order, so
     * results — including writeCampaignJson bytes — are identical to
     * a jobs=1 run for the same seed.
     */
    int jobs = 1;
};

/** Per-kernel campaign outcome. */
struct KernelCampaignResult
{
    std::string name;
    bool offloadable = true; ///< The clean region maps at all.
    int injections = 0;
    int detected = 0;
    int recovered = 0;
    int benign = 0;
    int corrupted = 0;
    int silent = 0;
    /** Injections per fault kind. */
    int by_kind[FaultKindCount] = {};
    /** Permanent-fault remap verification. */
    int remap_checks = 0;
    int remap_clean = 0;
    /** Certificate gating (params.certify): injections whose offload
     *  was footprint-certified / skipped the memory-snapshot compare. */
    int certified = 0;
    int snapshot_skips = 0;
    /** Drain-and-relocate (params.migrate): relocation attempts after
     *  watchdog trips, how many resumed on the fabric, and the cycle
     *  split between re-translation and bitstream streaming. */
    int relocations = 0;
    int relocation_success = 0;
    uint64_t migrate_translate_cycles = 0;
    uint64_t migrate_stream_cycles = 0;
};

/** Whole-campaign outcome. */
struct CampaignResult
{
    CampaignParams params;
    std::vector<KernelCampaignResult> kernels;

    int totalInjections() const;
    int totalDetected() const;
    int totalRecovered() const;
    int totalBenign() const;
    int totalCorrupted() const;
    int totalSilent() const;
    int totalRemapChecks() const;
    int totalRemapClean() const;
    int totalCertified() const;
    int totalSnapshotSkips() const;
    int totalRelocations() const;
    int totalRelocationSuccess() const;
    uint64_t totalMigrateTranslateCycles() const;
    uint64_t totalMigrateStreamCycles() const;

    /** The CI gate: no silent corruption, no failed recovery, and
     *  every remap check placed off the quarantined PEs. */
    bool
    clean() const
    {
        return totalSilent() == 0 && totalCorrupted() == 0 &&
               totalRemapChecks() == totalRemapClean();
    }

    /** Flat numeric view of everything (the determinism test compares
     *  two same-seed campaigns through this). */
    std::map<std::string, double> statsSnapshot() const;

  private:
    /** One per-kernel counter summed over every kernel. */
    template <typename T>
    T
    sum(T KernelCampaignResult::*field) const
    {
        T n = 0;
        for (const auto &k : kernels)
            n += k.*field;
        return n;
    }
};

/** Run the campaign (deterministic for a given params.seed). */
CampaignResult runCampaign(const CampaignParams &params);

/** Human-readable per-kernel coverage table. */
void printCampaignTable(const CampaignResult &result, std::ostream &os);

/** Machine-readable report (mesa_faultsim --json). */
void writeCampaignJson(const CampaignResult &result, std::ostream &os);

} // namespace mesa::fault

#endif // MESA_FAULT_CAMPAIGN_HH
