#include "fault/campaign.hh"

#include <algorithm>
#include <iomanip>

#include "cpu/system.hh"
#include "fault/checkpoint.hh"
#include "mesa/controller.hh"
#include "riscv/emulator.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "util/stats_registry.hh"
#include "workloads/suite.hh"

namespace mesa::fault
{

namespace
{

/** Golden reference: the kernel start-to-halt on the emulator. */
struct Golden
{
    riscv::ArchState state;
    MemSnapshot memory;
    uint64_t instructions = 0;
};

Golden
runGolden(const workloads::Kernel &kernel, uint64_t max_steps)
{
    mem::MainMemory memory;
    kernel.plant(memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    emu.run(max_steps);

    Golden g;
    g.state = emu.state();
    g.memory = memory.snapshot();
    g.instructions = emu.instret();
    return g;
}

/** Does the installed configuration avoid every quarantined PE? */
bool
placementAvoids(const accel::AcceleratorConfig &config,
                const FaultyPeMap &faulty, int device_rows)
{
    for (const auto &slot : config.slots) {
        ic::Coord base = slot.pos;
        if (config.time_multiplex > 1)
            base.r %= device_rows;
        for (const auto &inst : config.instances) {
            const ic::Coord phys{base.r + inst.origin.r,
                                 base.c + inst.origin.c};
            if (faulty.faulty(phys))
                return false;
        }
    }
    return true;
}

} // namespace

int CampaignResult::totalInjections() const
{ return sum(&KernelCampaignResult::injections); }
int CampaignResult::totalDetected() const
{ return sum(&KernelCampaignResult::detected); }
int CampaignResult::totalRecovered() const
{ return sum(&KernelCampaignResult::recovered); }
int CampaignResult::totalBenign() const
{ return sum(&KernelCampaignResult::benign); }
int CampaignResult::totalCorrupted() const
{ return sum(&KernelCampaignResult::corrupted); }
int CampaignResult::totalSilent() const
{ return sum(&KernelCampaignResult::silent); }
int CampaignResult::totalRemapChecks() const
{ return sum(&KernelCampaignResult::remap_checks); }
int CampaignResult::totalRemapClean() const
{ return sum(&KernelCampaignResult::remap_clean); }
int CampaignResult::totalCertified() const
{ return sum(&KernelCampaignResult::certified); }
int CampaignResult::totalSnapshotSkips() const
{ return sum(&KernelCampaignResult::snapshot_skips); }
int CampaignResult::totalRelocations() const
{ return sum(&KernelCampaignResult::relocations); }
int CampaignResult::totalRelocationSuccess() const
{ return sum(&KernelCampaignResult::relocation_success); }
uint64_t CampaignResult::totalMigrateTranslateCycles() const
{ return sum(&KernelCampaignResult::migrate_translate_cycles); }
uint64_t CampaignResult::totalMigrateStreamCycles() const
{ return sum(&KernelCampaignResult::migrate_stream_cycles); }

std::map<std::string, double>
CampaignResult::statsSnapshot() const
{
    std::map<std::string, double> out;
    for (const auto &k : kernels) {
        const std::string p = k.name + ".";
        out[p + "injections"] = k.injections;
        out[p + "detected"] = k.detected;
        out[p + "recovered"] = k.recovered;
        out[p + "benign"] = k.benign;
        out[p + "corrupted"] = k.corrupted;
        out[p + "silent"] = k.silent;
        out[p + "remap_checks"] = k.remap_checks;
        out[p + "remap_clean"] = k.remap_clean;
        out[p + "certified"] = k.certified;
        out[p + "snapshot_skips"] = k.snapshot_skips;
        out[p + "relocations"] = double(k.relocations);
        out[p + "relocation_success"] = double(k.relocation_success);
        out[p + "migrate_translate_cycles"] =
            double(k.migrate_translate_cycles);
        out[p + "migrate_stream_cycles"] =
            double(k.migrate_stream_cycles);
        for (int i = 0; i < FaultKindCount; ++i)
            out[p + "kind." + faultKindName(FaultKind(i))] =
                k.by_kind[i];
    }
    out["total.injections"] = totalInjections();
    out["total.detected"] = totalDetected();
    out["total.recovered"] = totalRecovered();
    out["total.benign"] = totalBenign();
    out["total.corrupted"] = totalCorrupted();
    out["total.silent"] = totalSilent();
    out["total.certified"] = totalCertified();
    out["total.snapshot_skips"] = totalSnapshotSkips();
    out["total.relocations"] = totalRelocations();
    out["total.relocation_success"] = totalRelocationSuccess();
    out["total.migrate_translate_cycles"] =
        double(totalMigrateTranslateCycles());
    out["total.migrate_stream_cycles"] =
        double(totalMigrateStreamCycles());
    return out;
}

namespace
{

/** One injection's classification, produced by a worker shard and
 *  merged into KernelCampaignResult in index order. */
struct InjectionOutcome
{
    FaultKind kind = FaultKind::ConfigBitFlip;
    bool offloaded = false;
    bool detected = false;
    bool match = false;
    bool remap_checked = false;
    bool remap_clean = false;
    bool certified = false;
    bool snapshot_skipped = false;
    uint64_t relocations = 0;
    uint64_t relocation_success = 0;
    uint64_t migrate_translate_cycles = 0;
    uint64_t migrate_stream_cycles = 0;
};

/**
 * Run one seeded injection. Every piece of simulator state — memory,
 * controller, emulator, stats registry — is constructed here, so the
 * shard touches nothing shared and the outcome is a pure function of
 * (campaign seed, kernel index, injection index).
 */
InjectionOutcome
runInjection(const CampaignParams &params,
             const workloads::Kernel &kernel,
             const std::vector<riscv::Instruction> &body,
             const Golden &golden, uint64_t step_bound, size_t ki,
             int j)
{
    const FaultKind kind = FaultKind(j % FaultKindCount);
    // Independent stream per (kernel, injection): the whole
    // fault plan is a pure function of the campaign seed.
    SplitMix64 rng = SplitMix64(params.seed)
                         .fork(ki + 1)
                         .fork(uint64_t(j) + 1);

    mem::MainMemory memory;
    kernel.plant(memory);

    core::MesaParams mp;
    mp.accel = params.accel;
    mp.fault.enabled = true;
    mp.fault.checked_mode = params.checked;
    mp.fault.watchdog_cycles = params.watchdog_cycles;
    mp.fault.certificate_gating = params.certify;
    mp.fault.migrate_on_fault = params.migrate;
    mp.fault.quarantine = params.quarantine;
    mp.fault.seed = params.seed;
    core::MesaController mesa(mp, memory);
    StatsRegistry reg;
    mesa.attachStats(&reg);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);

    accel::FaultPlane plane;
    switch (kind) {
      case FaultKind::ConfigBitFlip: {
        auto fired = std::make_shared<bool>(false);
        SplitMix64 crng = rng.fork(3);
        mesa.setConfigCorruptor(
            [fired, crng](accel::AcceleratorConfig &cfg) mutable {
                if (*fired)
                    return;
                *fired = true;
                corruptConfig(cfg, crng);
            });
        break;
      }
      case FaultKind::TransientDatapath:
        plane.transients.push_back(
            makeTransient(rng, body.size(), 64));
        break;
      case FaultKind::StuckPe:
        plane.stuck_pes.push_back(makeStuckPe(rng, params.accel));
        break;
      case FaultKind::DeadLink:
        plane.dead_links.push_back(makeDeadLink(rng, params.accel));
        break;
      case FaultKind::OffloadHang:
        plane.stuck_branches.push_back(makeHang(rng));
        break;
    }
    if (!plane.empty())
        mesa.accelerator().injectFaults(plane);

    auto os = mesa.offloadLoop(body, emu.state(), kernel.parallel);
    emu.run(step_bound);

    InjectionOutcome out;
    out.kind = kind;
    out.offloaded = os.has_value();
    out.certified = os && os->certified;
    out.snapshot_skipped = os && os->snapshot_skipped;
    out.detected = reg.value("mesa.fault.crc_failures") +
                       reg.value("mesa.fault.watchdog_trips") +
                       reg.value("mesa.fault.mismatches") >
                   0.0;
    out.match =
        emu.state() == golden.state &&
        memorySnapshotsEqual(memory.snapshot(), golden.memory);
    // Registry reads return 0.0 when migrate-on-fault never armed.
    out.relocations =
        uint64_t(reg.value("mesa.migrate.relocations"));
    out.relocation_success =
        uint64_t(reg.value("mesa.migrate.relocation_success"));
    out.migrate_translate_cycles =
        uint64_t(reg.value("mesa.migrate.translate_cycles"));
    out.migrate_stream_cycles =
        uint64_t(reg.value("mesa.migrate.stream_cycles"));

    // Permanent faults: offload the region again on the same
    // (now degraded) controller and verify the remap avoids
    // every quarantined PE.
    const bool permanent =
        kind == FaultKind::StuckPe || kind == FaultKind::DeadLink;
    if (permanent && !mesa.faultyPes().empty()) {
        kernel.plant(memory);
        riscv::Emulator emu2(memory);
        kernel.enterLoop(emu2);
        auto os2 =
            mesa.offloadLoop(body, emu2.state(), kernel.parallel);
        if (os2 && os2->accel_iterations > 0) {
            out.remap_checked = true;
            out.remap_clean =
                placementAvoids(mesa.accelerator().config(),
                                mesa.faultyPes(), params.accel.rows);
        }
    }
    return out;
}

} // namespace

CampaignResult
runCampaign(const CampaignParams &params)
{
    CampaignResult result;
    result.params = params;

    std::vector<workloads::Kernel> kernels =
        workloads::selectKernels(params.kernels, params.scale);

    for (size_t ki = 0; ki < kernels.size(); ++ki) {
        const workloads::Kernel &kernel = kernels[ki];
        const uint64_t step_bound =
            4 * kernel.iterations * kernel.program.words.size() +
            1'000'000;
        const Golden golden = runGolden(kernel, step_bound);
        const std::vector<riscv::Instruction> body = kernel.loopBody();

        KernelCampaignResult kr;
        kr.name = kernel.name;
        bool any_offload = false;

        // Shard by injection: every shard builds its own memory /
        // controller / registry in runInjection, and the ordered
        // commit folds outcomes exactly as the serial loop would.
        const size_t n = size_t(
            std::max(0, params.injections_per_kernel));
        std::vector<InjectionOutcome> outcomes(n);
        parallelForOrdered(
            n, params.jobs,
            [&](size_t j) {
                outcomes[j] = runInjection(params, kernel, body,
                                           golden, step_bound, ki,
                                           int(j));
            },
            [&](size_t j) {
                const InjectionOutcome &o = outcomes[j];
                any_offload = any_offload || o.offloaded;
                ++kr.injections;
                ++kr.by_kind[int(o.kind)];
                kr.detected += o.detected ? 1 : 0;
                if (o.match && o.detected)
                    ++kr.recovered;
                else if (o.match)
                    ++kr.benign;
                else if (o.detected)
                    ++kr.corrupted;
                else
                    ++kr.silent;
                kr.remap_checks += o.remap_checked ? 1 : 0;
                kr.remap_clean += o.remap_clean ? 1 : 0;
                kr.certified += o.certified ? 1 : 0;
                kr.snapshot_skips += o.snapshot_skipped ? 1 : 0;
                kr.relocations += int(o.relocations);
                kr.relocation_success += int(o.relocation_success);
                kr.migrate_translate_cycles +=
                    o.migrate_translate_cycles;
                kr.migrate_stream_cycles += o.migrate_stream_cycles;
            });
        kr.offloadable = any_offload;
        result.kernels.push_back(std::move(kr));
    }
    return result;
}

void
printCampaignTable(const CampaignResult &result, std::ostream &os)
{
    os << std::left << std::setw(14) << "kernel" << std::right
       << std::setw(8) << "inject" << std::setw(9) << "detected"
       << std::setw(10) << "recovered" << std::setw(8) << "benign"
       << std::setw(10) << "corrupted" << std::setw(8) << "silent"
       << std::setw(8) << "remap" << "\n";
    os << std::string(75, '-') << "\n";
    auto row = [&](const std::string &name, int inj, int det, int rec,
                   int ben, int cor, int sil, int rchk, int rcln) {
        os << std::left << std::setw(14) << name << std::right
           << std::setw(8) << inj << std::setw(9) << det
           << std::setw(10) << rec << std::setw(8) << ben
           << std::setw(10) << cor << std::setw(8) << sil
           << std::setw(5) << rcln << "/" << rchk << "\n";
    };
    for (const auto &k : result.kernels)
        row(k.offloadable ? k.name : k.name + "*", k.injections,
            k.detected, k.recovered, k.benign, k.corrupted, k.silent,
            k.remap_checks, k.remap_clean);
    os << std::string(75, '-') << "\n";
    row("TOTAL", result.totalInjections(), result.totalDetected(),
        result.totalRecovered(), result.totalBenign(),
        result.totalCorrupted(), result.totalSilent(),
        result.totalRemapChecks(), result.totalRemapClean());
    os << "(* = region never offloaded: faults land on idle hardware)"
       << "\n";
    os << "gate: " << (result.clean() ? "CLEAN" : "DIRTY")
       << " (silent=" << result.totalSilent()
       << " corrupted=" << result.totalCorrupted()
       << " remap=" << result.totalRemapClean() << "/"
       << result.totalRemapChecks() << ")\n";
    if (result.params.certify)
        os << "certify: " << result.totalCertified()
           << " certified offloads, " << result.totalSnapshotSkips()
           << " snapshot compares skipped\n";
    if (result.params.migrate) {
        os << "migrate: " << result.totalRelocationSuccess() << "/"
           << result.totalRelocations()
           << " relocations resumed on the fabric\n";
        os << "migrate cost per kernel (translate+stream cycles):\n";
        for (const auto &k : result.kernels) {
            if (k.relocations == 0)
                continue;
            os << "  " << std::left << std::setw(14) << k.name
               << std::right << " translate="
               << k.migrate_translate_cycles
               << " stream=" << k.migrate_stream_cycles << " over "
               << k.relocations << " relocations\n";
        }
    }
}

void
writeCampaignJson(const CampaignResult &result, std::ostream &os)
{
    JsonWriter w;
    w.beginObject();
    w.field("seed", result.params.seed);
    w.field("injections_per_kernel",
            result.params.injections_per_kernel);
    w.field("checked", result.params.checked);
    w.field("certify", result.params.certify);
    w.field("migrate", result.params.migrate);
    w.field("watchdog_cycles", result.params.watchdog_cycles);
    w.key("kernels").beginArray();
    for (const auto &k : result.kernels) {
        w.beginObject();
        w.field("name", k.name);
        w.field("offloadable", k.offloadable);
        w.field("injections", k.injections);
        w.field("detected", k.detected);
        w.field("recovered", k.recovered);
        w.field("benign", k.benign);
        w.field("corrupted", k.corrupted);
        w.field("silent", k.silent);
        w.field("remap_checks", k.remap_checks);
        w.field("remap_clean", k.remap_clean);
        w.field("certified", k.certified);
        w.field("snapshot_skips", k.snapshot_skips);
        w.field("relocations", k.relocations);
        w.field("relocation_success", k.relocation_success);
        w.field("migrate_translate_cycles", k.migrate_translate_cycles);
        w.field("migrate_stream_cycles", k.migrate_stream_cycles);
        w.key("by_kind").beginObject();
        for (int i = 0; i < FaultKindCount; ++i)
            w.field(faultKindName(FaultKind(i)), k.by_kind[i]);
        w.end();
        w.end();
    }
    w.end();
    w.key("totals").beginObject();
    w.field("injections", result.totalInjections());
    w.field("detected", result.totalDetected());
    w.field("recovered", result.totalRecovered());
    w.field("benign", result.totalBenign());
    w.field("corrupted", result.totalCorrupted());
    w.field("silent", result.totalSilent());
    w.field("remap_checks", result.totalRemapChecks());
    w.field("remap_clean", result.totalRemapClean());
    w.field("certified", result.totalCertified());
    w.field("snapshot_skips", result.totalSnapshotSkips());
    w.field("migrations", result.totalRelocations());
    w.field("migration_success", result.totalRelocationSuccess());
    w.field("migrate_translate_cycles",
            result.totalMigrateTranslateCycles());
    w.field("migrate_stream_cycles",
            result.totalMigrateStreamCycles());
    w.end();
    w.field("clean", result.clean());
    w.end();
    os << w.str() << "\n";
}

} // namespace mesa::fault
