/**
 * @file
 * Command-line driver: run any suite kernel on a MESA-enabled system
 * and print a full offload report. The knobs mirror MesaParams.
 *
 *   ./build/examples/mesa_run --kernel nn --accel M-128
 *   ./build/examples/mesa_run --kernel srad --accel M-64 --timemux
 *   ./build/examples/mesa_run --kernel kmeans --no-tiling --scale 8192
 *   ./build/examples/mesa_run --list
 */

#include <cstring>
#include <fstream>

#include "fault/injector.hh"
#include "mesa/translation_store.hh"
#include "sched/multicore.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/trace.hh"
#include "workloads/suite.hh"
#include <iostream>

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

void
usage()
{
    std::cout <<
        "mesa_run — transparent loop offloading demo\n"
        "  --kernel <name>     suite kernel to run (default nn)\n"
        "  --accel <cfg>       M-64 | M-128 | M-512 (default M-128)\n"
        "  --scale <n>         iteration count (default 8192)\n"
        "  --no-tiling         disable SDFG duplication\n"
        "  --no-pipelining     disable iteration overlap\n"
        "  --no-iterative      disable runtime re-optimization\n"
        "  --unroll            enable the unrolling extension\n"
        "  --timemux           enable PE time-multiplexing\n"
        "  --verify            statically verify every prepared\n"
        "                      config before offload (mesa.verify.*)\n"
        "  --fault-tolerance   guard offloads: CRC gate, watchdog,\n"
        "                      checkpoint/rollback, quarantine\n"
        "  --checked           fault tolerance plus golden-model\n"
        "                      comparison after every offload\n"
        "  --faults <n>        inject n seeded transient datapath\n"
        "                      SEUs into the fabric before the run\n"
        "  --migrate           drain-and-relocate: live-migrate a\n"
        "                      tripped offload onto the degraded\n"
        "                      fabric (implies --fault-tolerance)\n"
        "  --q-max-strikes <n> quarantine strike cap (default 16)\n"
        "  --q-forgive <n>     clean runs to decay one strike\n"
        "                      (default 2)\n"
        "  --seed <n>          RNG seed for fault injection\n"
        "                      (default 1)\n"
        "  --tenants <n>       split the iteration space across n\n"
        "                      threads sharing one scheduled device\n"
        "  --sched-policy <p>  round-robin | priority |\n"
        "                      shortest-remaining (with --tenants)\n"
        "  --sched-ways <n>    spatial partitions (default = tenants)\n"
        "  --sched-epoch <n>   preemption slice iterations (default 256)\n"
        "  --json              machine-readable output\n"
        "  --cache-dir <dir>   persistent translation cache: warm\n"
        "                      starts skip encode/map/config-gen;\n"
        "                      results are bit-identical either way\n"
        "  --trace-out <file>  write a Chrome trace-event timeline of\n"
        "                      the MESA run (load in Perfetto)\n"
        "  --stats-json <file> write the full stats registry as JSON\n"
        "  --stats-every <n>   snapshot stats every n accel iterations\n"
        "  --log-level <lvl>   error | warn | info | debug\n"
        "  --list              list available kernels\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kernel_name = "nn";
    std::string accel_name = "M-128";
    std::string trace_out;
    std::string stats_json;
    uint64_t scale = 8192;
    uint64_t stats_every = 0;
    uint64_t seed = 1;
    uint64_t inject_faults = 0;
    bool json = false;
    core::MesaParams params;
    int tenants = 1;
    int sched_ways = 0; // 0 = auto (min(tenants, maxWays))
    sched::SchedParams sched_params;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                exit(1);
            }
            return argv[++i];
        };
        if (arg == "--kernel") {
            kernel_name = next();
        } else if (arg == "--accel") {
            accel_name = next();
        } else if (arg == "--scale") {
            scale = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--no-tiling") {
            params.enable_tiling = false;
        } else if (arg == "--no-pipelining") {
            params.enable_pipelining = false;
        } else if (arg == "--no-iterative") {
            params.iterative_optimization = false;
        } else if (arg == "--unroll") {
            params.enable_unrolling = true;
        } else if (arg == "--timemux") {
            params.enable_time_multiplexing = true;
        } else if (arg == "--verify") {
            params.verify_before_offload = true;
        } else if (arg == "--fault-tolerance") {
            params.fault.enabled = true;
        } else if (arg == "--checked") {
            params.fault.enabled = true;
            params.fault.checked_mode = true;
        } else if (arg == "--faults") {
            inject_faults = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--migrate") {
            params.fault.enabled = true;
            params.fault.migrate_on_fault = true;
        } else if (arg == "--q-max-strikes") {
            params.fault.quarantine.max_strikes =
                int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--q-forgive") {
            params.fault.quarantine.forgive_successes =
                int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--tenants") {
            tenants = int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--sched-policy") {
            const std::string name = next();
            auto p = sched::policyByName(name);
            if (!p)
                fatal("unknown scheduling policy ", name);
            sched_params.policy = *p;
        } else if (arg == "--sched-ways") {
            sched_ways = int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--sched-epoch") {
            sched_params.epoch_iterations =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--cache-dir") {
            core::TranslationStore::global().setDirectory(next());
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--stats-json") {
            stats_json = next();
        } else if (arg == "--stats-every") {
            stats_every = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--log-level") {
            const std::string name = next();
            auto level = logLevelByName(name);
            if (!level)
                fatal("unknown log level ", name);
            Logger::global().setLevel(*level);
        } else if (arg == "--list") {
            workloads::listKernels(std::cout);
            return 0;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    params.accel = accel::AccelParams::byName(accel_name);

    const auto kernel = workloads::kernelByName(kernel_name, {scale});

    // Multi-tenant path: N threads share one scheduled accelerator
    // (spatial partitioning + time-multiplexing, see src/sched/).
    if (tenants > 1) {
        sched_params.mesa = params;
        sched_params.spatial_ways =
            sched_ways > 0
                ? sched_ways
                : std::min(tenants,
                           sched::maxWays(params.accel,
                                          kernel.loopBody().size()));
        sched::SharedRunParams sp;
        sp.sched = sched_params;

        if (!trace_out.empty()) {
            Tracer::global().clear();
            Tracer::global().enable();
        }
        mem::MainMemory memory;
        const auto shared =
            sched::runShared(sp, memory, kernel, tenants);
        if (!trace_out.empty()) {
            Tracer &tracer = Tracer::global();
            tracer.enable(false);
            std::ofstream f(trace_out);
            if (!f)
                fatal("cannot open trace output file ", trace_out);
            tracer.exportJson(f);
        }
        if (!stats_json.empty()) {
            StatsRegistry stats;
            shared.sched.registerInto(stats);
            JsonWriter w;
            stats.toJson(w);
            std::ofstream f(stats_json);
            if (!f)
                fatal("cannot open stats output file ", stats_json);
            f << w.str() << "\n";
        }

        if (json) {
            JsonWriter w;
            w.beginObject()
                .field("kernel", kernel.name)
                .field("tenants", tenants)
                .field("ways", shared.sched.ways)
                .field("policy",
                       sched::policyName(sp.sched.policy))
                .field("makespan_cycles", shared.makespan_cycles)
                .field("iterations", shared.total_iterations)
                .field("occupancy", shared.sched.occupancy)
                .field("fairness_jain", shared.sched.fairnessJain())
                .field("switches", shared.sched.total_switches)
                .field("all_completed", shared.all_completed)
                .end();
            std::cout << w.str() << "\n";
            return 0;
        }
        std::cout << "kernel " << kernel.name << ": " << tenants
                  << " tenants on " << params.accel.name << ", "
                  << shared.sched.ways << " ways, "
                  << sched::policyName(sp.sched.policy) << "\n";
        std::cout << "makespan    : " << shared.makespan_cycles
                  << " cycles ("
                  << TextTable::num(100.0 * shared.sched.occupancy, 1)
                  << "% occupancy, Jain "
                  << TextTable::num(shared.sched.fairnessJain())
                  << ", imbalance "
                  << TextTable::num(shared.imbalance()) << ")\n";
        for (const auto &t : shared.sched.tenants) {
            std::cout << "  tenant " << t.tenant << ": "
                      << t.iterations << " iters, wait "
                      << t.wait_cycles << ", run " << t.run_cycles
                      << ", " << t.switches << " switches, "
                      << t.slices << " slices"
                      << (t.completed ? "" : " (INCOMPLETE)")
                      << "\n";
        }
        if (!shared.all_completed)
            std::cout << "WARNING: not every tenant completed\n";
        return 0;
    }
    if (!json) {
        std::cout << "kernel " << kernel.name << " ("
                  << kernel.iterations << " iterations, "
                  << (kernel.parallel ? "omp-parallel" : "serial")
                  << ") on " << params.accel.name << "\n\n";
    }

    const CpuRun multi = runMulticoreBaseline(kernel);
    const CpuRun single = runSingleCoreBaseline(kernel);

    // Seeded in-situ injection: a deterministic transient-SEU plane
    // installed before the run (the campaign tool mesa_faultsim is
    // the heavier hammer; this exercises one run interactively).
    params.fault.seed = seed;
    accel::FaultPlane plane;
    if (inject_faults > 0) {
        SplitMix64 rng(seed);
        const size_t slots = kernel.loopBody().size();
        for (uint64_t f = 0; f < inject_faults; ++f) {
            plane.transients.push_back(fault::makeTransient(
                rng, slots, std::max<uint64_t>(kernel.iterations, 1)));
        }
    }

    // Tracing covers only the MESA run (the baselines above would
    // otherwise interleave events with an unrelated time base).
    StatsRegistry stats;
    const bool want_stats = !stats_json.empty() || stats_every > 0 ||
                            params.verify_before_offload ||
                            params.fault.enabled;
    if (!trace_out.empty()) {
        Tracer::global().clear();
        Tracer::global().enable();
    }
    const MesaRun run = runMesa(kernel, params,
                                want_stats ? &stats : nullptr,
                                stats_every, &plane);
    if (!trace_out.empty()) {
        Tracer &tracer = Tracer::global();
        tracer.enable(false);
        std::ofstream f(trace_out);
        if (!f)
            fatal("cannot open trace output file ", trace_out);
        tracer.exportJson(f);
        if (!json) {
            std::cout << "trace: " << tracer.eventCount()
                      << " events on " << tracer.tracks().size()
                      << " tracks -> " << trace_out;
            if (tracer.droppedEvents() > 0)
                std::cout << " (" << tracer.droppedEvents()
                          << " dropped)";
            std::cout << "\n";
        }
    }
    if (!stats_json.empty()) {
        run.result.registerInto(stats, "run.");
        JsonWriter w;
        stats.toJson(w);
        std::ofstream f(stats_json);
        if (!f)
            fatal("cannot open stats output file ", stats_json);
        f << w.str() << "\n";
        if (!json)
            std::cout << "stats: " << stats.size() << " entries, "
                      << stats.snapshotCount() << " snapshots -> "
                      << stats_json << "\n";
    }

    if (json) {
        JsonWriter w;
        w.beginObject()
            .field("kernel", kernel.name)
            .field("accel", params.accel.name)
            .field("iterations", kernel.iterations)
            .field("parallel", kernel.parallel);
        if (params.verify_before_offload) {
            w.field("verify_configs_checked",
                    uint64_t(stats.value("mesa.verify.configs_checked")))
                .field("verify_violations",
                       uint64_t(stats.value("mesa.verify.violations")))
                .field("verify_fallbacks",
                       uint64_t(stats.value("mesa.verify.fallbacks")));
        }
        if (params.fault.enabled) {
            w.field("fault_seed", seed)
                .field("fault_injected", inject_faults)
                .field("fault_crc_failures",
                       uint64_t(stats.value("mesa.fault.crc_failures")))
                .field("fault_watchdog_trips",
                       uint64_t(
                           stats.value("mesa.fault.watchdog_trips")))
                .field("fault_mismatches",
                       uint64_t(stats.value("mesa.fault.mismatches")))
                .field("fault_rollbacks",
                       uint64_t(stats.value("mesa.fault.rollbacks")))
                .field("fault_quarantined_pes",
                       uint64_t(
                           stats.value("mesa.fault.quarantined_pes")));
        }
        w
            .field("single_core_cycles", single.run.cycles)
            .field("multicore_cycles", multi.run.cycles)
            .field("multicore_energy_nj", multi.energy_nj)
            .field("mesa_cycles", run.result.total_cycles)
            .field("mesa_energy_nj", run.energy_nj)
            .field("speedup_vs_multicore",
                   double(multi.run.cycles) /
                       double(run.result.total_cycles))
            .key("offloads")
            .beginArray();
        for (const auto &os : run.result.offloads) {
            w.beginObject()
                .field("region_start", uint64_t(os.region_start))
                .field("config_cycles", os.totalConfigCycles())
                .field("tiles", os.tile_factor)
                .field("pipelined", os.pipelined)
                .field("reconfigurations", os.reconfigurations)
                .field("accel_iterations", os.accel_iterations)
                .field("accel_cycles", os.accel_cycles)
                .field("loads", os.accel.loads)
                .field("stores", os.accel.stores)
                .field("dram_accesses", os.accel.dram_accesses)
                .end();
        }
        w.end().end();
        std::cout << w.str() << "\n";
        return 0;
    }

    std::cout << "single core : " << single.run.cycles << " cycles\n";
    std::cout << "16-core CPU : " << multi.run.cycles << " cycles, "
              << TextTable::num(multi.energy_nj / 1000.0, 2) << " uJ\n";
    std::cout << "MESA        : " << run.result.total_cycles
              << " cycles, "
              << TextTable::num(run.energy_nj / 1000.0, 2) << " uJ\n";
    std::cout << "speedup     : "
              << TextTable::num(double(multi.run.cycles) /
                                double(run.result.total_cycles))
              << "x vs multicore, "
              << TextTable::num(double(single.run.cycles) /
                                double(run.result.total_cycles))
              << "x vs single core\n";
    std::cout << "energy eff  : "
              << TextTable::num(multi.energy_nj / run.energy_nj)
              << "x vs multicore\n";
    if (params.verify_before_offload) {
        std::cout << "verify      : "
                  << uint64_t(
                         stats.value("mesa.verify.configs_checked"))
                  << " configs checked, "
                  << uint64_t(stats.value("mesa.verify.violations"))
                  << " violations, "
                  << uint64_t(stats.value("mesa.verify.fallbacks"))
                  << " CPU fallbacks\n";
    }
    if (params.fault.enabled) {
        std::cout << "fault guard : seed " << seed << ", "
                  << inject_faults << " injected; "
                  << uint64_t(stats.value("mesa.fault.crc_failures"))
                  << " CRC rejects, "
                  << uint64_t(stats.value("mesa.fault.watchdog_trips"))
                  << " watchdog trips, "
                  << uint64_t(stats.value("mesa.fault.mismatches"))
                  << " golden mismatches, "
                  << uint64_t(stats.value("mesa.fault.rollbacks"))
                  << " rollbacks, "
                  << uint64_t(
                         stats.value("mesa.fault.quarantined_pes"))
                  << " PEs quarantined\n";
    }
    std::cout << "\n";

    if (run.result.offloads.empty()) {
        std::cout << "loop was NOT offloaded; rejections:\n";
        for (const auto &r : run.result.rejections) {
            std::cout << "  pc 0x" << std::hex << r.loop.start
                      << std::dec << ": "
                      << cpu::rejectReasonName(r.reason) << "\n";
        }
        return 0;
    }
    for (const auto &os : run.result.offloads) {
        std::cout << "offload @0x" << std::hex << os.region_start
                  << std::dec << ": config "
                  << os.totalConfigCycles() << " cyc ("
                  << TextTable::num(os.totalConfigCycles() / 2.0, 0)
                  << " ns), tiles " << os.tile_factor
                  << (os.pipelined ? ", pipelined" : "") << ", "
                  << os.reconfigurations << " reconfigs, "
                  << os.accel_iterations << " iters in "
                  << os.accel_cycles << " cyc ("
                  << TextTable::num(double(os.accel_cycles) /
                                        double(os.accel_iterations),
                                    3)
                  << " cyc/iter)\n";
        std::cout << "  memory: " << os.accel.loads << " loads, "
                  << os.accel.stores << " stores, "
                  << os.accel.store_load_forwards << " forwards, "
                  << os.accel.dram_accesses << " DRAM fills\n";
        std::cout << "  array : " << os.accel.pes_used << "/"
                  << os.accel.pes_total << " PEs configured ("
                  << TextTable::num(100.0 * double(os.accel.pes_used) /
                                        double(os.accel.pes_total),
                                    1)
                  << "% utilization)\n";
    }
    return 0;
}
