/**
 * @file
 * Shared benchmark-harness plumbing: runs a kernel on the multicore
 * CPU baseline, the single-core baseline, and a MESA-enabled system,
 * and converts activity counters to energy through the power model.
 * Each bench_* binary regenerates one of the paper's tables/figures
 * (see DESIGN.md's experiment index).
 */

#ifndef MESA_BENCH_COMMON_HH
#define MESA_BENCH_COMMON_HH

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "cpu/system.hh"
#include "mesa/controller.hh"
#include "mesa/translation_store.hh"
#include "power/energy_model.hh"
#include "util/parallel.hh"
#include "util/table.hh"
#include "workloads/kernel.hh"

namespace mesa::bench
{

/**
 * Everything one worker shard owns while evaluating a (kernel,
 * config) cell: its private copy of the kernel, the system params,
 * the backing memory, the MESA controller built on them, and a
 * per-shard stats registry. Shards built through makeShardContext
 * share no simulator state, which is the ownership rule that makes
 * the parallel harness byte-identical to the serial one (see
 * ARCHITECTURE.md "Parallel execution engine").
 */
struct ShardContext
{
    workloads::Kernel kernel;
    core::MesaParams params;
    mem::MainMemory memory;
    std::unique_ptr<core::MesaController> mesa;
    StatsRegistry stats;
};

/** Build a fully private system for one shard: fresh memory with the
 *  kernel's data planted, and a controller bound to that memory. */
inline std::unique_ptr<ShardContext>
makeShardContext(const workloads::Kernel &kernel,
                 const core::MesaParams &params)
{
    auto ctx = std::make_unique<ShardContext>();
    ctx->kernel = kernel;
    ctx->params = params;
    ctx->kernel.init_data(ctx->memory);
    ctx->mesa = std::make_unique<core::MesaController>(ctx->params,
                                                       ctx->memory);
    return ctx;
}

/**
 * Shared --jobs flag for the bench binaries: scans argv for
 * "--jobs N" (consuming nothing — binaries with richer CLIs parse
 * their own copy too). Default: hardware concurrency.
 */
inline int
parseJobs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--jobs")
            return resolveJobs(int(std::strtol(argv[i + 1], nullptr,
                                               10)));
    return defaultJobs();
}

/**
 * Shared --cache-dir flag: scans argv (consuming nothing, same
 * convention as parseJobs) and points the process-global persistent
 * translation store at the directory, so every bench warm-starts its
 * translations across runs. Results are bit-identical either way —
 * the store memoizes simulator work, not modeled hardware time.
 */
inline void
applyCacheDir(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--cache-dir")
            core::TranslationStore::global().setDirectory(argv[i + 1]);
}

/** A CPU baseline run with its modeled energy. */
struct CpuRun
{
    cpu::RunResult run;
    double energy_nj = 0.0;
};

/** A MESA transparent run with its modeled energy. */
struct MesaRun
{
    core::TransparentRunResult result;
    double energy_nj = 0.0;
    double cpu_energy_nj = 0.0;
    double accel_energy_nj = 0.0;
};

/** Paper §6.1 multicore baseline: 16-core quad-issue OoO. */
inline CpuRun
runMulticoreBaseline(const workloads::Kernel &kernel, int cores = 16)
{
    mem::MainMemory memory;
    kernel.plant(memory);

    cpu::MulticoreParams params;
    params.num_cores = cores;
    // Serial kernels use one core; the rest of the chip idles.
    const auto threads =
        kernel.parallel ? kernel.chunks(cores)
                        : std::vector<cpu::ThreadInit>{kernel.fullRange()};
    CpuRun out;
    out.run = cpu::runMulticore(params, memory, kernel.program, threads);
    power::PowerModel pm(accel::AccelParams::m128());
    out.energy_nj = pm.cpuEnergyNj(out.run);
    return out;
}

/** Single-core out-of-order baseline (Fig. 14). */
inline CpuRun
runSingleCoreBaseline(const workloads::Kernel &kernel,
                      const cpu::CoreParams &core = cpu::defaultCore())
{
    mem::MainMemory memory;
    kernel.plant(memory);

    CpuRun out;
    out.run = cpu::runSingleCore(core, {}, memory, kernel.program,
                                 kernel.fullRange());
    power::PowerModel pm(accel::AccelParams::m128());
    out.energy_nj = pm.cpuEnergyNj(out.run);
    return out;
}

/**
 * Full transparent MESA run and its energy breakdown.
 *
 * @param stats optional registry the controller keeps live counters
 *        in ("mesa.*", "accel.*", "accel.mem.*") during the run
 * @param snapshot_iterations record a registry snapshot every N
 *        accelerated iterations (0 disables)
 * @param faults optional hardware-defect plane installed in the
 *        accelerator before the run (seeded injection, CLI --faults)
 */
inline MesaRun
runMesa(const workloads::Kernel &kernel, const core::MesaParams &params,
        StatsRegistry *stats = nullptr, uint64_t snapshot_iterations = 0,
        const accel::FaultPlane *faults = nullptr)
{
    // Per-call ShardContext: safe to run from any parallelForOrdered
    // worker shard.
    auto ctx = makeShardContext(kernel, params);
    core::MesaController &mesa = *ctx->mesa;
    if (faults && !faults->empty())
        mesa.accelerator().injectFaults(*faults);
    if (stats) {
        mesa.attachStats(stats, snapshot_iterations);
        mesa.accelerator().hierarchy().registerStats(*stats,
                                                     "accel.mem.");
    }

    MesaRun out;
    out.result = mesa.runTransparent(kernel.program, kernel.fullRange(),
                                     kernel.parallel);

    power::PowerModel pm(params.accel, params.clock_ghz);
    out.cpu_energy_nj = pm.cpuEnergyNj(out.result.cpu);
    for (const auto &os : out.result.offloads) {
        out.accel_energy_nj +=
            pm.accelEnergy(os.accel, os.totalConfigCycles() +
                                         os.reconfig_cycles)
                .total();
    }
    out.energy_nj = out.cpu_energy_nj + out.accel_energy_nj;
    // The controller (and the hierarchy whose counters were linked
    // above) dies with this scope; keep the registry self-contained.
    if (stats) {
        mesa.attachStats(nullptr);
        stats->materialize();
    }
    return out;
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / double(values.size());
}

} // namespace mesa::bench

#endif // MESA_BENCH_COMMON_HH
