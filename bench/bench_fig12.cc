/**
 * @file
 * Reproduces paper Figure 12: per-iteration IPC against a similarly
 * configured OpenCGRA baseline. Two comparisons per benchmark:
 * MESA with all optimizations disabled (pure spatial map vs the
 * compiler's modulo schedule — MESA falls slightly behind), and MESA
 * with its common optimizations enabled (tiling, pipelining — MESA
 * wins clearly, largely from loop parallelization).
 */

#include "baseline/opencgra.hh"
#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

/** Accelerated per-iteration cycles for one optimization setting. */
double
mesaPerIterCycles(const workloads::Kernel &kernel, bool optimized)
{
    core::MesaParams params;
    params.accel = accel::AccelParams::m128();
    // "No optimizations" disables MESA's loop-level and memory
    // optimizations; iteration overlap is inherent to dataflow
    // execution (OpenCGRA's modulo schedule is pipelined too).
    params.enable_tiling = optimized;
    params.enable_pipelining = true;
    params.enable_vectorization = optimized;
    params.enable_forwarding = optimized;
    params.enable_prefetch = optimized;
    params.iterative_optimization = optimized;

    mem::MainMemory memory;
    kernel.plant(memory);
    core::MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);

    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    if (!os || os->accel_iterations == 0)
        return 0.0;
    return double(os->accel_cycles) / double(os->accel_iterations);
}

} // namespace

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    // The eight OpenCGRA-compatible benchmarks (paper §6.2).
    const char *names[] = {"nn",       "kmeans",       "hotspot",
                           "cfd",      "gaussian",     "lavaMD",
                           "pathfinder", "streamcluster"};
    const size_t n = std::size(names);

    TextTable table("Figure 12: per-iteration IPC vs OpenCGRA "
                    "(M-128-equivalent backends)");
    table.header({"benchmark", "OpenCGRA", "MESA (no opt)",
                  "MESA (opt)"});

    struct Row
    {
        bool ok = false;
        double ipc_cgra = 0, ipc_noopt = 0, ipc_opt = 0;
    };
    const auto rows = parallelMapOrdered<Row>(n, jobs, [&](size_t i) -> Row {
        const auto kernel = workloads::kernelByName(names[i], {4096});
        const auto body = kernel.loopBody();
        const double instrs = double(body.size());

        auto ldfg = dfg::Ldfg::build(body);
        if (!ldfg)
            return {};
        baseline::OpenCgraScheduler cgra(accel::AccelParams::m128());
        const auto sched = cgra.schedule(*ldfg);

        Row r;
        r.ok = true;
        r.ipc_cgra = instrs / sched.perIterationCycles();
        const double cyc_noopt = mesaPerIterCycles(kernel, false);
        const double cyc_opt = mesaPerIterCycles(kernel, true);
        r.ipc_noopt = cyc_noopt > 0 ? instrs / cyc_noopt : 0;
        r.ipc_opt = cyc_opt > 0 ? instrs / cyc_opt : 0;
        return r;
    });

    std::vector<double> ratio_noopt, ratio_opt;
    for (size_t i = 0; i < n; ++i) {
        const Row &r = rows[i];
        if (!r.ok) {
            table.row({names[i], "n/a", "n/a", "n/a"});
            continue;
        }
        ratio_noopt.push_back(r.ipc_noopt / r.ipc_cgra);
        ratio_opt.push_back(r.ipc_opt / r.ipc_cgra);
        table.row({names[i], TextTable::num(r.ipc_cgra),
                   TextTable::num(r.ipc_noopt),
                   TextTable::num(r.ipc_opt)});
    }
    table.print(std::cout);

    std::cout << "\nMESA/OpenCGRA IPC ratio: no-opt geomean "
              << TextTable::num(geomean(ratio_noopt))
              << ", opt geomean " << TextTable::num(geomean(ratio_opt))
              << "\n";
    std::cout << "paper: MESA falls slightly behind on pure "
                 "scheduling; wins clearly with optimizations\n";
    return 0;
}
