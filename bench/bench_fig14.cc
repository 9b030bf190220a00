/**
 * @file
 * Reproduces paper Figure 14: speedup over a single out-of-order core
 * (DynaSpAM's gem5 parameters) for DynaSpAM and for M-64 — the
 * smallest MESA configuration — with parallel optimizations, and
 * additionally with runtime iterative reconfiguration. SRAD and
 * B+Tree do not qualify for acceleration on MESA (C1/C2), as in the
 * paper. Paper averages: DynaSpAM 1.42x, M-64 1.86x (opt), 2.01x
 * (+ iterative reconfiguration).
 */

#include "baseline/dynaspam.hh"
#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

double
mesaSpeedup(const workloads::Kernel &kernel, uint64_t base_cycles,
            bool iterative)
{
    core::MesaParams params;
    params.accel = accel::AccelParams::m64();
    params.host_core = cpu::dynaspamBaselineCore();
    params.iterative_optimization = iterative;
    // M-64's capacity bounds C1.
    params.monitor.max_instructions = params.accel.capacity();

    const MesaRun run = runMesa(kernel, params);
    if (run.result.offloads.empty())
        return 1.0; // did not qualify: runs entirely on the CPU
    return double(base_cycles) / double(run.result.total_cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    // The benchmarks shared with the DynaSpAM evaluation.
    const char *names[] = {"backprop", "bfs",  "hotspot",
                           "kmeans",   "lud",  "nn",
                           "pathfinder", "srad", "b+tree"};

    TextTable table("Figure 14: speedup vs single OoO core "
                    "(DynaSpAM parameters), M-64");
    table.header({"benchmark", "DynaSpAM", "M-64 (opt)",
                  "M-64 (+reconfig)"});

    std::vector<double> s_dyn, s_opt, s_rec;

    struct Row
    {
        double dyn = 1.0, opt = 1.0, rec = 1.0;
        bool mesa_na = false;
    };
    const auto rows = parallelMapOrdered<Row>(
        std::size(names), jobs, [&](size_t i) -> Row {
            const auto kernel =
                workloads::kernelByName(names[i], {16384});
            const CpuRun base = runSingleCoreBaseline(
                kernel, cpu::dynaspamBaselineCore());

            // DynaSpAM: map the hot loop onto the 1D in-pipeline
            // fabric, which shares the core's memory system
            // (measured AMAT).
            baseline::DynaSpamParams dp;
            dp.mem_latency = std::max(2.0, base.run.amat);
            baseline::DynaSpamMapper dynaspam(dp);
            Row r;
            auto ldfg = dfg::Ldfg::build(kernel.loopBody());
            if (ldfg) {
                const auto res = dynaspam.map(*ldfg);
                if (res.qualified) {
                    const uint64_t accel =
                        res.cyclesFor(kernel.iterations);
                    if (accel > 0)
                        r.dyn = double(base.run.cycles) /
                                double(accel);
                }
            }
            // DynaSpAM cannot beat its own fabric's limits, but it
            // never loses either (falls back to the core).
            r.dyn = std::max(r.dyn, 1.0);

            r.opt = mesaSpeedup(kernel, base.run.cycles, false);
            r.rec = mesaSpeedup(kernel, base.run.cycles, true);
            r.mesa_na = r.opt == 1.0 && !kernel.mesa_supported;
            return r;
        });

    for (size_t i = 0; i < std::size(names); ++i) {
        const Row &r = rows[i];
        s_dyn.push_back(r.dyn);
        s_opt.push_back(r.opt);
        s_rec.push_back(r.rec);
        table.row({names[i], TextTable::num(r.dyn),
                   r.mesa_na ? "n/q" : TextTable::num(r.opt),
                   r.mesa_na ? "n/q" : TextTable::num(r.rec)});
    }

    table.row({"average", TextTable::num(mean(s_dyn)),
               TextTable::num(mean(s_opt)), TextTable::num(mean(s_rec))});
    table.print(std::cout);

    std::cout << "\npaper: DynaSpAM 1.42x, M-64 1.86x with parallel "
                 "optimizations, 2.01x with iterative "
                 "reconfiguration; srad/b+tree do not qualify on "
                 "MESA\n";
    return 0;
}
