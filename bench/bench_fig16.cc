/**
 * @file
 * Reproduces paper Figure 16: average energy (nJ) consumed per loop
 * iteration as a function of iterations elapsed, for the nn kernel.
 * The sunk cost of dataflow construction, mapping, and configuration
 * dominates early and amortizes over time — around 70 iterations in
 * the paper.
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    const auto kernel = workloads::makeNn(4096);
    core::MesaParams params;
    params.accel = accel::AccelParams::m128();
    params.iterative_optimization = false;

    power::PowerModel pm(params.accel);

    TextTable table("Figure 16: nn average energy per iteration (nJ) "
                    "vs iterations elapsed");
    table.header({"iterations", "energy/iter (nJ)", "overhead x"});

    const uint64_t iter_points[] = {1,  2,   5,   10,  20, 50,
                                    70, 100, 200, 500, 2000};
    struct Point
    {
        bool ok = false;
        uint64_t iterations = 0;
        double per_iter = 0;
    };
    const auto points = parallelMapOrdered<Point>(
        std::size(iter_points), jobs, [&](size_t i) -> Point {
            const uint64_t iters = iter_points[i];
            mem::MainMemory memory;
            kernel.plant(memory);
            core::MesaController mesa(params, memory);

            riscv::Emulator emu(memory);
            emu.reset(kernel.program.base_pc);
            kernel.fullRange()(emu.state());
            auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                       kernel.parallel, iters);
            if (!os || os->accel_iterations == 0)
                return {};
            const auto e =
                pm.accelEnergy(os->accel, os->totalConfigCycles());
            return {true, os->accel_iterations,
                    e.total() / double(os->accel_iterations)};
        });

    double steady = -1.0;
    std::vector<std::pair<uint64_t, double>> series;
    for (const Point &p : points) {
        if (!p.ok)
            continue;
        series.emplace_back(p.iterations, p.per_iter);
        steady = p.per_iter; // last (largest) point ~ steady state
    }

    uint64_t last_iters = 0;
    for (const auto &[iters, per_iter] : series) {
        if (iters == last_iters)
            continue; // tiling rounds iteration counts up
        last_iters = iters;
        table.row({std::to_string(iters), TextTable::num(per_iter),
                   TextTable::num(per_iter / steady)});
    }
    table.print(std::cout);

    // Find the amortization point: within 1.5x of steady state.
    uint64_t amortized_at = 0;
    for (const auto &[iters, per_iter] : series) {
        if (per_iter <= 1.5 * steady) {
            amortized_at = iters;
            break;
        }
    }
    std::cout << "\nconfiguration cost amortized (within 1.5x of "
                 "steady state) by ~"
              << amortized_at
              << " iterations (paper: ~70 iterations)\n";
    return 0;
}
