/**
 * @file
 * Ablation harness for the design choices DESIGN.md calls out:
 * measures each optimization's contribution by disabling it alone
 * (one-factor-at-a-time) against the full configuration, across a
 * representative kernel set on M-128, plus the two extensions
 * (unrolling, time-multiplexing) enabled alone.
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

uint64_t
totalCycles(const workloads::Kernel &kernel,
            const std::function<void(core::MesaParams &)> &tweak)
{
    core::MesaParams params;
    tweak(params);
    const MesaRun run = runMesa(kernel, params);
    return run.result.total_cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    const char *names[] = {"nn", "kmeans", "hotspot", "cfd",
                           "pathfinder", "gaussian"};

    TextTable table(
        "Ablation: slowdown when disabling one optimization "
        "(total cycles relative to the full configuration, M-128)");
    table.header({"benchmark", "-tiling", "-pipelining", "-vector",
                  "-forward", "-prefetch", "-iterative", "+unroll",
                  "+timemux"});

    // Grid: kernel × {full, 8 one-factor variants} — 9 cells per row,
    // every cell its own sharded system.
    const std::function<void(core::MesaParams &)> tweaks[] = {
        [](core::MesaParams &) {},
        [](core::MesaParams &p) { p.enable_tiling = false; },
        [](core::MesaParams &p) { p.enable_pipelining = false; },
        [](core::MesaParams &p) { p.enable_vectorization = false; },
        [](core::MesaParams &p) { p.enable_forwarding = false; },
        [](core::MesaParams &p) { p.enable_prefetch = false; },
        [](core::MesaParams &p) { p.iterative_optimization = false; },
        [](core::MesaParams &p) { p.enable_unrolling = true; },
        [](core::MesaParams &p) {
            p.enable_time_multiplexing = true;
            p.accel = accel::AccelParams::m64();
        },
    };
    const size_t variants = std::size(tweaks);

    const auto cells = parallelMapOrdered<uint64_t>(
        std::size(names) * variants, jobs, [&](size_t i) -> uint64_t {
            const auto kernel = workloads::kernelByName(
                names[i / variants], {8192});
            return totalCycles(kernel, tweaks[i % variants]);
        });

    for (size_t k = 0; k < std::size(names); ++k) {
        const uint64_t full = cells[k * variants];
        std::vector<std::string> row{names[k]};
        for (size_t v = 1; v < variants; ++v)
            row.push_back(TextTable::num(
                double(cells[k * variants + v]) / double(full)));
        table.row(row);
    }
    table.print(std::cout);

    std::cout << "\n>1.00 = slower without the optimization (its "
                 "contribution); the extension columns show total "
                 "cycles with the extension enabled (time-multiplex "
                 "runs on the smaller M-64).\n";
    return 0;
}
