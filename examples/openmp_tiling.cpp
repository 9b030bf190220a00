/**
 * @file
 * Loop-level optimization example (paper §4.3, Fig. 6): a parallel
 * (OpenMP-annotated) kernel is tiled by SDFG duplication; independent
 * instances execute concurrently across the grid. Sweeps the tile
 * factor and prints the throughput scaling, plus the effect of
 * pipelining.
 *
 * Build & run:  ./build/examples/openmp_tiling
 */

#include <iostream>

#include "mesa/controller.hh"
#include "util/table.hh"
#include "workloads/kernel.hh"

using namespace mesa;

namespace
{

/** Run kmeans with an explicit tile factor; returns cycles/iter. */
double
runTiled(int tiles, bool pipelined)
{
    const auto kernel = workloads::makeKmeans(8192);
    const auto accel_params = accel::AccelParams::m512();

    mem::MainMemory memory;
    kernel.plant(memory);

    // Drive the pipeline manually to control the tile factor.
    accel::Accelerator accel(accel_params, memory);
    ic::AccelNocInterconnect ic(accel_params.rows, accel_params.cols,
                                accel_params.noc_slice_width);
    core::InstructionMapper mapper(accel_params, ic);
    core::ConfigBlock config_block(accel_params);

    auto ldfg = dfg::Ldfg::build(kernel.loopBody(),
                                 accel_params.op_latency);
    const auto map = mapper.map(*ldfg);

    core::ConfigOptions opts;
    opts.tile_factor = tiles;
    opts.pipelined = pipelined;
    auto cfg = config_block.build(*ldfg, map.sdfg, opts,
                                  kernel.loop_start, kernel.loop_end);
    accel.configure(cfg);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    const auto res = accel.run(emu.state());
    return res.iterations
               ? double(res.cycles) / double(res.iterations)
               : 0.0;
}

} // namespace

int
main()
{
    std::cout << "kmeans on M-512: spatial tiling by SDFG "
                 "duplication (omp parallel)\n\n";

    TextTable table("throughput vs tile factor");
    table.header({"tiles", "cycles/iter (pipelined)",
                  "cycles/iter (not pipelined)", "speedup vs 1 tile"});
    const double base = runTiled(1, true);
    for (int tiles : {1, 2, 4, 8, 16}) {
        const double piped = runTiled(tiles, true);
        const double unpiped = runTiled(tiles, false);
        table.row({std::to_string(tiles), TextTable::num(piped, 3),
                   TextTable::num(unpiped, 3),
                   TextTable::num(base / piped, 2)});
    }
    table.print(std::cout);

    std::cout << "\nEach tile is a full copy of the SDFG; instance k "
                 "starts at iteration k and strides by the tile "
                 "count, so the union covers the iteration space "
                 "exactly (paper Fig. 6).\n";
    return 0;
}
