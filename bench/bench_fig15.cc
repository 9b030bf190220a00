/**
 * @file
 * Reproduces paper Figure 15: MESA performance scaling with PE count
 * for the nn kernel (small enough to fit on 16 PEs). Series: default
 * accelerator, "ideal memory" (infinite memory ports), and ideal
 * linear scaling from the 16-PE point. The paper observes
 * near-perfect scaling until memory bottlenecks beyond 128 PEs.
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

uint64_t
accelCycles(const workloads::Kernel &kernel, int pes, bool ideal_mem)
{
    core::MesaParams params;
    params.accel = accel::AccelParams::withPeCount(pes);
    params.accel.ideal_memory = ideal_mem;

    mem::MainMemory memory;
    kernel.plant(memory);
    core::MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    return os ? os->accel_cycles : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    const auto kernel = workloads::makeNn(16384);
    const int pe_counts[] = {16, 32, 64, 128, 256, 512};
    const size_t n = std::size(pe_counts);

    TextTable table("Figure 15: nn performance scaling with PE count "
                    "(throughput relative to 16 PEs)");
    table.header({"PEs", "default", "ideal memory", "ideal scaling"});

    // All series share the default 16-PE configuration as baseline.
    const uint64_t base = accelCycles(kernel, 16, false);

    // Grid: PE count × {default, ideal memory}.
    const auto cells = parallelMapOrdered<uint64_t>(
        n * 2, jobs, [&](size_t i) -> uint64_t {
            return accelCycles(kernel, pe_counts[i / 2], i % 2 != 0);
        });

    for (size_t i = 0; i < n; ++i) {
        const int pes = pe_counts[i];
        const uint64_t cyc = cells[2 * i];
        const uint64_t cyc_ideal = cells[2 * i + 1];
        const double rel = cyc ? double(base) / double(cyc) : 0;
        const double rel_ideal =
            cyc_ideal ? double(base) / double(cyc_ideal) : 0;
        const double ideal = double(pes) / 16.0;
        table.row({std::to_string(pes), TextTable::num(rel),
                   TextTable::num(rel_ideal), TextTable::num(ideal)});
    }
    table.print(std::cout);

    std::cout << "\npaper: near-perfect scaling until memory "
                 "bottlenecks beyond 128 PEs; ideal memory keeps "
                 "scaling further\n";
    return 0;
}
