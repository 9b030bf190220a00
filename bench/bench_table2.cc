/**
 * @file
 * Reproduces paper Table 2: configuration-latency comparison between
 * MESA and related approaches. MESA's measured configuration time
 * (encode + imap + bitstream) across the suite lands in the 10^3-10^4
 * cycle range — nanoseconds to a microsecond at 2 GHz — between
 * DynaSpAM's immediate hardware mapping and DORA's millisecond
 * software translation.
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    core::MesaParams params;
    params.accel = accel::AccelParams::m128();

    uint64_t min_cycles = ~uint64_t(0);
    uint64_t max_cycles = 0;
    TextTable detail("Measured MESA configuration cost per kernel "
                     "(M-128)");
    detail.header({"kernel", "encode", "imap", "bitstream", "total",
                   "ns @2GHz"});

    const auto suite = workloads::rodiniaSuite({4096});
    struct Row
    {
        bool ok = false;
        std::string name;
        uint64_t encode = 0, imap = 0, bitstream = 0, total = 0;
        double ns = 0;
    };
    const auto rows = parallelMapOrdered<Row>(
        suite.size(), jobs, [&](size_t i) -> Row {
            const auto &kernel = suite[i];
            if (!kernel.mesa_supported)
                return {};
            mem::MainMemory memory;
            kernel.plant(memory);
            core::MesaController mesa(params, memory);

            riscv::Emulator emu(memory);
            kernel.enterLoop(emu);

            auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                       kernel.parallel, 1);
            if (!os)
                return {};
            Row r;
            r.ok = true;
            r.name = kernel.name;
            r.encode = os->encode_cycles;
            r.imap = os->mapping_cycles;
            r.bitstream = os->config_cycles;
            r.total = os->totalConfigCycles();
            r.ns = mesa.cyclesToNs(r.total);
            return r;
        });

    for (const Row &r : rows) {
        if (!r.ok)
            continue;
        min_cycles = std::min(min_cycles, r.total);
        max_cycles = std::max(max_cycles, r.total);
        detail.row({r.name, std::to_string(r.encode),
                    std::to_string(r.imap),
                    std::to_string(r.bitstream),
                    std::to_string(r.total), TextTable::num(r.ns, 1)});
    }
    detail.print(std::cout);

    std::cout << "\n";
    TextTable table("Table 2: configuration latency by approach");
    table.header({"work", "config latency", "targets",
                  "optimizations"});
    table.row({"TRIPS", "AOT (compiler)", "2D spatial",
               "H-Block (EDGE)"});
    table.row({"CCA", "-", "1D FF", "N/A"});
    table.row({"DynaSpAM", "JIT (ns)", "1D FF", "out-of-order"});
    table.row({"DORA", "JIT (ms)", "2D spatial",
               "vect., unroll, deepen"});
    table.row({"MESA (this repo)",
               "JIT (" + TextTable::num(min_cycles / 2.0, 0) + "-" +
                   TextTable::num(max_cycles / 2.0, 0) + " ns)",
               "2D spatial", "dynamic, tile, pipeline"});
    table.print(std::cout);

    std::cout << "\nmeasured config cycles: " << min_cycles << " - "
              << max_cycles
              << " (paper: 10^3-10^4 cycles, ns-us range)\n";
    return 0;
}
