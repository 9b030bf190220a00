/**
 * @file
 * The paper's running example end to end: the nn (nearest-neighbor
 * Euclidean distance) kernel is monitored, translated, mapped, and
 * offloaded, then iteratively re-optimized from the accelerator's
 * latency counters. Prints the LDFG, the placement, the modeled
 * critical path, and the measured-vs-modeled feedback loop.
 *
 * Build & run:  ./build/examples/nn_offload
 */

#include <iostream>

#include "dfg/latency.hh"
#include "mesa/controller.hh"
#include "mesa/mapper.hh"
#include "workloads/kernel.hh"

using namespace mesa;

int
main()
{
    const auto kernel = workloads::makeNn(8192);
    std::cout << "=== nn kernel: dist[i] = sqrt((lat-t)^2 + (lng-u)^2) "
                 "===\n\n";

    // --- T1 Encode: the Logical DFG ---------------------------------
    auto ldfg = dfg::Ldfg::build(kernel.loopBody());
    if (!ldfg) {
        std::cerr << "LDFG build failed\n";
        return 1;
    }
    std::cout << "LDFG (" << ldfg->size() << " nodes, "
              << ldfg->liveIns().size() << " live-in registers):\n"
              << ldfg->toString() << "\n";

    // --- T2 Optimize: spatial mapping --------------------------------
    const auto accel_params = accel::AccelParams::m128();
    ic::AccelNocInterconnect ic(accel_params.rows, accel_params.cols,
                                accel_params.noc_slice_width);
    core::InstructionMapper mapper(accel_params, ic);
    const core::MapResult map = mapper.map(*ldfg);

    std::cout << "SDFG placement on " << accel_params.name << " ("
              << accel_params.rows << "x" << accel_params.cols
              << "):\n";
    for (size_t i = 0; i < ldfg->size(); ++i) {
        const auto pos = map.sdfg.coordOf(int(i));
        std::cout << "  i" << i << " "
                  << riscv::opName(ldfg->node(int(i)).inst.op)
                  << " -> (" << pos.r << "," << pos.c
                  << ")  modeled L=" << map.completion[i] << "\n";
    }
    std::cout << "mapping took " << map.mapping_cycles
              << " imap-FSM cycles; modeled iteration latency "
              << map.model_latency << " cycles\n";

    dfg::LatencyModel model(*ldfg, map.sdfg, ic);
    const auto eval = model.evaluate();
    std::cout << "critical path: ";
    for (auto id : eval.critical_path)
        std::cout << "i" << id << " ";
    std::cout << "\n\n";

    // --- T3 + F3: offload with iterative optimization ----------------
    mem::MainMemory memory;
    kernel.plant(memory);

    core::MesaParams params;
    params.accel = accel_params;
    params.iterative_optimization = true;
    params.profile_epoch_iterations = 128;
    core::MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    if (!os) {
        std::cerr << "offload failed\n";
        return 1;
    }

    std::cout << "=== execution ===\n";
    std::cout << "tiled " << os->tile_factor << " instances"
              << (os->pipelined ? ", pipelined" : "") << "\n";
    std::cout << os->accel_iterations << " iterations in "
              << os->accel_cycles << " cycles; "
              << os->reconfigurations
              << " runtime reconfigurations (cost "
              << os->reconfig_cycles << " cycles)\n";
    std::cout << "memory: " << os->accel.loads << " loads, "
              << os->accel.stores << " stores, "
              << os->accel.dram_accesses << " DRAM fills\n\n";

    // --- F3: the refined performance model ---------------------------
    std::cout << "measured vs default node weights (loads pick up "
                 "their true AMAT):\n";
    auto &acc = mesa.accelerator();
    for (size_t i = 0; i < ldfg->size(); ++i) {
        const auto &node = ldfg->node(int(i));
        if (!node.inst.isLoad())
            continue;
        std::cout << "  i" << i << " " << node.inst.toString()
                  << ": default 4.0, measured "
                  << acc.measuredNodeLatency(int(i)) << " cycles\n";
    }

    emu.run(10'000'000);
    std::cout << "\nCPU resumed at pc 0x" << std::hex
              << emu.state().pc << std::dec << " and halted: "
              << (emu.halted() ? "yes" : "no") << "\n";
    return 0;
}
