#include "cpu/system.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace mesa::cpu
{

double
loadImbalance(const std::vector<uint64_t> &core_cycles)
{
    if (core_cycles.empty())
        return 1.0;
    uint64_t sum = 0, worst = 0;
    for (uint64_t c : core_cycles) {
        sum += c;
        worst = std::max(worst, c);
    }
    const double mean = double(sum) / double(core_cycles.size());
    return mean > 0.0 ? double(worst) / mean : 1.0;
}

void
loadProgram(mem::MainMemory &memory, const riscv::Program &program)
{
    for (size_t i = 0; i < program.words.size(); ++i)
        memory.write32(program.base_pc + uint32_t(4 * i),
                       program.words[i]);
}

RunResult
runSingleCore(const CoreParams &core_params,
              const mem::HierarchyParams &mem_params,
              mem::MainMemory &memory, const riscv::Program &program,
              const ThreadInit &init, uint64_t max_steps)
{
    mem::MemHierarchy hierarchy(mem_params);
    OooCore core(core_params, hierarchy);

    riscv::Emulator emu(memory);
    emu.reset(program.base_pc);
    if (init)
        init(emu.state());
    emu.setObserver(
        [&](const riscv::TraceEntry &entry) { core.consume(entry); });
    emu.run(max_steps);

    RunResult res;
    res.cycles = core.finish();
    res.core_cycles = {res.cycles};
    res.instructions = core.stats().instructions;
    res.dram_accesses = hierarchy.dramAccesses();
    res.mispredicts = core.stats().mispredicts;
    res.loads = core.stats().loads;
    res.stores = core.stats().stores;
    res.fp_ops = core.stats().fp_ops;
    res.threads = 1;
    res.amat = hierarchy.amat();
    return res;
}

RunResult
runMulticore(const MulticoreParams &params, mem::MainMemory &memory,
             const riscv::Program &program,
             const std::vector<ThreadInit> &threads, uint64_t max_steps)
{
    if (threads.empty())
        fatal("runMulticore: no threads");

    mem::Cache shared_l2("shared-l2", params.mem.l2);
    RunResult res;
    res.threads = int(threads.size());

    uint64_t max_core_cycles = 0;
    for (const auto &init : threads) {
        mem::MemHierarchy hierarchy(params.mem, &shared_l2);
        OooCore core(params.core, hierarchy);

        riscv::Emulator emu(memory);
        emu.reset(program.base_pc);
        if (init)
            init(emu.state());
        emu.setObserver([&](const riscv::TraceEntry &entry) {
            core.consume(entry);
        });
        emu.run(max_steps);

        const uint64_t cycles = core.finish();
        res.core_cycles.push_back(cycles);
        max_core_cycles = std::max(max_core_cycles, cycles);
        res.instructions += core.stats().instructions;
        res.dram_accesses += hierarchy.dramAccesses();
        res.mispredicts += core.stats().mispredicts;
        res.loads += core.stats().loads;
        res.stores += core.stats().stores;
        res.fp_ops += core.stats().fp_ops;
    }

    // Shared DRAM bandwidth floor: all cores' misses contend on the
    // same memory channels.
    const uint64_t dram_floor = uint64_t(std::ceil(
        double(res.dram_accesses) / params.dram_accesses_per_cycle));
    res.cycles = std::max(max_core_cycles, dram_floor);
    return res;
}

} // namespace mesa::cpu
