/**
 * @file
 * CPU system harness: loads a program, drives the functional emulator
 * through the OoO core timing model, and aggregates cycles. The
 * multicore variant models the paper's 16-core baseline: per-core
 * private L1s, one shared L2, and a shared DRAM-bandwidth floor.
 */

#ifndef MESA_CPU_SYSTEM_HH
#define MESA_CPU_SYSTEM_HH

#include <algorithm>
#include <functional>
#include <vector>

#include "cpu/ooo_core.hh"
#include "cpu/params.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "riscv/assembler.hh"
#include "riscv/emulator.hh"

namespace mesa::cpu
{

/** Per-thread register initialization (its chunk of the iteration space). */
using ThreadInit = std::function<void(riscv::ArchState &)>;

/** Multicore system parameters (paper §6: 16-core quad-issue OoO). */
struct MulticoreParams
{
    int num_cores = 16;
    CoreParams core;
    mem::HierarchyParams mem;
    /** Shared DRAM bandwidth: serviceable accesses per cycle. */
    double dram_accesses_per_cycle = 1.0;
};

/** Load imbalance: the slowest core's cycles over the mean (1 = even,
 *  also for no cores or no cycles). */
double loadImbalance(const std::vector<uint64_t> &core_cycles);

/** Aggregated outcome of a timed run. */
struct RunResult
{
    uint64_t cycles = 0;       ///< Wall-clock cycles (max over cores).
    uint64_t instructions = 0; ///< Total committed instructions.
    uint64_t dram_accesses = 0;
    uint64_t mispredicts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t fp_ops = 0;
    int threads = 1;
    double amat = 0.0; ///< Average memory access time observed.

    /** Per-core cycle breakdown (index = thread). The wall-clock max
     *  hides load imbalance; schedulers and fairness benches need the
     *  full distribution. Empty only in hand-built results. */
    std::vector<uint64_t> core_cycles;

    double
    ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }

    /** Imbalance ratio: slowest core over mean core time (1 = even). */
    double imbalance() const { return loadImbalance(core_cycles); }
};

/** Load program words into memory at its base pc. */
void loadProgram(mem::MainMemory &memory, const riscv::Program &program);

/**
 * Run a program on one timed core until halt (or max_steps).
 * The program must already be loaded; init sets up live-in registers.
 */
RunResult runSingleCore(const CoreParams &core_params,
                        const mem::HierarchyParams &mem_params,
                        mem::MainMemory &memory,
                        const riscv::Program &program,
                        const ThreadInit &init,
                        uint64_t max_steps = 200'000'000);

/**
 * Run the same program on num_cores cores, one ThreadInit per core
 * (each selecting a disjoint chunk of the iteration space). Threads
 * share the L2 and a DRAM bandwidth budget. Returns wall-clock cycles
 * = max(per-core cycles, total DRAM accesses / bandwidth).
 */
RunResult runMulticore(const MulticoreParams &params,
                       mem::MainMemory &memory,
                       const riscv::Program &program,
                       const std::vector<ThreadInit> &threads,
                       uint64_t max_steps = 200'000'000);

} // namespace mesa::cpu

#endif // MESA_CPU_SYSTEM_HH
