/**
 * @file
 * Shared test utilities: golden-model reference runs and manual
 * offload plumbing used by the accelerator and controller tests.
 */

#ifndef MESA_TESTS_HELPERS_HH
#define MESA_TESTS_HELPERS_HH

#include <unordered_map>
#include <vector>

#include "cpu/system.hh"
#include "mem/memory.hh"
#include "mesa/controller.hh"
#include "riscv/emulator.hh"
#include "workloads/kernel.hh"

namespace mesa::test
{

/** Outcome of a full functional run. */
struct GoldenResult
{
    riscv::ArchState state;
    std::unordered_map<uint32_t, std::vector<uint8_t>> memory;
    uint64_t instructions = 0;
};

/** Run a kernel start-to-halt on the functional emulator. */
inline GoldenResult
runReference(const workloads::Kernel &kernel,
             uint64_t max_steps = 50'000'000)
{
    mem::MainMemory memory;
    kernel.plant(memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    emu.run(max_steps);

    GoldenResult res;
    res.state = emu.state();
    res.memory = memory.snapshot();
    res.instructions = emu.instret();
    return res;
}

/**
 * Run a kernel with the loop offloaded through MesaController, then
 * resume the emulator to program completion.
 */
struct OffloadRun
{
    riscv::ArchState state;
    std::unordered_map<uint32_t, std::vector<uint8_t>> memory;
    std::optional<core::OffloadStats> stats;
};

inline OffloadRun
runWithOffload(const workloads::Kernel &kernel,
               const core::MesaParams &params,
               uint64_t max_steps = 50'000'000)
{
    mem::MainMemory memory;
    kernel.plant(memory);

    core::MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);

    OffloadRun run;
    run.stats = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                 kernel.parallel);
    // Resume the CPU from the state the accelerator wrote back.
    emu.run(max_steps);

    run.state = emu.state();
    run.memory = memory.snapshot();
    return run;
}

/** Compare two memory snapshots for exact equality. */
inline ::testing::AssertionResult
sameMemory(const std::unordered_map<uint32_t, std::vector<uint8_t>> &a,
           const std::unordered_map<uint32_t, std::vector<uint8_t>> &b)
{
    for (const auto &[page, data] : a) {
        auto it = b.find(page);
        if (it == b.end()) {
            // A page of all zeroes matches an absent page.
            if (mem::isZeroPage(data))
                continue;
            return ::testing::AssertionFailure()
                   << "page 0x" << std::hex << (page << 12)
                   << " present only on one side";
        }
        if (data != it->second) {
            size_t off = 0;
            while (off < data.size() && data[off] == it->second[off])
                ++off;
            return ::testing::AssertionFailure()
                   << "page 0x" << std::hex << (page << 12)
                   << " differs at offset 0x" << off;
        }
    }
    for (const auto &[page, data] : b) {
        if (!a.count(page) && !mem::isZeroPage(data)) {
            return ::testing::AssertionFailure()
                   << "page 0x" << std::hex << (page << 12)
                   << " present only on right side";
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace mesa::test

#endif // MESA_TESTS_HELPERS_HH
