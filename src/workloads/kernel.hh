/**
 * @file
 * Workload kernel abstraction: a RISC-V program with one hot loop,
 * its dataset initializer, and iteration-range register setup. The
 * suite mirrors the Rodinia benchmarks' hot loops (paper §6): same
 * operation mix, memory pattern, and parallelizability; assembled to
 * real RV32IMF machine code by the in-repo assembler.
 */

#ifndef MESA_WORKLOADS_KERNEL_HH
#define MESA_WORKLOADS_KERNEL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/system.hh"
#include "mem/memory.hh"
#include "riscv/assembler.hh"

namespace mesa::workloads
{

/** A benchmark kernel. */
struct Kernel
{
    std::string name;
    riscv::Program program;

    /** The hot loop's pc range [loop_start, loop_end). */
    uint32_t loop_start = 0;
    uint32_t loop_end = 0;

    /** OpenMP-annotated (omp parallel / omp simd) in the original. */
    bool parallel = false;

    /** Uses floating point. */
    bool fp = false;

    /**
     * Expected to qualify for MESA acceleration (b+tree's inner loop
     * walk, for example, never does).
     */
    bool mesa_supported = true;

    /** Total hot-loop iterations at the chosen scale. */
    uint64_t iterations = 0;

    /** Initialize the shared dataset in memory. */
    std::function<void(mem::MainMemory &)> init_data;

    /** Set up registers to execute iteration range [begin, end). */
    std::function<void(riscv::ArchState &, uint64_t, uint64_t)>
        init_range;

    /** Step bound on the preamble: program entry to loop_start. */
    static constexpr uint64_t PreambleSteps = 1'000'000;

    /** Write the dataset and the program image into @p memory. */
    void
    plant(mem::MainMemory &memory) const
    {
        if (init_data)
            init_data(memory);
        cpu::loadProgram(memory, program);
    }

    /**
     * Enter the hot loop: reset @p emu at the program entry, apply
     * @p init (the thread's iteration range) and step the preamble
     * (bfs's level set-up, for example) until the pc reaches
     * loop_start, at most PreambleSteps steps. Returns whether it got
     * there; a program that halts first, or a preamble that outruns
     * the bound, is a miss each caller reacts to in its own way.
     */
    bool
    enterLoop(riscv::Emulator &emu, const cpu::ThreadInit &init) const
    {
        emu.reset(program.base_pc);
        init(emu.state());
        for (uint64_t steps = 0; steps < PreambleSteps &&
                                 !emu.halted() &&
                                 emu.state().pc != loop_start;
             ++steps)
            emu.step();
        return !emu.halted() && emu.state().pc == loop_start;
    }

    /** enterLoop() over the full iteration space. */
    bool
    enterLoop(riscv::Emulator &emu) const
    {
        return enterLoop(emu, fullRange());
    }

    /** ThreadInit covering the full iteration space. */
    cpu::ThreadInit
    fullRange() const
    {
        auto setup = init_range;
        const uint64_t n = iterations;
        return [setup, n](riscv::ArchState &state) {
            setup(state, 0, n);
        };
    }

    /** Split the iteration space into n contiguous chunks. */
    std::vector<cpu::ThreadInit>
    chunks(int n) const
    {
        std::vector<cpu::ThreadInit> out;
        const uint64_t per = (iterations + uint64_t(n) - 1) / uint64_t(n);
        for (int t = 0; t < n; ++t) {
            const uint64_t begin = uint64_t(t) * per;
            const uint64_t end = std::min(iterations, begin + per);
            if (begin >= end)
                break;
            auto setup = init_range;
            out.push_back([setup, begin, end](riscv::ArchState &state) {
                setup(state, begin, end);
            });
        }
        return out;
    }

    /**
     * Split the iteration space into contiguous chunks proportional
     * to @p weights (one per tenant; zero- or negative-weight tenants
     * get nothing). The remainder lands on the heaviest tenant, so
     * the split is exact and deterministic.
     */
    std::vector<cpu::ThreadInit>
    chunksWeighted(const std::vector<double> &weights) const
    {
        double total = 0.0;
        size_t heaviest = 0;
        for (size_t t = 0; t < weights.size(); ++t) {
            if (weights[t] > weights[heaviest])
                heaviest = t;
            total += std::max(0.0, weights[t]);
        }
        std::vector<cpu::ThreadInit> out;
        if (total <= 0.0)
            return out;
        // Fix every share except the heaviest, which absorbs the
        // rounding remainder.
        std::vector<uint64_t> share(weights.size(), 0);
        uint64_t assigned = 0;
        for (size_t t = 0; t < weights.size(); ++t) {
            if (t == heaviest)
                continue;
            share[t] = uint64_t(double(iterations) *
                                std::max(0.0, weights[t]) / total);
            assigned += share[t];
        }
        share[heaviest] = iterations - std::min(iterations, assigned);
        uint64_t begin = 0;
        for (size_t t = 0; t < weights.size(); ++t) {
            const uint64_t end = begin + share[t];
            if (end > begin) {
                auto setup = init_range;
                const uint64_t b = begin, e = end;
                out.push_back(
                    [setup, b, e](riscv::ArchState &state) {
                        setup(state, b, e);
                    });
            }
            begin = end;
        }
        return out;
    }

    /** Decode the hot-loop body (program order). */
    std::vector<riscv::Instruction>
    loopBody() const
    {
        std::vector<riscv::Instruction> body;
        const auto all = program.decodeAll();
        for (const auto &inst : all)
            if (inst.pc >= loop_start && inst.pc < loop_end)
                body.push_back(inst);
        return body;
    }
};

/** Suite scaling knobs (kept small enough for fast simulation). */
struct SuiteScale
{
    uint64_t n = 2048; ///< Default iteration count per kernel.
};

// Individual kernel builders (see rodinia.cc for loop shapes).
Kernel makeNn(uint64_t n);
Kernel makeKmeans(uint64_t n);
Kernel makeHotspot(uint64_t n);
Kernel makeCfd(uint64_t n);
Kernel makeBackprop(uint64_t n);
Kernel makeBfs(uint64_t n);
Kernel makeSrad(uint64_t n);
Kernel makeLud(uint64_t n);
Kernel makePathfinder(uint64_t n);
Kernel makeBtree(uint64_t n);
Kernel makeStreamcluster(uint64_t n);
Kernel makeLavaMd(uint64_t n);
Kernel makeGaussian(uint64_t n);
Kernel makeHeartwall(uint64_t n);
Kernel makeLeukocyte(uint64_t n);
Kernel makeHotspot3d(uint64_t n);

/** The full suite at the given scale. */
std::vector<Kernel> rodiniaSuite(const SuiteScale &scale = {});

/** Look up one kernel by name (fatal if unknown). */
Kernel kernelByName(const std::string &name,
                    const SuiteScale &scale = {});

} // namespace mesa::workloads

#endif // MESA_WORKLOADS_KERNEL_HH
