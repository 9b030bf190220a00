/**
 * @file
 * Decoded-basic-block cache tests: the cache must be pure
 * memoization. Every observable — architectural state, memory image,
 * instret, halt behavior — is bit-identical with the cache on or
 * off, including under self-modifying code and memory reloads, and
 * runWhileInRegion never counts the halting step.
 */

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "riscv/assembler.hh"
#include "riscv/emulator.hh"
#include "workloads/kernel.hh"

#include "helpers.hh"

namespace
{

using namespace mesa;
using namespace mesa::riscv;
using namespace mesa::riscv::reg;

/** Run one kernel start-to-halt with the decode cache on or off. */
test::GoldenResult
runKernel(const workloads::Kernel &kernel, bool decode_cache,
          uint64_t max_steps = 50'000'000)
{
    mem::MainMemory memory;
    kernel.plant(memory);

    Emulator emu(memory);
    emu.setDecodeCache(decode_cache);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    emu.run(max_steps);

    test::GoldenResult res;
    res.state = emu.state();
    res.memory = memory.snapshot();
    res.instructions = emu.instret();
    return res;
}

/** Full architectural-state comparison. */
void
expectSameState(const ArchState &a, const ArchState &b)
{
    EXPECT_EQ(a.pc, b.pc);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(a.x[size_t(i)], b.x[size_t(i)]) << "x" << i;
        EXPECT_EQ(a.f[size_t(i)], b.f[size_t(i)]) << "f" << i;
    }
}

TEST(DecodeCache, CachedMatchesUncachedAcrossSuite)
{
    // Every kernel in the suite, end to end: the decoded-block cache
    // must not change a single architectural bit.
    for (const auto &kernel : workloads::rodiniaSuite({96})) {
        SCOPED_TRACE(kernel.name);
        const auto cached = runKernel(kernel, true);
        const auto plain = runKernel(kernel, false);
        expectSameState(cached.state, plain.state);
        EXPECT_EQ(cached.instructions, plain.instructions);
        EXPECT_TRUE(test::sameMemory(cached.memory, plain.memory));
    }
}

TEST(DecodeCache, BlocksPopulateAndFlush)
{
    Assembler as;
    as.li(a0, 0);
    as.li(t0, 8);
    as.label("loop");
    as.addi(a0, a0, 3);
    as.addi(t0, t0, -1);
    as.bne(t0, zero, "loop");
    as.ecall();
    const Program prog = as.assemble();

    mem::MainMemory memory;
    cpu::loadProgram(memory, prog);
    Emulator emu(memory);
    emu.reset(prog.base_pc);
    emu.run(1000);
    EXPECT_EQ(emu.x(a0), 24u);
    EXPECT_GT(emu.decodedBlocks(), 0u);

    emu.flushDecodeCache();
    EXPECT_EQ(emu.decodedBlocks(), 0u);

    // Disabling keeps the cache empty through another full run.
    emu.setDecodeCache(false);
    emu.reset(prog.base_pc);
    emu.run(1000);
    EXPECT_EQ(emu.x(a0), 24u);
    EXPECT_EQ(emu.decodedBlocks(), 0u);
}

TEST(DecodeCache, MidRunOverwriteForcesRedecode)
{
    // Patch an instruction after the first loop iteration has been
    // decoded and executed: the page write-generation bump must make
    // the stale block re-decode, with or without the cache.
    Assembler as;
    as.li(a0, 0);
    as.li(t0, 3);
    as.label("loop");
    as.addi(a0, a0, 1);
    as.addi(t0, t0, -1);
    as.bne(t0, zero, "loop");
    as.ecall();
    const Program prog = as.assemble();

    Assembler patch_as;
    patch_as.addi(a0, a0, 10);
    const uint32_t patch_word = patch_as.assemble().words.at(0);

    for (bool decode_cache : {true, false}) {
        SCOPED_TRACE(decode_cache ? "cached" : "uncached");
        mem::MainMemory memory;
        cpu::loadProgram(memory, prog);
        Emulator emu(memory);
        emu.setDecodeCache(decode_cache);
        emu.reset(prog.base_pc);
        // li, li, then one full iteration (addi/addi/bne): 5 steps
        // puts pc back on the loop head with the block cached.
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(emu.step());
        ASSERT_EQ(emu.state().pc, prog.labelPc("loop"));
        ASSERT_EQ(emu.x(a0), 1u);

        memory.write32(prog.labelPc("loop"), patch_word);
        emu.run(1000);
        // Two remaining iterations must see the patched +10.
        EXPECT_EQ(emu.x(a0), 21u);
        EXPECT_TRUE(emu.halted());
    }
}

TEST(DecodeCache, MemoryClearDropsStaleBlocks)
{
    // MainMemory::clear() kills every page; the epoch bump must stop
    // the emulator from executing out of dead decoded blocks.
    Assembler as;
    as.li(a0, 7);
    as.ecall();
    const Program prog = as.assemble();

    Assembler as2;
    as2.li(a0, 9);
    as2.ecall();
    const Program prog2 = as2.assemble();

    mem::MainMemory memory;
    cpu::loadProgram(memory, prog);
    Emulator emu(memory);
    emu.reset(prog.base_pc);
    emu.run(100);
    EXPECT_EQ(emu.x(a0), 7u);

    memory.clear();
    cpu::loadProgram(memory, prog2);
    emu.reset(prog2.base_pc);
    emu.run(100);
    EXPECT_EQ(emu.x(a0), 9u);
}

TEST(DecodeCache, RunWhileInRegionExcludesHaltingStep)
{
    // A halt inside the region must not be counted: a failed step
    // commits nothing, so the return value is exactly the number of
    // committed region instructions.
    Assembler as;
    as.addi(a0, a0, 1);
    as.addi(a0, a0, 2);
    as.ecall();
    const Program prog = as.assemble();

    for (bool decode_cache : {true, false}) {
        SCOPED_TRACE(decode_cache ? "cached" : "uncached");
        mem::MainMemory memory;
        cpu::loadProgram(memory, prog);
        Emulator emu(memory);
        emu.setDecodeCache(decode_cache);
        emu.reset(prog.base_pc);
        const uint64_t n =
            emu.runWhileInRegion(prog.base_pc, prog.endPc(), 100);
        EXPECT_EQ(n, 2u);
        EXPECT_EQ(emu.instret(), 2u);
        EXPECT_TRUE(emu.halted());
        EXPECT_EQ(emu.x(a0), 3u);
    }
}

TEST(DecodeCache, RunWhileInRegionCountsExitingBranch)
{
    // The instruction that transfers control out of the region does
    // commit, so it is counted; execution stops with pc outside.
    Assembler as;
    as.li(t0, 2);
    as.label("loop");
    as.addi(a0, a0, 5);
    as.addi(t0, t0, -1);
    as.bne(t0, zero, "loop");
    as.ecall();
    const Program prog = as.assemble();

    mem::MainMemory memory;
    cpu::loadProgram(memory, prog);
    Emulator emu(memory);
    emu.reset(prog.base_pc);
    ASSERT_TRUE(emu.step()); // execute the li prologue
    const uint32_t lo = prog.labelPc("loop");
    const uint32_t hi = lo + 12;
    const uint64_t n = emu.runWhileInRegion(lo, hi, 100);
    // Two iterations of three instructions each; the final bne falls
    // through to the ecall one past the region, ending the run.
    EXPECT_EQ(n, 6u);
    EXPECT_FALSE(emu.halted());
    EXPECT_EQ(emu.state().pc, hi);
    EXPECT_EQ(emu.x(a0), 10u);
}

} // namespace
