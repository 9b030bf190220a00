/**
 * @file
 * Micro-benchmarks (google-benchmark): throughput of the simulator's
 * hot paths — instruction decode, functional emulation, LDFG
 * construction, the Algorithm 1 mapping pass, configuration
 * generation, the accelerator iteration engine, and the per-cycle
 * SlotPool on the request streams of the CPU model and the device
 * loop.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cpu/system.hh"
#include "mesa/controller.hh"
#include "util/slot_pool.hh"
#include "workloads/kernel.hh"

using namespace mesa;

namespace
{

const workloads::Kernel &
kernel()
{
    static const workloads::Kernel k = workloads::makeKmeans(4096);
    return k;
}

void
BM_Decode(benchmark::State &state)
{
    const auto &prog = kernel().program;
    for (auto _ : state) {
        for (size_t i = 0; i < prog.words.size(); ++i) {
            benchmark::DoNotOptimize(riscv::decode(
                prog.words[i], prog.base_pc + uint32_t(4 * i)));
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(prog.words.size()));
}
BENCHMARK(BM_Decode);

void
BM_Emulate(benchmark::State &state)
{
    mem::MainMemory memory;
    kernel().plant(memory);
    for (auto _ : state) {
        riscv::Emulator emu(memory);
        emu.reset(kernel().program.base_pc);
        kernel().fullRange()(emu.state());
        emu.run(1'000'000);
        benchmark::DoNotOptimize(emu.instret());
        state.SetItemsProcessed(int64_t(emu.instret()));
    }
}
BENCHMARK(BM_Emulate);

void
BM_LdfgBuild(benchmark::State &state)
{
    const auto body = kernel().loopBody();
    for (auto _ : state) {
        auto g = dfg::Ldfg::build(body);
        benchmark::DoNotOptimize(g);
    }
}
BENCHMARK(BM_LdfgBuild);

void
BM_MapperPass(benchmark::State &state)
{
    const auto accel = accel::AccelParams::m128();
    ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
    core::InstructionMapper mapper(accel, ic);
    auto g = dfg::Ldfg::build(kernel().loopBody());
    for (auto _ : state) {
        auto res = mapper.map(*g);
        benchmark::DoNotOptimize(res.model_latency);
    }
}
BENCHMARK(BM_MapperPass);

void
BM_ConfigBuild(benchmark::State &state)
{
    const auto accel = accel::AccelParams::m128();
    ic::AccelNocInterconnect ic(accel.rows, accel.cols, 4);
    core::InstructionMapper mapper(accel, ic);
    core::ConfigBlock block(accel);
    auto g = dfg::Ldfg::build(kernel().loopBody());
    auto map = mapper.map(*g);
    core::ConfigOptions opts;
    opts.tile_factor = 4;
    for (auto _ : state) {
        auto cfg = block.build(*g, map.sdfg, opts, 0x1000, 0x2000);
        benchmark::DoNotOptimize(cfg.config_words);
    }
}
BENCHMARK(BM_ConfigBuild);

void
BM_AcceleratorRun(benchmark::State &state)
{
    core::MesaParams params;
    params.iterative_optimization = false;
    int64_t iterations = 0;
    for (auto _ : state) {
        mem::MainMemory memory;
        kernel().plant(memory);
        core::MesaController mesa(params, memory);
        riscv::Emulator emu(memory);
        emu.reset(kernel().program.base_pc);
        kernel().fullRange()(emu.state());
        auto os = mesa.offloadLoop(kernel().loopBody(), emu.state(),
                                   true);
        benchmark::DoNotOptimize(os->accel_cycles);
        iterations += int64_t(os->accel_iterations);
    }
    state.SetItemsProcessed(iterations);
}
BENCHMARK(BM_AcceleratorRun);

/**
 * The fault campaign's dominant shape: the same offload with the
 * closing branch stuck taken from iteration 0, so the fabric spins
 * until a 50k-cycle device watchdog cuts it off.
 */
void
BM_AcceleratorRunHung(benchmark::State &state)
{
    core::MesaParams params;
    params.iterative_optimization = false;
    params.accel.watchdog_cycles = 50'000;
    accel::FaultPlane hang;
    hang.stuck_branches.push_back({0});
    int64_t iterations = 0;
    for (auto _ : state) {
        mem::MainMemory memory;
        kernel().plant(memory);
        core::MesaController mesa(params, memory);
        mesa.accelerator().injectFaults(hang);
        riscv::Emulator emu(memory);
        emu.reset(kernel().program.base_pc);
        kernel().fullRange()(emu.state());
        auto os = mesa.offloadLoop(kernel().loopBody(), emu.state(),
                                   true);
        if (!os || !os->accel.watchdog_tripped) {
            state.SkipWithError("offload did not hang to the watchdog");
            break;
        }
        benchmark::DoNotOptimize(os->accel_cycles);
        iterations += int64_t(os->accel_iterations);
    }
    state.SetItemsProcessed(iterations);
}
BENCHMARK(BM_AcceleratorRunHung);

/** Fixed-seed xorshift64 for the SlotPool request streams. */
struct XorShift
{
    uint64_t x;

    uint64_t
    operator()()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

/** Book every request of @p stream on a fresh pool, once per pass. */
void
replaySlotPool(benchmark::State &state, unsigned capacity,
               const std::vector<uint64_t> &stream)
{
    for (auto _ : state) {
        SlotPool pool(capacity);
        for (const uint64_t ready : stream)
            benchmark::DoNotOptimize(pool.acquire(ready));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(stream.size()));
}

/**
 * The OoO core's functional-unit traffic on the Fig. 11/14 cells:
 * measured frontier - ready is about 34% ahead of the frontier, 17%
 * at it, 17% 1-63 cycles behind, 29% 64-1023 behind and 2% 1k-16k
 * behind.
 */
void
BM_SlotPoolCpuStream(benchmark::State &state)
{
    static const std::vector<uint64_t> stream = [] {
        XorShift next{0x3243f6a8885a308dull};
        std::vector<uint64_t> s;
        uint64_t frontier = 0;
        for (int i = 0; i < 1'000'000; ++i) {
            const uint64_t roll = next() % 100;
            uint64_t back = 0;
            if (roll < 34)
                frontier += 1 + next() % 4;
            else if (roll < 51)
                back = 0;
            else if (roll < 68)
                back = 1 + next() % 63;
            else if (roll < 98)
                back = 64 + next() % 960;
            else
                back = 1'024 + next() % 15'360;
            s.push_back(frontier > back ? frontier - back : 0);
        }
        return s;
    }();
    replaySlotPool(state, 2, stream);
}
BENCHMARK(BM_SlotPoolCpuStream);

/**
 * A device-loop memory port on hang injections: normal traffic at
 * or just behind the frontier, then a hung iteration that holds one
 * ready cycle until the watchdog fires, filling a 16384-cycle span
 * at two ports. About 10% of the requests are held ones; most of
 * those wait 4k-16k cycles.
 */
void
BM_SlotPoolSaturatedSpan(benchmark::State &state)
{
    static const std::vector<uint64_t> stream = [] {
        XorShift next{0x13198a2e03707344ull};
        std::vector<uint64_t> s;
        uint64_t frontier = 64;
        while (s.size() < 1'000'000) {
            for (int i = 0; i < 300'000; ++i) {
                frontier += next() % 3;
                s.push_back(frontier - next() % 64);
            }
            const uint64_t held = frontier;
            for (int i = 0; i < 32'768; ++i)
                s.push_back(held);
            frontier += 16'384;
        }
        return s;
    }();
    replaySlotPool(state, 2, stream);
}
BENCHMARK(BM_SlotPoolSaturatedSpan);

} // namespace

BENCHMARK_MAIN();
