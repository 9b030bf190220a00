/**
 * @file
 * Benchmark binary: runs one named workload through the simulator
 * libraries' public entry points, checks its functional outputs, and
 * prints a raw JSON record (samples, counters, span totals) as its
 * last stdout line. perfbench/run.py builds this binary, turns the
 * record into the benchmark's metrics, and prints the report.
 *
 *   mesa_perfbench --workload paper-repro --seed 1 --seconds 10
 *                  --trace 0 --work-dir <dir>
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   paper-repro        Fig. 11 and Fig. 14 cells, one public call each
 *   fault-campaign     fault::runCampaign, 16 x 16 checked injections
 *   serve-closed-loop  service::runService, 128 tenants x 32 jobs
 *
 * --trace 0 repeats set-up + timed section until --seconds elapse.
 * --trace 1 runs one untraced pass (reference wall time and library
 * counters), then replays the workload stage by stage twice: with
 * spans off and with spans on. Every span wraps one call into a
 * layer's public function; nothing inside src/ is instrumented.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "absint/certificate.hh"
#include "accel/accelerator.hh"
#include "baseline/dynaspam.hh"
#include "cpu/monitor.hh"
#include "cpu/system.hh"
#include "dfg/ldfg.hh"
#include "fault/campaign.hh"
#include "fault/checkpoint.hh"
#include "fault/injector.hh"
#include "mesa/config_builder.hh"
#include "mesa/controller.hh"
#include "mesa/mapper.hh"
#include "mesa/translation_store.hh"
#include "migrate/migrate.hh"
#include "power/energy_model.hh"
#include "prof/profile.hh"
#include "riscv/emulator.hh"
#include "service/backend.hh"
#include "service/service.hh"
#include "service/traffic.hh"
#include "util/rng.hh"
#include "workloads/kernel.hh"
#include "workloads/suite.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace mesa;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host-speed reference: a fixed slice of integer work (xorshift-
 * indexed read-modify-writes with data-dependent branches over a
 * 256 KiB table), timed between units of a pass. The shared host's
 * speed drifts by tens of percent within minutes; a pass's host time
 * divided by the mean slice time of the slices interleaved with it
 * cancels much of that drift. The slice is compiled into the benchmark, not
 * the simulator, so no simulator change can move it.
 */
class HostReference
{
  public:
    void
    reset()
    {
        total_s_ = 0.0;
        slices_ = 0;
    }

    /** Run and time one slice; returns its seconds. */
    double
    slice()
    {
        const auto t0 = Clock::now();
        for (uint32_t k = 0; k < 80'000; ++k) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 17;
            x_ ^= x_ << 5;
            uint32_t &slot = table_[x_ & (table_.size() - 1)];
            acc_ += (slot & 1) ? slot * 3 : slot >> 1;
            slot = acc_ ^ k;
        }
        const double dt = secondsSince(t0);
        total_s_ += dt;
        ++slices_;
        return dt;
    }

    double total() const { return total_s_; }
    double mean() const { return slices_ ? total_s_ / double(slices_) : 0.0; }

  private:
    std::vector<uint32_t> table_ = std::vector<uint32_t>(1u << 16, 1);
    uint32_t x_ = 2463534242u;
    uint32_t acc_ = 0;
    double total_s_ = 0.0;
    uint64_t slices_ = 0;
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. A span is (name, parent, start, end); a
 * span's self time is its duration minus the part its direct children
 * cover. Disabled, a Scope costs one branch, so the same replay code
 * runs with spans off (reference) and on (traced).
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double t0 = 0.0;
        double t1 = 0.0;
    };

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name) : tracer_(tracer)
        {
            if (tracer_.on_)
                tracer_.begin(name);
        }
        ~Scope()
        {
            if (tracer_.on_)
                tracer_.end();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
    };

    void
    start(bool on)
    {
        on_ = on;
        spans_.clear();
        stack_.clear();
        origin_ = Clock::now();
    }

    double now() const { return secondsSince(origin_); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    void
    begin(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.t0 = now();
        stack_.push_back(int(spans_.size()));
        spans_.push_back(std::move(s));
    }

    void
    end()
    {
        spans_[size_t(stack_.back())].t1 = now();
        stack_.pop_back();
    }

    bool on_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Per-span-name totals: self seconds and call count. */
struct SpanTotal
{
    double self_s = 0.0;
    uint64_t calls = 0;
};

std::map<std::string, SpanTotal>
spanTotals(const std::vector<Tracer::Span> &spans, double &top_level_s)
{
    std::vector<double> child(spans.size(), 0.0);
    top_level_s = 0.0;
    for (const auto &s : spans) {
        if (s.parent >= 0)
            child[size_t(s.parent)] += s.t1 - s.t0;
        else
            top_level_s += s.t1 - s.t0;
    }
    std::map<std::string, SpanTotal> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanTotal &t = out[spans[i].name];
        t.self_s += (spans[i].t1 - spans[i].t0) - child[i];
        ++t.calls;
    }
    return out;
}

// ---------------------------------------------------------------------
// Raw record (full-precision JSON)
// ---------------------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out + "\"";
}

std::string
array(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + num(values[i]);
    return out + "]";
}

/** What one run of the binary measured. */
struct Record
{
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    /** Mean HostReference slice time during each pass. */
    std::vector<double> ref_slice_s;
    /** Per-unit host times: figure cells (ms) or job completion
     *  intervals (us), pooled over passes. */
    std::vector<double> cell_ms;
    std::vector<double> job_host_us;
    /** Deterministic simulated figures, identical on every pass. */
    std::map<std::string, double> sim;
    std::vector<double> sim_latencies;
    /** Counters read from the libraries (numerators/denominators). */
    std::map<std::string, double> counters;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    // Traced runs only.
    double untraced_wall_s = 0.0;
    double replay_untraced_s = 0.0;
    double replay_traced_s = 0.0;
    double replay_top_level_s = 0.0;
    std::map<std::string, SpanTotal> spans;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 16)
            failures.push_back(why);
    }

    void
    expectSame(const std::string &what, double first, double again)
    {
        if (first != again)
            fail(what + " differs between passes of one seed");
    }
};

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/** Plant @p kernel's dataset and program into @p memory. */
void
plantKernel(const workloads::Kernel &kernel, mem::MainMemory &memory)
{
    kernel.init_data(memory);
    cpu::loadProgram(memory, kernel.program);
}

/** Step the emulator until it reaches the kernel's loop head. */
void
advanceToLoop(riscv::Emulator &emu, const workloads::Kernel &kernel)
{
    uint64_t steps = 0;
    while (!emu.halted() && emu.state().pc != kernel.loop_start &&
           steps < 1'000'000) {
        emu.step();
        ++steps;
    }
}

void
startKernel(riscv::Emulator &emu, const workloads::Kernel &kernel)
{
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
}

uint64_t
stepBound(const workloads::Kernel &kernel)
{
    return 4 * kernel.iterations * kernel.program.words.size() +
           1'000'000;
}

/** CPU-only reference run: final state and memory of the kernel. */
struct Golden
{
    riscv::ArchState state;
    fault::MemSnapshot memory;
    uint64_t instructions = 0;
    bool halted = false;
};

Golden
runGolden(const workloads::Kernel &kernel)
{
    mem::MainMemory memory;
    plantKernel(kernel, memory);
    riscv::Emulator emu(memory);
    startKernel(emu, kernel);
    emu.run(stepBound(kernel));
    return {emu.state(), memory.snapshot(), emu.instret(), emu.halted()};
}

/** Accelerator activity of one device run, added to the counters. */
void
countDeviceRun(Record &rec, const accel::AccelRunResult &run,
               const prof::AccelProfile &before,
               const prof::AccelProfile &after)
{
    auto &c = rec.counters;
    c["accel.cycles"] += double(run.cycles);
    c["accel.iterations"] += double(run.iterations);
    c["accel.watchdog_trips"] += run.watchdog_tripped ? 1 : 0;
    c["accel.compute_cycles"] +=
        double(after.compute_cycles - before.compute_cycles);
    c["accel.noc_stall_cycles"] +=
        double(after.noc_stall_cycles - before.noc_stall_cycles);
    c["accel.mem_stall_cycles"] +=
        double(after.mem_stall_cycles - before.mem_stall_cycles);
}

/** A persistent device (as a service backend keeps one): rebound to
 *  each run's memory, profile attached. */
struct Device
{
    explicit Device(const core::MesaParams &params)
        : accel(params.accel, boot, params.accel_mem),
          mesa(params, boot), profile(params.accel.rows, params.accel.cols)
    {
        accel.setProfile(&profile);
    }

    mem::MainMemory boot;
    accel::Accelerator accel;
    core::MesaController mesa; ///< translateOnly's controller
    prof::AccelProfile profile;
};

/** Which stages a workload's own path exercises for one offload. */
struct StagePlan
{
    bool monitor = false;   ///< cpu: RegionMonitor over the loop trace
    bool translate = true;  ///< dfg/mesa: encode, map, config build,
                            ///< translateOnly
};

/**
 * Stage-by-stage replay of one offload: each lower layer's public
 * function called directly on the offload's inputs, each in its own
 * span. Devices persist per parameter set, so their construction is
 * paid once, not per offload.
 */
class OffloadReplay
{
  public:
    OffloadReplay(Tracer &tr, Record &rec) : tr_(tr), rec_(rec) {}

    Device &
    device(const core::MesaParams &params)
    {
        auto &slot = devices_[core::paramsFingerprint(params)];
        if (!slot)
            slot = std::make_unique<Device>(params);
        return *slot;
    }

    void
    run(const workloads::Kernel &kernel,
        const std::vector<riscv::Instruction> &body,
        const core::MesaParams &params, const StagePlan &plan)
    {
        if (plan.monitor)
            monitor(kernel, body, params);
        if (plan.translate)
            offload(kernel, body, params);
    }

  private:
    /** The CPU side before an offload: emulate into the loop and let
     *  the region monitor judge the committed trace. */
    void
    monitor(const workloads::Kernel &kernel,
            const std::vector<riscv::Instruction> &body,
            const core::MesaParams &params)
    {
        auto &c = rec_.counters;
        mem::MainMemory memory;
        {
            Tracer::Scope s(tr_, "workloads.build");
            plantKernel(kernel, memory);
        }
        std::vector<riscv::TraceEntry> trace;
        riscv::Emulator emu(memory);
        {
            Tracer::Scope s(tr_, "riscv.emu");
            startKernel(emu, kernel);
            advanceToLoop(emu, kernel);
            emu.setObserver([&trace](const riscv::TraceEntry &e) {
                trace.push_back(e);
            });
            emu.runWhileInRegion(kernel.loop_start, kernel.loop_end,
                                 64 * std::max<size_t>(1, body.size()));
            emu.setObserver({});
        }
        c["riscv.instructions"] += double(emu.instret());
        bool decided = false, qualified = false;
        {
            Tracer::Scope s(tr_, "cpu.monitor");
            cpu::RegionMonitor monitor(params.monitor);
            for (const auto &e : trace) {
                monitor.observe(e);
                if (monitor.decision()) {
                    decided = true;
                    qualified = monitor.decision()->qualified;
                    break;
                }
            }
        }
        c["cpu.monitor.decisions"] += decided ? 1 : 0;
        c["cpu.monitor.qualified"] += qualified ? 1 : 0;
    }

    /** Translate the body stage by stage and run it on the device. */
    void
    offload(const workloads::Kernel &kernel,
            const std::vector<riscv::Instruction> &body,
            const core::MesaParams &params)
    {
        auto &c = rec_.counters;
        Device &dev = device(params);
        mem::MainMemory memory;
        {
            Tracer::Scope s(tr_, "workloads.build");
            plantKernel(kernel, memory);
        }
        riscv::Emulator emu(memory);
        {
            Tracer::Scope s(tr_, "riscv.emu");
            startKernel(emu, kernel);
            advanceToLoop(emu, kernel);
        }
        c["riscv.instructions"] += double(emu.instret());

        std::optional<dfg::Ldfg> ldfg;
        {
            Tracer::Scope s(tr_, "dfg.encode");
            ldfg = dfg::Ldfg::build(body, params.accel.op_latency,
                                    params.accel.capacity());
        }
        c["dfg.encodes"] += 1;
        if (!ldfg) {
            c["dfg.encode_failures"] += 1;
            return;
        }

        core::MapResult placed;
        {
            Tracer::Scope s(tr_, "mesa.map");
            core::InstructionMapper mapper(
                params.accel, dev.accel.interconnect(), params.mapper);
            placed = mapper.map(*ldfg);
        }
        c["mesa.maps"] += 1;
        const double unmapped =
            double(placed.unmapped.size()) / double(ldfg->size());
        if (unmapped > params.max_unmapped_frac) {
            c["mesa.map_failures"] += 1;
            return;
        }

        accel::AcceleratorConfig config;
        {
            Tracer::Scope s(tr_, "mesa.config");
            core::ConfigOptions options;
            options.enable_forwarding = params.enable_forwarding;
            options.enable_vectorization = params.enable_vectorization;
            options.enable_prefetch = params.enable_prefetch;
            options.pipelined = params.enable_pipelining;
            config = core::ConfigBlock(params.accel)
                         .build(*ldfg, placed.sdfg, options,
                                kernel.loop_start, kernel.loop_end);
            config.model_latency = placed.model_latency;
        }

        bool translated = false;
        {
            Tracer::Scope s(tr_, "mesa.translate");
            translated = dev.mesa.translateOnly(body, kernel.parallel);
        }
        c["mesa.translations"] += 1;
        c["mesa.translate_failures"] += translated ? 0 : 1;

        dev.accel.rebindMemory(memory);
        const prof::AccelProfile before = dev.profile;
        {
            Tracer::Scope s(tr_, "accel.configure");
            dev.accel.configure(config);
        }
        accel::AccelRunResult run;
        {
            Tracer::Scope s(tr_, "accel.run");
            run = dev.accel.run(emu.state());
        }
        dev.accel.rebindMemory(dev.boot);
        countDeviceRun(rec_, run, before, dev.profile);
    }

    Tracer &tr_;
    Record &rec_;
    std::map<uint32_t, std::unique_ptr<Device>> devices_;
};

// ---------------------------------------------------------------------
// paper-repro
// ---------------------------------------------------------------------

/** Paper Fig. 11 suite averages (perf M-128, perf M-512, energy
 *  efficiency M-128, M-512); perfbench/paper_reference.json cites
 *  them and run.py compares against them. */
constexpr int Fig11Averages = 4;

const char *const kFig14Kernels[] = {"backprop", "bfs",  "hotspot",
                                     "kmeans",   "lud",  "nn",
                                     "pathfinder", "srad", "b+tree"};

enum class CellKind { Multicore, SingleCore, DynaSpam, Mesa };

struct Cell
{
    CellKind kind = CellKind::Mesa;
    const workloads::Kernel *kernel = nullptr;
    core::MesaParams params;
    int fig = 11;
};

/** The fixed cell grid: Fig. 11 (multicore, M-128, M-512 per
 *  kernel) then Fig. 14 (single core, DynaSpAM, M-64 opt, M-64
 *  +reconfig per kernel). Fig. 14's DynaSpAM cell reads the AMAT of
 *  the single-core cell just before it. */
std::vector<Cell>
paperCells(const std::vector<workloads::Kernel> &fig11,
           const std::vector<workloads::Kernel> &fig14)
{
    std::vector<Cell> cells;
    for (size_t k = 0; k < fig11.size(); ++k) {
        cells.push_back({CellKind::Multicore, &fig11[k], {}, 11});
        for (bool big : {false, true}) {
            Cell m{CellKind::Mesa, &fig11[k], {}, 11};
            m.params.accel = big ? accel::AccelParams::m512()
                                 : accel::AccelParams::m128();
            cells.push_back(m);
        }
    }
    for (size_t k = 0; k < fig14.size(); ++k) {
        cells.push_back({CellKind::SingleCore, &fig14[k], {}, 14});
        cells.push_back({CellKind::DynaSpam, &fig14[k], {}, 14});
        for (bool iterative : {false, true}) {
            Cell m{CellKind::Mesa, &fig14[k], {}, 14};
            m.params.accel = accel::AccelParams::m64();
            m.params.host_core = cpu::dynaspamBaselineCore();
            m.params.iterative_optimization = iterative;
            m.params.monitor.max_instructions = m.params.accel.capacity();
            cells.push_back(m);
        }
    }
    return cells;
}

/** One cell's live inputs: its memory image and, for MESA cells, the
 *  controller bound to it (built in set-up). */
struct CellContext
{
    mem::MainMemory memory;
    std::unique_ptr<core::MesaController> mesa;
};

/** One cell's outputs. */
struct CellResult
{
    cpu::RunResult cpu;
    core::TransparentRunResult mesa;
    double dynaspam_speedup = 1.0;
    double energy_nj = 0.0;
};

struct PaperSetup
{
    std::vector<workloads::Kernel> fig11, fig14;
    std::vector<Cell> cells;
    std::vector<std::unique_ptr<CellContext>> contexts;
};

void
paperSetup(PaperSetup &s)
{
    s.fig11 = workloads::rodiniaSuite({16384});
    s.fig14.clear();
    for (const char *name : kFig14Kernels)
        s.fig14.push_back(workloads::kernelByName(name, {16384}));
    s.cells = paperCells(s.fig11, s.fig14);
    s.contexts.clear();
    for (const Cell &cell : s.cells) {
        auto ctx = std::make_unique<CellContext>();
        cell.kernel->init_data(ctx->memory);
        if (cell.kind == CellKind::Mesa)
            ctx->mesa = std::make_unique<core::MesaController>(
                cell.params, ctx->memory);
        else
            cpu::loadProgram(ctx->memory, cell.kernel->program);
        s.contexts.push_back(std::move(ctx));
    }
}

CellResult
runCell(const Cell &cell, CellContext &ctx, const CellResult *prev)
{
    const workloads::Kernel &kernel = *cell.kernel;
    CellResult r;
    switch (cell.kind) {
      case CellKind::Multicore: {
        cpu::MulticoreParams mp;
        mp.num_cores = 16;
        const auto threads =
            kernel.parallel
                ? kernel.chunks(16)
                : std::vector<cpu::ThreadInit>{kernel.fullRange()};
        r.cpu = cpu::runMulticore(mp, ctx.memory, kernel.program,
                                  threads);
        break;
      }
      case CellKind::SingleCore:
        r.cpu = cpu::runSingleCore(cpu::dynaspamBaselineCore(), {},
                                   ctx.memory, kernel.program,
                                   kernel.fullRange());
        break;
      case CellKind::DynaSpam: {
        baseline::DynaSpamParams dp;
        dp.mem_latency = std::max(2.0, prev ? prev->cpu.amat : 2.0);
        if (auto ldfg = dfg::Ldfg::build(kernel.loopBody())) {
            const auto res = baseline::DynaSpamMapper(dp).map(*ldfg);
            if (res.qualified && prev) {
                const uint64_t cycles = res.cyclesFor(kernel.iterations);
                if (cycles > 0)
                    r.dynaspam_speedup = double(prev->cpu.cycles) /
                                         double(cycles);
            }
        }
        r.dynaspam_speedup = std::max(1.0, r.dynaspam_speedup);
        break;
      }
      case CellKind::Mesa:
        r.mesa = ctx.mesa->runTransparent(kernel.program,
                                          kernel.fullRange(),
                                          kernel.parallel);
        break;
    }
    return r;
}

/** Modeled energy of a finished cell (bench/common.hh's formula). */
void
cellEnergy(const Cell &cell, CellResult &r)
{
    if (cell.kind == CellKind::Multicore ||
        cell.kind == CellKind::SingleCore) {
        r.energy_nj = power::PowerModel(accel::AccelParams::m128())
                          .cpuEnergyNj(r.cpu);
    } else if (cell.kind == CellKind::Mesa) {
        power::PowerModel pm(cell.params.accel, cell.params.clock_ghz);
        r.energy_nj = pm.cpuEnergyNj(r.mesa.cpu);
        for (const auto &os : r.mesa.offloads)
            r.energy_nj +=
                pm.accelEnergy(os.accel, os.totalConfigCycles() +
                                             os.reconfig_cycles)
                    .total();
    }
}

class PaperRepro
{
  public:
    explicit PaperRepro(Record &rec) : rec_(rec) {}

    double
    setup()
    {
        const auto t0 = Clock::now();
        paperSetup(s_);
        return secondsSince(t0);
    }

    /** One timed pass over every cell, a reference slice after each;
     *  then the functional gate. Returns the pass's own host time. */
    double
    pass(bool first, HostReference &ref)
    {
        std::vector<CellResult> results(s_.cells.size());
        const auto t0 = Clock::now();
        for (size_t i = 0; i < s_.cells.size(); ++i) {
            const auto tc = Clock::now();
            results[i] = runCell(s_.cells[i], *s_.contexts[i],
                                 i ? &results[i - 1] : nullptr);
            rec_.cell_ms.push_back(secondsSince(tc) * 1e3);
            ref.slice();
        }
        const double wall = secondsSince(t0) - ref.total();
        check(results, first);
        return wall;
    }

    /** Config-cache counters of the last pass's MESA controllers. */
    void
    readCounters()
    {
        auto &c = rec_.counters;
        for (size_t i = 0; i < s_.cells.size(); ++i) {
            if (s_.cells[i].kind != CellKind::Mesa)
                continue;
            auto &cache = s_.contexts[i]->mesa->configCache();
            c["mesa.cache.hits"] += double(cache.hits());
            c["mesa.cache.lookups"] +=
                double(cache.hits() + cache.misses());
            c["mesa.cache.tag_conflicts"] += double(cache.tagConflicts());
        }
    }

    void
    replay(Tracer &tr)
    {
        // Baseline cells are themselves calls into the cpu layer;
        // MESA cells are replayed through their stages.
        OffloadReplay offloads(tr, rec_);
        CellResult prev;
        for (const Cell &cell : s_.cells) {
            const workloads::Kernel &kernel = *cell.kernel;
            if (cell.kind == CellKind::Mesa) {
                offloads.run(kernel, kernel.loopBody(), cell.params,
                             {true, true});
                continue;
            }
            CellContext ctx;
            {
                Tracer::Scope s(tr, "workloads.build");
                plantKernel(kernel, ctx.memory);
            }
            if (cell.kind == CellKind::DynaSpam) {
                Tracer::Scope s(tr, "baseline.dynaspam");
                runCell(cell, ctx, &prev);
                continue;
            }
            {
                Tracer::Scope s(tr, "cpu.ooo");
                prev = runCell(cell, ctx, nullptr);
            }
            rec_.counters["cpu.ooo.instructions"] +=
                double(prev.cpu.instructions);
        }
        // The gate's CPU-only reference runs.
        for (const auto &kernel : s_.fig11) {
            Tracer::Scope s(tr, "riscv.emu");
            rec_.counters["riscv.instructions"] +=
                double(runGolden(kernel).instructions);
        }
    }

  private:
    void
    check(std::vector<CellResult> &results, bool first)
    {
        if (goldens_.empty())
            for (const auto &kernel : s_.fig11)
                goldens_[kernel.name] = runGolden(kernel);

        double sim_cycles = 0.0;
        std::vector<double> perf[2], eff[2];
        for (size_t i = 0; i < s_.cells.size(); ++i) {
            const Cell &cell = s_.cells[i];
            CellResult &r = results[i];
            cellEnergy(cell, r);
            ++rec_.attempted;
            if (cell.kind != CellKind::Mesa)
                continue;
            sim_cycles += double(r.mesa.total_cycles);
            const Golden &g = goldens_.at(cell.kernel->name);
            if (!g.halted || !r.mesa.halted ||
                !(r.mesa.final_state == g.state) ||
                !fault::memorySnapshotsEqual(
                    s_.contexts[i]->memory.snapshot(), g.memory))
                rec_.fail("paper-repro: " + cell.kernel->name + " fig" +
                          std::to_string(cell.fig) +
                          " MESA result differs from the CPU-only run");
            if (cell.fig == 11) {
                // cells: [multicore, M-128, M-512] per kernel
                const CellResult &base = results[i - (i % 3)];
                const int big = int(i % 3) - 1;
                perf[big].push_back(double(base.cpu.cycles) /
                                    double(r.mesa.total_cycles));
                eff[big].push_back(base.energy_nj / r.energy_nj);
            }
        }
        auto mean = [](const std::vector<double> &v) {
            double sum = 0.0;
            for (double x : v)
                sum += x;
            return v.empty() ? 0.0 : sum / double(v.size());
        };
        const double avgs[Fig11Averages] = {mean(perf[0]), mean(perf[1]),
                                            mean(eff[0]), mean(eff[1])};
        const char *names[Fig11Averages] = {
            "fig11.perf_m128", "fig11.perf_m512", "fig11.eff_m128",
            "fig11.eff_m512"};
        if (first) {
            rec_.sim["sim_cycles"] = sim_cycles;
            for (int a = 0; a < Fig11Averages; ++a)
                rec_.sim[names[a]] = avgs[a];
        } else {
            rec_.expectSame("paper-repro sim_cycles",
                            rec_.sim["sim_cycles"], sim_cycles);
            for (int a = 0; a < Fig11Averages; ++a)
                rec_.expectSame(std::string("paper-repro ") + names[a],
                                rec_.sim[names[a]], avgs[a]);
        }
    }

    Record &rec_;
    PaperSetup s_;
    std::map<std::string, Golden> goldens_;
};

// ---------------------------------------------------------------------
// fault-campaign
// ---------------------------------------------------------------------

/** The MesaParams runCampaign gives every injection's controller
 *  (fault/campaign.cc runInjection), so set-up fills the store under
 *  the keys the campaign probes. */
core::MesaParams
campaignMesaParams(const fault::CampaignParams &cp)
{
    core::MesaParams mp;
    mp.accel = cp.accel;
    mp.fault.enabled = true;
    mp.fault.checked_mode = cp.checked;
    mp.fault.watchdog_cycles = cp.watchdog_cycles;
    mp.fault.certificate_gating = cp.certify;
    mp.fault.migrate_on_fault = cp.migrate;
    mp.fault.quarantine = cp.quarantine;
    mp.fault.seed = cp.seed;
    return mp;
}

core::TranslationKey
storeKey(const workloads::Kernel &kernel,
         const std::vector<riscv::Instruction> &body,
         const core::MesaParams &mp)
{
    return {body.front().pc, body.back().pc + 4, migrate::bodyCrc(body),
            core::paramsFingerprint(mp), core::blockedPeDigest({}),
            kernel.parallel};
}

class FaultCampaign
{
  public:
    FaultCampaign(Record &rec, uint64_t seed, const fs::path &work)
        : rec_(rec), work_(work)
    {
        cp_.seed = seed;
        cp_.injections_per_kernel = 16;
        cp_.scale = {128};
        cp_.checked = true;
        cp_.certify = false;
        cp_.jobs = 2;
    }

    ~FaultCampaign() { dropStore(); }

    /** Build the kernels and controllers and fill a fresh store. */
    double
    setup()
    {
        dropStore();
        const auto t0 = Clock::now();
        store_dir_ = work_ / ("store-" + std::to_string(++stores_));
        core::TranslationStore::global().setDirectory(store_dir_.string());
        kernels_ = workloads::selectKernels({}, cp_.scale);
        const core::MesaParams mp = campaignMesaParams(cp_);
        for (const auto &kernel : kernels_) {
            mem::MainMemory memory;
            plantKernel(kernel, memory);
            core::MesaController mesa(mp, memory);
            mesa.translateOnly(kernel.loopBody(), kernel.parallel);
        }
        // A fresh directory handle: the timed run parses entries from
        // disk instead of an in-process memo left by the fill.
        core::TranslationStore::global().setDirectory(store_dir_.string());
        return secondsSince(t0);
    }

    /**
     * One runCampaign call per kernel (its 16 injections, sharded as
     * runCampaign shards every kernel), with reference slices between
     * the calls: one whole-suite call could not be interleaved with
     * them. Each kernel's campaign seed is drawn from --seed.
     */
    double
    pass(bool first, HostReference &ref)
    {
        result_ = fault::CampaignResult{};
        result_.params = cp_;
        double wall = 0.0;
        for (size_t ki = 0; ki < kernels_.size(); ++ki) {
            const auto t0 = Clock::now();
            fault::CampaignResult one = fault::runCampaign(kernelParams(ki));
            const double dt = secondsSince(t0);
            wall += dt;
            rec_.cell_ms.push_back(dt * 1e3);
            for (auto &k : one.kernels)
                result_.kernels.push_back(std::move(k));
            for (int i = 0; i < 4; ++i)
                ref.slice();
        }
        check(first);
        return wall;
    }

    void
    readCounters()
    {
        auto &c = rec_.counters;
        c["fault.injections"] += result_.totalInjections();
        c["fault.detected"] += result_.totalDetected();
        c["fault.recovered"] += result_.totalRecovered();
        c["fault.benign"] += result_.totalBenign();
    }

    /** Per kernel: golden run, store probe and write-back; per
     *  injection: loop entry, checkpoint, warm store load, the fault-
     *  planted device run under the watchdog, rollback and golden
     *  re-execution of the region. Fault plans use runCampaign's RNG
     *  forks, so the device sees the same faults as in the pass. */
    void
    replay(Tracer &tr)
    {
        auto &c = rec_.counters;
        const core::MesaParams mp = campaignMesaParams(cp_);
        auto &store = core::TranslationStore::global();
        // Drop the in-process memo: each key's first probe parses its
        // entry from disk, as in the campaign.
        store.setDirectory(store_dir_.string());
        OffloadReplay offloads(tr, rec_);
        Device &dev = offloads.device(mp);
        for (size_t ki = 0; ki < kernels_.size(); ++ki) {
            const workloads::Kernel &kernel = kernels_[ki];
            const auto body = kernel.loopBody();
            {
                Tracer::Scope s(tr, "riscv.emu");
                c["riscv.instructions"] +=
                    double(runGolden(kernel).instructions);
            }
            const core::TranslationKey key = storeKey(kernel, body, mp);
            for (int j = 0; j < cp_.injections_per_kernel; ++j) {
                mem::MainMemory memory;
                {
                    Tracer::Scope s(tr, "workloads.build");
                    plantKernel(kernel, memory);
                }
                riscv::Emulator emu(memory);
                {
                    Tracer::Scope s(tr, "riscv.emu");
                    startKernel(emu, kernel);
                    advanceToLoop(emu, kernel);
                }
                c["riscv.instructions"] += double(emu.instret());
                fault::Checkpoint checkpoint;
                {
                    Tracer::Scope s(tr, "fault.checkpoint");
                    checkpoint = fault::Checkpoint::capture(emu.state(),
                                                            memory);
                }
                core::PreparedRegion prep;
                core::PersistOutcome outcome;
                {
                    Tracer::Scope s(tr, "mesa.store_load");
                    outcome = store.load(key, prep);
                }
                countOutcome(outcome);
                if (outcome != core::PersistOutcome::Hit)
                    continue;
                if (j == 0) {
                    Tracer::Scope s(tr, "mesa.store_write");
                    c["mesa.store.writes"] += 1;
                    if (store.store(key, prep) !=
                        core::PersistOutcome::Stored)
                        rec_.fail("fault-campaign: translation store "
                                  "write failed");
                }
                replayInjection(tr, dev, body, prep, ki, j, memory,
                                emu.state());
                riscv::ArchState state;
                {
                    Tracer::Scope s(tr, "fault.checkpoint");
                    checkpoint.restore(state, memory);
                }
                riscv::Emulator golden(memory);
                {
                    Tracer::Scope s(tr, "riscv.emu");
                    golden.state() = state;
                    golden.runWhileInRegion(kernel.loop_start,
                                            kernel.loop_end,
                                            stepBound(kernel));
                }
                c["riscv.instructions"] += double(golden.instret());
            }
        }
    }

  private:
    fault::CampaignParams
    kernelParams(size_t ki) const
    {
        fault::CampaignParams cp = cp_;
        cp.kernels = {kernels_[ki].name};
        cp.seed = SplitMix64(cp_.seed).fork(ki + 1).next();
        return cp;
    }

    void
    replayInjection(Tracer &tr, Device &dev,
                    const std::vector<riscv::Instruction> &body,
                    const core::PreparedRegion &prep, size_t ki, int j,
                    mem::MainMemory &memory, riscv::ArchState entry)
    {
        const auto kind = fault::FaultKind(j % fault::FaultKindCount);
        // runCampaign's fork for injection j of its only kernel.
        SplitMix64 rng = SplitMix64(kernelParams(ki).seed)
                             .fork(1)
                             .fork(uint64_t(j) + 1);
        accel::FaultPlane plane;
        switch (kind) {
          case fault::FaultKind::ConfigBitFlip:
            // The controller's CRC gate rejects the corrupted
            // bitstream before the device runs.
            return;
          case fault::FaultKind::TransientDatapath:
            plane.transients.push_back(
                fault::makeTransient(rng, body.size(), 64));
            break;
          case fault::FaultKind::StuckPe:
            plane.stuck_pes.push_back(fault::makeStuckPe(rng, cp_.accel));
            break;
          case fault::FaultKind::DeadLink:
            plane.dead_links.push_back(
                fault::makeDeadLink(rng, cp_.accel));
            break;
          case fault::FaultKind::OffloadHang:
            plane.stuck_branches.push_back(fault::makeHang(rng));
            break;
        }
        dev.accel.rebindMemory(memory);
        dev.accel.injectFaults(plane);
        const prof::AccelProfile before = dev.profile;
        {
            Tracer::Scope s(tr, "accel.configure");
            dev.accel.configure(prep.config);
        }
        accel::AccelRunResult run;
        {
            Tracer::Scope s(tr, "accel.run");
            run = dev.accel.run(entry, ~uint64_t(0), cp_.watchdog_cycles);
        }
        dev.accel.clearFaults();
        dev.accel.rebindMemory(dev.boot);
        countDeviceRun(rec_, run, before, dev.profile);
    }

    void
    countOutcome(core::PersistOutcome outcome)
    {
        auto &c = rec_.counters;
        c["mesa.store.loads"] += 1;
        switch (outcome) {
          case core::PersistOutcome::Hit:
            c["mesa.store.hits"] += 1;
            break;
          case core::PersistOutcome::Corrupt:
          case core::PersistOutcome::VersionSkew:
          case core::PersistOutcome::KeyMismatch:
            c["mesa.store.rejects"] += 1;
            break;
          default:
            break;
        }
    }

    void
    check(bool first)
    {
        const int injections = result_.totalInjections();
        rec_.attempted += uint64_t(injections);
        for (const auto &k : result_.kernels) {
            for (int i = 0; i < k.silent; ++i)
                rec_.fail("fault-campaign: silent corruption on " +
                          k.name);
            for (int i = 0; i < k.corrupted; ++i)
                rec_.fail("fault-campaign: failed recovery on " + k.name);
            for (int i = k.remap_clean; i < k.remap_checks; ++i)
                rec_.fail("fault-campaign: remap onto a quarantined PE "
                          "on " + k.name);
        }
        if (injections != 16 * 16)
            rec_.fail("fault-campaign: ran " + std::to_string(injections) +
                      " injections, expected 256");
        const auto snap = result_.statsSnapshot();
        if (first)
            snapshot_ = snap;
        else if (snap != snapshot_)
            rec_.fail("fault-campaign: result differs between passes of "
                      "one seed");
    }

    void
    dropStore()
    {
        if (store_dir_.empty())
            return;
        core::TranslationStore::global().setDirectory("");
        std::error_code ec;
        fs::remove_all(store_dir_, ec);
        store_dir_.clear();
    }

    Record &rec_;
    fs::path work_;
    fs::path store_dir_;
    int stores_ = 0;
    fault::CampaignParams cp_;
    std::vector<workloads::Kernel> kernels_;
    fault::CampaignResult result_;
    std::map<std::string, double> snapshot_;
};

// ---------------------------------------------------------------------
// serve-closed-loop
// ---------------------------------------------------------------------

class ServeClosedLoop
{
  public:
    ServeClosedLoop(Record &rec, uint64_t seed) : rec_(rec), seed_(seed) {}

    /** Service parameters, and the kernel and decoded loop body of
     *  every distinct (kernel, size) the seed's job stream draws. */
    double
    setup()
    {
        const auto t0 = Clock::now();
        p_ = service::ServiceParams{};
        p_.traffic.profile = service::TrafficProfile::ClosedLoop;
        p_.traffic.seed = seed_;
        p_.traffic.tenants = 128;
        p_.traffic.jobs_per_tenant = 32;
        p_.backends = 2;
        p_.policy = service::DispatchPolicy::LeastLoaded;
        p_.admission.out_of_region =
            service::makeCertificateGate(p_.backend.mesa.accel);
        p_.progress_every = 1;
        service::TrafficGenerator gen(p_.traffic);
        shapes_.clear();
        for (int t = 0; t < p_.traffic.tenants; ++t)
            for (uint64_t k = 0; k < p_.traffic.jobs_per_tenant; ++k) {
                const service::OffloadJob job = gen.job(t, k);
                auto &slot = shapes_[{job.kernel, job.iterations}];
                if (!slot) {
                    slot = std::make_unique<Shape>();
                    slot->kernel = workloads::kernelByName(
                        job.kernel, {job.iterations});
                    slot->body = slot->kernel.loopBody();
                }
            }
        return secondsSince(t0);
    }

    /** The timed run, a reference slice after every 8th completion;
     *  job intervals and the returned time exclude the slices. */
    double
    pass(bool first, HostReference &ref)
    {
        std::vector<double> &samples = rec_.job_host_us;
        Clock::time_point last = Clock::now();
        p_.progress = [&samples, &last,
                       &ref](const service::ServiceProgress &progress) {
            samples.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - last)
                                  .count());
            if (progress.completed % 8 == 0)
                ref.slice();
            last = Clock::now();
        };
        const auto t0 = Clock::now();
        last = t0;
        result_ = service::runService(p_);
        const double wall = secondsSince(t0) - ref.total();
        p_.progress = nullptr;
        check(first);
        return wall;
    }

    /** Functional cross-check: the same stream on one backend must
     *  give the same closed-loop digest. */
    void
    crossCheck()
    {
        service::ServiceParams one = p_;
        one.backends = 1;
        one.progress = nullptr;
        one.progress_every = 0;
        const service::ServiceResult r1 = service::runService(one);
        ++rec_.attempted;
        if (r1.invariant_violations != 0 ||
            service::closedLoopDigest(r1) != digest_)
            rec_.fail("serve-closed-loop: closed-loop digest differs "
                      "from the 1-backend run");
    }

    void
    readCounters()
    {
        auto &c = rec_.counters;
        for (const auto &b : result_.backends) {
            c["mesa.cache.hits"] += double(b.cache_hits);
            c["mesa.cache.lookups"] +=
                double(b.cache_hits + b.cache_misses);
            c["mesa.cache.tag_conflicts"] += double(b.cache_tag_conflicts);
        }
        c["service.submitted"] += double(result_.submitted);
        c["service.rejected"] += double(result_.rejectedTotal());
        double wait = 0.0;
        for (const auto &r : result_.records)
            wait += double(r.queue_wait_cycles);
        c["service.queue_wait_cycles"] += wait;
        c["service.jobs"] += double(result_.records.size());
        // Certificates of the distinct job shapes the gate analyzes.
        for (const auto &[key, shape] : shapes_) {
            if (!shape->kernel.mesa_supported || shape->body.empty())
                continue;
            const auto &accel = p_.backend.mesa.accel;
            const auto ldfg = dfg::Ldfg::build(shape->body, accel.op_latency,
                                               4 * accel.capacity());
            if (!ldfg)
                continue;
            mem::MainMemory memory;
            plantKernel(shape->kernel, memory);
            riscv::Emulator emu(memory);
            startKernel(emu, shape->kernel);
            advanceToLoop(emu, shape->kernel);
            const auto cert = absint::analyze(*ldfg);
            const auto inst = absint::instantiate(
                cert, emu.state(), absint::residentRegion(memory));
            c["absint.analyzed"] += 1;
            c["absint.certified"] +=
                inst.footprint == absint::RegionClass::ProvenIn ? 1 : 0;
        }
    }

    /** runService (the admission gate's calls are child spans), the
     *  job stream re-executed on fresh backends in dispatch order,
     *  and each job's offload replayed stage by stage. */
    void
    replay(Tracer &tr)
    {
        service::ServiceParams p = p_;
        const auto gate =
            service::makeCertificateGate(p.backend.mesa.accel);
        p.admission.out_of_region =
            [&tr, gate](const service::OffloadJob &job) {
                Tracer::Scope s(tr, "absint.gate");
                return gate(job);
            };
        service::ServiceResult result;
        {
            Tracer::Scope s(tr, "service.run");
            result = service::runService(p);
        }
        std::vector<std::unique_ptr<service::ServiceBackend>> backends;
        for (int b = 0; b < p.backends; ++b)
            backends.push_back(
                std::make_unique<service::ServiceBackend>(b, p.backend));
        for (const auto &r : result.records) {
            service::JobRecord again;
            {
                Tracer::Scope s(tr, "service.execute");
                again = backends[size_t(r.backend)]->execute(
                    r.job, r.dispatch_cycle);
            }
            if (again.state_digest != r.state_digest ||
                again.mem_digest != r.mem_digest)
                rec_.fail("serve-closed-loop: replayed job differs from "
                          "the service run");
        }
        // Config-cache hits skip translation on the backend.
        OffloadReplay offloads(tr, rec_);
        for (const auto &r : result.records) {
            const Shape &shape = *shapes_.at({r.job.kernel,
                                              r.job.iterations});
            offloads.run(shape.kernel, shape.body, p.backend.mesa,
                         {false, !r.config_cache_hit});
        }
    }

  private:
    struct Shape
    {
        workloads::Kernel kernel;
        std::vector<riscv::Instruction> body;
    };

    void
    check(bool first)
    {
        const uint64_t expected =
            uint64_t(p_.traffic.tenants) * p_.traffic.jobs_per_tenant;
        rec_.attempted += result_.submitted;
        if (result_.submitted != expected)
            rec_.fail("serve-closed-loop: submitted " +
                      std::to_string(result_.submitted) + " of " +
                      std::to_string(expected) + " jobs");
        for (uint64_t i = result_.completed; i < result_.submitted; ++i)
            rec_.fail("serve-closed-loop: job did not complete");
        for (uint64_t i = 0; i < result_.invariant_violations; ++i)
            rec_.fail("serve-closed-loop: SLO invariant violation");

        std::vector<double> lat;
        for (const auto &r : result_.records)
            lat.push_back(double(r.latency()));
        const std::string digest = service::closedLoopDigest(result_);
        const double horizon = double(result_.horizon_cycles);
        if (first) {
            digest_ = digest;
            rec_.sim["sim_cycles"] = horizon;
            rec_.sim_latencies = lat;
        } else {
            rec_.expectSame("serve-closed-loop sim_cycles",
                            rec_.sim["sim_cycles"], horizon);
            if (digest != digest_ || lat != rec_.sim_latencies)
                rec_.fail("serve-closed-loop: result differs between "
                          "passes of one seed");
        }
    }

    Record &rec_;
    uint64_t seed_;
    service::ServiceParams p_;
    service::ServiceResult result_;
    std::string digest_;
    std::map<std::pair<std::string, uint64_t>, std::unique_ptr<Shape>>
        shapes_;
};

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mesa_perfbench: " << why << "\n"
              << "usage: mesa_perfbench --workload "
                 "<paper-repro|fault-campaign|serve-closed-loop> "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = v == "1";
        else if (arg == "--work-dir")
            a.work_dir = v;
        else
            usage("unknown flag " + arg);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/**
 * Drive one workload: set-up and timed pass repeated until the time
 * budget is spent (at least three passes), or, traced, one reference
 * pass followed by the span-off and span-on replays.
 */
template <class W>
void
drive(W &w, Record &rec, const Args &args)
{
    const auto start = Clock::now();
    HostReference ref;
    if (!args.trace) {
        for (int pass = 0;
             pass < 3 || secondsSince(start) < args.seconds; ++pass) {
            rec.setup_s.push_back(w.setup());
            ref.reset();
            rec.wall_s.push_back(w.pass(pass == 0, ref));
            rec.ref_slice_s.push_back(ref.mean());
        }
        return;
    }
    rec.setup_s.push_back(w.setup());
    rec.untraced_wall_s = w.pass(true, ref);
    w.readCounters();
    Tracer tr;
    const auto library_counters = rec.counters;
    for (bool on : {false, true}) {
        rec.counters = library_counters; // keep the traced replay's
        tr.start(on);
        const auto t0 = Clock::now();
        w.replay(tr);
        (on ? rec.replay_traced_s : rec.replay_untraced_s) =
            secondsSince(t0);
    }
    rec.spans = spanTotals(tr.spans(), rec.replay_top_level_s);
}

void
printRecord(const Args &args, const Record &rec, int threads)
{
    std::ostringstream o;
    struct rusage usage_now {};
    getrusage(RUSAGE_SELF, &usage_now);
    o << "{\"workload\":" << quoted(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"threads\":" << threads
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"peak_rss_kb\":" << usage_now.ru_maxrss
      << ",\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
      << ",\"failures\":[";
    for (size_t i = 0; i < rec.failures.size(); ++i)
        o << (i ? "," : "") << quoted(rec.failures[i]);
    o << "],\"setup_s\":" << array(rec.setup_s)
      << ",\"wall_s\":" << array(rec.wall_s)
      << ",\"ref_slice_s\":" << array(rec.ref_slice_s)
      << ",\"cell_ms\":" << array(rec.cell_ms)
      << ",\"job_host_us\":" << array(rec.job_host_us)
      << ",\"sim_latencies\":" << array(rec.sim_latencies) << ",\"sim\":{";
    bool first = true;
    for (const auto &[k, v] : rec.sim) {
        o << (first ? "" : ",") << quoted(k) << ":" << num(v);
        first = false;
    }
    o << "},\"counters\":{";
    first = true;
    for (const auto &[k, v] : rec.counters) {
        o << (first ? "" : ",") << quoted(k) << ":" << num(v);
        first = false;
    }
    o << "},\"untraced_wall_s\":" << num(rec.untraced_wall_s)
      << ",\"replay_untraced_s\":" << num(rec.replay_untraced_s)
      << ",\"replay_traced_s\":" << num(rec.replay_traced_s)
      << ",\"replay_top_level_s\":" << num(rec.replay_top_level_s)
      << ",\"spans\":{";
    first = true;
    for (const auto &[k, t] : rec.spans) {
        o << (first ? "" : ",") << quoted(k) << ":{\"self_s\":"
          << num(t.self_s) << ",\"calls\":" << t.calls << "}";
        first = false;
    }
    o << "}}";
    std::cout << o.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Record rec;
    int threads = 1;
    if (args.workload == "paper-repro") {
        PaperRepro w(rec);
        drive(w, rec, args);
    } else if (args.workload == "fault-campaign") {
        const fs::path work = fs::path(args.work_dir) /
                              ("campaign-" + std::to_string(getpid()));
        {
            FaultCampaign w(rec, args.seed, work);
            drive(w, rec, args);
        }
        std::error_code ec;
        fs::remove_all(work, ec);
        threads = 2;
    } else if (args.workload == "serve-closed-loop") {
        ServeClosedLoop w(rec, args.seed);
        drive(w, rec, args);
        w.crossCheck();
    } else {
        usage("unknown workload " + args.workload);
    }
    printRecord(args, rec, threads);
    return 0;
}
