/**
 * @file
 * MESA controller end-to-end tests: the transparent flow of paper
 * §5.1 (monitor -> encode -> map -> configure -> offload -> resume),
 * configuration-cost accounting (Table 2 range), config-cache reuse,
 * iterative optimization, functional equivalence of the whole
 * transparent run against the pure emulator, and the controller's
 * event catalog.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "helpers.hh"
#include "mesa/translation_store.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using core::MesaController;
using core::MesaParams;
using core::TransparentRunResult;
using workloads::Kernel;
using workloads::kernelByName;

TransparentRunResult
transparent(const Kernel &kernel, const MesaParams &params,
            mem::MainMemory &memory)
{
    kernel.init_data(memory);
    MesaController mesa(params, memory);
    return mesa.runTransparent(kernel.program, kernel.fullRange(),
                               kernel.parallel);
}

TEST(Controller, TransparentOffloadHappensAndMatchesGolden)
{
    const Kernel kernel = kernelByName("nn", {2048});
    const GoldenResult want = runReference(kernel);

    mem::MainMemory memory;
    MesaParams params;
    const TransparentRunResult res =
        transparent(kernel, params, memory);

    EXPECT_TRUE(res.halted);
    ASSERT_EQ(res.offloads.size(), 1u);
    const auto &os = res.offloads.front();
    EXPECT_EQ(os.region_start, kernel.loop_start);
    EXPECT_GT(os.accel_iterations, 1500u)
        << "most iterations should run on the accelerator";
    EXPECT_GT(os.cpu_overlap_iterations, 0u)
        << "the CPU must cover iterations while MESA configures";

    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
    EXPECT_EQ(res.final_state.pc, want.state.pc);
}

TEST(Controller, ConfigLatencyInPaperRange)
{
    // Table 2: MESA config time is 10^3..10^4 cycles (ns-us @ 2GHz).
    for (const char *name : {"nn", "kmeans", "cfd", "srad"}) {
        const Kernel kernel = kernelByName(name, {2048});
        mem::MainMemory memory;
        MesaParams params;
        const TransparentRunResult res =
            transparent(kernel, params, memory);
        ASSERT_FALSE(res.offloads.empty()) << name;
        const uint64_t cfg = res.offloads.front().totalConfigCycles();
        EXPECT_GE(cfg, 100u) << name;
        EXPECT_LE(cfg, 10000u) << name;
        // Sub-microsecond at 2 GHz.
        MesaController mesa(params, memory);
        EXPECT_LT(mesa.cyclesToNs(cfg), 5000.0) << name;
    }
}

TEST(Controller, UnsupportedKernelNeverOffloads)
{
    const Kernel kernel = kernelByName("b+tree", {256});
    const GoldenResult want = runReference(kernel);

    mem::MainMemory memory;
    MesaParams params;
    const TransparentRunResult res =
        transparent(kernel, params, memory);

    EXPECT_TRUE(res.halted);
    EXPECT_TRUE(res.offloads.empty());
    EXPECT_FALSE(res.rejections.empty());
    // The CPU still produces the right answer.
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
    EXPECT_EQ(res.final_state, want.state);
}

TEST(Controller, ConfigCacheHitsOnReencounter)
{
    const Kernel kernel = kernelByName("gaussian", {512});
    mem::MainMemory memory;
    kernel.plant(memory);
    MesaParams params;
    MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());

    auto first = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                  kernel.parallel);
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(first->config_cache_hit);
    EXPECT_GT(first->mapping_cycles, 0u);

    // Re-encounter (fresh iteration space).
    kernel.fullRange()(emu.state());
    auto second = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                   kernel.parallel);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->config_cache_hit);
    EXPECT_EQ(second->mapping_cycles, 0u)
        << "cached config skips the imap pass";
    EXPECT_GT(second->config_cycles, 0u)
        << "the bitstream still has to be streamed in";
}

TEST(Controller, IterativeOptimizationImprovesModel)
{
    // lud has a DRAM-heavy strided load; the first mapping uses the
    // default 4-cycle load estimate, so profiling must raise the node
    // weight and can trigger a data-driven remap.
    const Kernel kernel = kernelByName("lud", {2048});
    mem::MainMemory memory;
    kernel.plant(memory);

    MesaParams params;
    params.iterative_optimization = true;
    params.profile_epoch_iterations = 64;
    MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    ASSERT_TRUE(os.has_value());
    // After feedback the model reflects measured memory latency.
    EXPECT_GT(os->model_latency, 10.0)
        << "refined model should include measured AMAT";

    // Functional result still exact.
    emu.run(10'000'000);
    const GoldenResult want = runReference(kernel);
    EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory));
}

TEST(Controller, ReconfigurationCostAccounted)
{
    const Kernel kernel = kernelByName("lud", {4096});
    mem::MainMemory memory;
    kernel.plant(memory);

    MesaParams params;
    params.iterative_optimization = true;
    params.profile_epoch_iterations = 32;
    params.max_reconfigs = 3;
    MesaController mesa(params, memory);

    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    auto os = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                               kernel.parallel);
    ASSERT_TRUE(os.has_value());
    if (os->reconfigurations > 0) {
        EXPECT_GT(os->reconfig_cycles, 0u);
    }
    EXPECT_LE(os->reconfigurations, params.max_reconfigs);
}

TEST(Controller, TransparentSuiteEquivalence)
{
    // Every supported kernel, full transparent flow, must end with
    // golden memory. (Smaller scale keeps the test fast.)
    for (const char *name :
         {"kmeans", "hotspot", "cfd", "pathfinder", "backprop"}) {
        const Kernel kernel = kernelByName(name, {1024});
        const GoldenResult want = runReference(kernel);
        mem::MainMemory memory;
        MesaParams params;
        const TransparentRunResult res =
            transparent(kernel, params, memory);
        EXPECT_TRUE(res.halted) << name;
        EXPECT_FALSE(res.offloads.empty()) << name;
        EXPECT_TRUE(sameMemory(memory.snapshot(), want.memory))
            << name;
    }
}

TEST(Controller, StatsDumpCoversTheRun)
{
    const Kernel kernel = kernelByName("hotspot", {2048});
    mem::MainMemory memory;
    MesaParams params;
    const TransparentRunResult res =
        transparent(kernel, params, memory);
    ASSERT_FALSE(res.offloads.empty());

    StatsRegistry stats;
    res.registerInto(stats, "run.");
    EXPECT_DOUBLE_EQ(stats.value("run.total_cycles"),
                     double(res.total_cycles));
    EXPECT_DOUBLE_EQ(stats.value("run.offloads"), 1.0);
    EXPECT_GT(stats.value("run.offload0.iterations"), 1000.0);
    EXPECT_GT(stats.value("run.offload0.config_cycles"), 0.0);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("run.offload0.tiles"), std::string::npos);
}

TEST(Controller, TotalCyclesComposeCpuAndAccel)
{
    const Kernel kernel = kernelByName("nn", {2048});
    mem::MainMemory memory;
    MesaParams params;
    const TransparentRunResult res =
        transparent(kernel, params, memory);
    ASSERT_FALSE(res.offloads.empty());
    EXPECT_EQ(res.total_cycles, res.cpu_cycles + res.accel_cycles);
    EXPECT_GT(res.cpu_cycles, 0u);
    EXPECT_GT(res.accel_cycles, 0u);
}

// ---------------------------------------------------------------------
// The event catalog: every controller counter and fault/absint instant
// is one row, and attachStats registers exactly the open gates' rows.

/**
 * Every path a fresh registry holds after one transparent nn run,
 * minus the families attachStats creates outside the catalog: the
 * config-cache counters and the per-rule verify counters.
 */
std::set<std::string>
registeredPaths(const MesaParams &params)
{
    const Kernel kernel = kernelByName("nn", {256});
    mem::MainMemory memory;
    kernel.init_data(memory);
    MesaController mesa(params, memory);
    StatsRegistry stats;
    mesa.attachStats(&stats);
    mesa.runTransparent(kernel.program, kernel.fullRange(),
                        kernel.parallel);
    std::set<std::string> paths;
    for (const auto &[path, value] : stats.flatValues())
        if (!path.starts_with("mesa.config_cache.") &&
            !path.starts_with("mesa.verify.rule."))
            paths.insert(path);
    return paths;
}

/** The catalog's counter paths (all, or only the Always gate's) plus
 *  the epoch histogram and average, which every registry carries. */
std::set<std::string>
expectedPaths(bool every_gate)
{
    std::set<std::string> paths = {"mesa.epoch.cycles",
                                   "mesa.epoch.cycles_per_iter"};
    for (const core::EventInfo &e : MesaController::eventCatalog())
        if (e.stat && (every_gate || e.gate == core::StatGate::Always))
            paths.insert(e.stat);
    return paths;
}

TEST(EventCatalog, RowsAreUnique)
{
    std::set<std::string> stats;
    std::set<std::pair<std::string, std::string>> instants;
    for (const core::EventInfo &e : MesaController::eventCatalog()) {
        EXPECT_TRUE(e.stat || e.instant) << "row with neither half";
        if (e.stat) {
            EXPECT_TRUE(stats.insert(e.stat).second)
                << "duplicate stat path " << e.stat;
        }
        if (e.instant) {
            ASSERT_NE(e.track, nullptr) << e.instant;
            EXPECT_TRUE(instants.emplace(e.track, e.instant).second)
                << "duplicate instant " << e.track << " " << e.instant;
        }
    }
}

TEST(EventCatalog, GateMatchesStatFamily)
{
    // A gated counter lives under its feature's family, an Always one
    // under none of them.
    using core::StatGate;
    const std::pair<StatGate, std::string> families[] = {
        {StatGate::Verify, "mesa.verify."},
        {StatGate::Store, "mesa.cache.persist_"},
        {StatGate::Fault, "mesa.fault."},
        {StatGate::FaultMigrate, "mesa.migrate."},
        {StatGate::FaultCertify, "mesa.absint."},
    };
    for (const core::EventInfo &e : MesaController::eventCatalog()) {
        if (!e.stat)
            continue;
        for (const auto &[gate, family] : families)
            EXPECT_EQ(std::string(e.stat).starts_with(family),
                      e.gate == gate)
                << e.stat;
    }
}

TEST(EventCatalog, EveryGateOpenRegistersEveryRow)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("mesa_catalog_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    core::TranslationStore::global().setDirectory(dir.string());
    MesaParams params;
    params.verify_before_offload = true;
    params.fault.enabled = true;
    params.fault.checked_mode = true;
    params.fault.migrate_on_fault = true;
    params.fault.certificate_gating = true;
    const std::set<std::string> paths = registeredPaths(params);
    core::TranslationStore::global().setDirectory("");
    fs::remove_all(dir);

    std::set<std::string> want = expectedPaths(true);
    // Fault mode adds the two live quarantine gauges.
    want.insert("mesa.fault.quarantined_regions");
    want.insert("mesa.fault.retired_pes");
    EXPECT_EQ(paths, want);
}

TEST(EventCatalog, EveryGateClosedRegistersOnlyAlwaysRows)
{
    EXPECT_EQ(registeredPaths(MesaParams{}), expectedPaths(false));
}

} // namespace
