/**
 * @file
 * Cycle-attribution profiler tests: the exact sum invariant per
 * kernel, bit-identical counters at any shard count, the zero-side-
 * effect guarantee of detached profiling, report round-trips through
 * the JSON parser, the stats diff helper, the perf-history pipeline,
 * and the leveled logger.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "prof/history.hh"
#include "prof/report.hh"
#include "prof/runner.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"
#include "workloads/kernel.hh"

namespace
{

using namespace mesa;

core::MesaParams
defaultParams()
{
    return core::MesaParams{};
}

// ---------------------------------------------------------------------
// The invariant: taxonomy buckets sum EXACTLY to offload cycles.
// ---------------------------------------------------------------------

class ProfInvariant : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProfInvariant, PhasesSumToMeasuredOffloadCycles)
{
    const auto kernel = workloads::kernelByName(GetParam(), {512});
    const auto kp = prof::profileKernel(kernel, defaultParams());

    EXPECT_TRUE(kp.invariant_ok);
    EXPECT_EQ(kp.phases.total(), kp.total_offload_cycles);
    // Per-offload rows carry the invariant individually too.
    uint64_t sum = 0;
    for (const auto &row : kp.offloads) {
        EXPECT_EQ(row.phases.total(), row.total_cycles)
            << "offload @0x" << std::hex << row.region_pc;
        sum += row.total_cycles;
    }
    EXPECT_EQ(sum, kp.total_offload_cycles);

    // Cross-check against an independent unprofiled run: the measured
    // totals and the device share must match what the controller
    // reports without any profiler attached (simulation determinism).
    mem::MainMemory memory;
    kernel.init_data(memory);
    core::MesaController mesa(defaultParams(), memory);
    const auto plain = mesa.runTransparent(
        kernel.program, kernel.fullRange(), kernel.parallel);
    uint64_t wall = 0, device = 0;
    for (const auto &os : plain.offloads) {
        wall += prof::offloadWallCycles(os);
        device += os.accel_cycles;
    }
    EXPECT_EQ(kp.total_offload_cycles, wall);
    EXPECT_EQ(kp.phases[prof::Phase::Compute] +
                  kp.phases[prof::Phase::NocStall] +
                  kp.phases[prof::Phase::MemStall],
              device);
    // Overlapped phases are structurally zero in this timing model.
    EXPECT_EQ(kp.phases[prof::Phase::MonitorDetect], 0u);
    EXPECT_EQ(kp.phases[prof::Phase::ConfigGen], 0u);
    EXPECT_EQ(kp.phases[prof::Phase::VerifyGate], 0u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, ProfInvariant,
                         ::testing::Values("nn", "kmeans", "srad",
                                           "pathfinder", "hotspot"));

TEST(ProfInvariant, SpatialAttributionMatchesDeviceCycles)
{
    const auto kernel = workloads::kernelByName("srad", {512});
    const auto kp = prof::profileKernel(kernel, defaultParams());

    // The accelerator-side decomposition covers exactly the device
    // cycles the fold attributed (reconfig cycles live in the
    // ConfigStream bucket, not here).
    EXPECT_EQ(kp.spatial.attributedTotal(),
              kp.phases[prof::Phase::Compute] +
                  kp.phases[prof::Phase::NocStall] +
                  kp.phases[prof::Phase::MemStall]);
    // A kernel that offloaded did real work on real PEs.
    ASSERT_GT(kp.accel_cycles, 0u);
    uint64_t busy = 0, ops = 0;
    for (size_t i = 0; i < kp.spatial.pe_busy.size(); ++i) {
        busy += kp.spatial.pe_busy[i];
        ops += kp.spatial.pe_ops[i];
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GT(ops, 0u);
}

// ---------------------------------------------------------------------
// Determinism: identical counters at any shard count.
// ---------------------------------------------------------------------

TEST(ProfDeterminism, SuiteIdenticalAtAnyJobCount)
{
    const auto kernels = std::vector<workloads::Kernel>{
        workloads::kernelByName("nn", {256}),
        workloads::kernelByName("srad", {256}),
        workloads::kernelByName("hotspot", {256}),
        workloads::kernelByName("kmeans", {256}),
    };
    const auto serial = prof::profileSuite(kernels, defaultParams(), 1);
    const auto sharded = prof::profileSuite(kernels, defaultParams(), 4);

    EXPECT_EQ(prof::flattenProfile(serial), prof::flattenProfile(sharded));

    // Stronger: the rendered reports are byte-identical.
    const prof::ReportMeta meta{"M-128", 256};
    JsonWriter a, b;
    prof::writeProfileJson(serial, meta, a);
    prof::writeProfileJson(sharded, meta, b);
    EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------------
// Detached profiling changes nothing.
// ---------------------------------------------------------------------

TEST(ProfZeroCost, DetachedProfilerDoesNotPerturbTheRun)
{
    const auto kernel = workloads::kernelByName("pathfinder", {512});
    core::MesaParams params;

    auto run = [&](bool profiled) {
        mem::MainMemory memory;
        kernel.init_data(memory);
        core::MesaController mesa(params, memory);
        prof::AccelProfile profile;
        if (profiled)
            mesa.attachProfile(&profile);
        return mesa.runTransparent(kernel.program, kernel.fullRange(),
                                   kernel.parallel);
    };
    const auto plain = run(false);
    const auto profiled = run(true);

    EXPECT_EQ(plain.total_cycles, profiled.total_cycles);
    EXPECT_EQ(plain.cpu_cycles, profiled.cpu_cycles);
    EXPECT_EQ(plain.accel_cycles, profiled.accel_cycles);
    ASSERT_EQ(plain.offloads.size(), profiled.offloads.size());
    for (size_t i = 0; i < plain.offloads.size(); ++i) {
        const auto &p = plain.offloads[i];
        const auto &q = profiled.offloads[i];
        EXPECT_EQ(p.accel_cycles, q.accel_cycles);
        EXPECT_EQ(p.accel_iterations, q.accel_iterations);
        EXPECT_EQ(p.totalConfigCycles(), q.totalConfigCycles());
        // The unprofiled run carries no attribution...
        EXPECT_EQ(p.prof_compute_cycles + p.prof_noc_stall_cycles +
                      p.prof_mem_stall_cycles,
                  0u);
        // ...the profiled one attributes exactly its device cycles.
        EXPECT_EQ(q.prof_compute_cycles + q.prof_noc_stall_cycles +
                      q.prof_mem_stall_cycles,
                  q.accel_cycles);
    }
}

// ---------------------------------------------------------------------
// The per-offload fold rules.
// ---------------------------------------------------------------------

TEST(ProfFold, AttributeOffloadSplitsWhenProfiled)
{
    core::OffloadStats os;
    os.encode_cycles = 10;
    os.mapping_cycles = 20;
    os.config_cycles = 30;
    os.reconfig_cycles = 5;
    os.sched_wait_cycles = 7;
    os.accel_cycles = 100;
    os.cpu_reexec_instructions = 3;
    os.prof_compute_cycles = 60;
    os.prof_noc_stall_cycles = 15;
    os.prof_mem_stall_cycles = 25;

    const auto row = prof::attributeOffload(os);
    EXPECT_EQ(row.total_cycles, prof::offloadWallCycles(os));
    EXPECT_EQ(row.phases.total(), row.total_cycles);
    EXPECT_EQ(row.phases[prof::Phase::Encode], 10u);
    EXPECT_EQ(row.phases[prof::Phase::Map], 20u);
    EXPECT_EQ(row.phases[prof::Phase::ConfigStream], 35u);
    EXPECT_EQ(row.phases[prof::Phase::SchedWait], 7u);
    EXPECT_EQ(row.phases[prof::Phase::Compute], 60u);
    EXPECT_EQ(row.phases[prof::Phase::NocStall], 15u);
    EXPECT_EQ(row.phases[prof::Phase::MemStall], 25u);
    EXPECT_EQ(row.phases[prof::Phase::FaultRecovery], 3u);
}

TEST(ProfFold, UnprofiledDeviceCyclesStayOneComputeBucket)
{
    // Arbiter-served offloads carry no prof_* split; the invariant
    // must hold anyway.
    core::OffloadStats os;
    os.accel_cycles = 100;
    const auto row = prof::attributeOffload(os);
    EXPECT_EQ(row.phases[prof::Phase::Compute], 100u);
    EXPECT_EQ(row.phases.total(), row.total_cycles);
}

// ---------------------------------------------------------------------
// Report round-trips.
// ---------------------------------------------------------------------

TEST(ProfReport, JsonRoundTripsThroughTheParser)
{
    const auto kernel = workloads::kernelByName("nn", {256});
    prof::SuiteProfile suite;
    suite.add(prof::profileKernel(kernel, defaultParams()));

    JsonWriter w;
    prof::writeProfileJson(suite, {"M-128", 256}, w);
    auto doc = parseJson(w.str());
    ASSERT_TRUE(doc && doc->isObject());
    EXPECT_EQ(doc->find("schema")->asString(), "mesa-prof-1");

    const JsonValue &kernels = *doc->find("kernels");
    ASSERT_TRUE(kernels.isArray());
    ASSERT_EQ(kernels.items.size(), 1u);
    const JsonValue &kp = kernels.items[0];
    EXPECT_EQ(kp.find("name")->asString(), "nn");
    EXPECT_EQ(uint64_t(kp.find("total_offload_cycles")->asNumber()),
              suite.kernels[0].total_offload_cycles);

    // The phase object sums to the total, post-serialization.
    const JsonValue &phases = *kp.find("phases");
    double sum = 0;
    for (const auto &[name, v] : phases.members)
        sum += v.asNumber();
    EXPECT_EQ(uint64_t(sum), suite.kernels[0].total_offload_cycles);

    // Heatmaps carry rows*cols entries.
    const JsonValue &spatial = *kp.find("spatial");
    const auto rows = int(spatial.find("rows")->asNumber());
    const auto cols = int(spatial.find("cols")->asNumber());
    const JsonValue &busy = *spatial.find("pe_busy");
    EXPECT_EQ(busy.find("data")->items.size(), size_t(rows) * cols);
}

TEST(ProfReport, HeatmapJsonRoundTrip)
{
    const std::vector<uint64_t> grid{1, 2, 3, 4, 5, 6};
    JsonWriter w;
    prof::writeHeatmapJson(grid, 2, 3, w);
    auto doc = parseJson(w.str());
    ASSERT_TRUE(doc && doc->isObject());
    EXPECT_EQ(int(doc->find("rows")->asNumber()), 2);
    EXPECT_EQ(int(doc->find("cols")->asNumber()), 3);
    const auto &data = doc->find("data")->items;
    ASSERT_EQ(data.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(uint64_t(data[i].asNumber()), grid[i]);
}

TEST(ProfReport, CounterTraceAndPrometheusAreWellFormed)
{
    const auto kernel = workloads::kernelByName("nn", {256});
    prof::SuiteProfile suite;
    suite.add(prof::profileKernel(kernel, defaultParams()));

    std::ostringstream trace;
    prof::writeCounterTrace(suite, trace);
    auto doc = parseJson(trace.str());
    ASSERT_TRUE(doc && doc->isObject());
    // One instant marker + one counter sample per kernel.
    EXPECT_EQ(doc->find("traceEvents")->items.size(), 2u);

    std::ostringstream prom;
    prof::writePrometheus(suite, {"M-128", 256}, prom);
    const std::string text = prom.str();
    EXPECT_NE(text.find("# TYPE mesa_prof_phase_cycles gauge"),
              std::string::npos);
    EXPECT_NE(text.find("mesa_prof_invariant_ok{kernel=\"nn\"} 1"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The stats diff helper (mesa_prof --baseline rides on this).
// ---------------------------------------------------------------------

TEST(StatsDiffTest, FlagsAddedRemovedAndChanged)
{
    const std::map<std::string, double> before{
        {"a", 100.0}, {"b", 50.0}, {"gone", 1.0}};
    const std::map<std::string, double> after{
        {"a", 100.0}, {"b", 75.0}, {"new", 2.0}};

    const StatsDiff diff = diffStatValues(before, after);
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0], "new");
    ASSERT_EQ(diff.removed.size(), 1u);
    EXPECT_EQ(diff.removed[0], "gone");
    ASSERT_EQ(diff.changed.size(), 1u);
    EXPECT_EQ(diff.changed[0].path, "b");
    EXPECT_DOUBLE_EQ(diff.changed[0].relDelta(), 0.5);
}

TEST(StatsDiffTest, ToleranceSuppressesSmallMoves)
{
    const std::map<std::string, double> before{{"a", 100.0}};
    const std::map<std::string, double> after{{"a", 104.0}};
    EXPECT_TRUE(diffStatValues(before, after, 0.05).empty());
    EXPECT_FALSE(diffStatValues(before, after, 0.02).empty());
}

TEST(StatsDiffTest, ZeroBaselineAlwaysFlagsMovement)
{
    const std::map<std::string, double> before{{"a", 0.0}};
    const std::map<std::string, double> after{{"a", 1.0}};
    EXPECT_FALSE(diffStatValues(before, after, 0.5).empty());
}

// ---------------------------------------------------------------------
// The perf-history pipeline.
// ---------------------------------------------------------------------

TEST(ProfHistory, AppendAndReadBack)
{
    const std::string path =
        ::testing::TempDir() + "mesa_prof_history_test.jsonl";
    std::remove(path.c_str());

    prof::HistoryRecord rec = prof::makeHistoryRecord("test_prof");
    rec.metrics["suite.total_offload_cycles"] = 1234.0;
    ASSERT_TRUE(prof::appendHistory(path, rec));
    ASSERT_TRUE(prof::appendHistory(path, rec));

    const auto records = prof::readHistory(path);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].tool, "test_prof");
    EXPECT_EQ(records[0].timestamp, rec.timestamp);
    EXPECT_EQ(records[0].hardware_concurrency,
              rec.hardware_concurrency);
    EXPECT_DOUBLE_EQ(
        records[1].metrics.at("suite.total_offload_cycles"), 1234.0);
    std::remove(path.c_str());
}

TEST(ProfHistory, ToleratesCorruptLines)
{
    const std::string path =
        ::testing::TempDir() + "mesa_prof_history_corrupt.jsonl";
    {
        std::ofstream f(path);
        f << "{\"tool\": \"ok\", \"metrics\": {\"m\": 1}}\n";
        f << "not json at all\n";
        f << "{\"tool\": \"ok2\"\n"; // truncated record
    }
    const auto records = prof::readHistory(path);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].tool, "ok");
    std::remove(path.c_str());
}

TEST(ProfHistory, RecordJsonParses)
{
    prof::HistoryRecord rec = prof::makeHistoryRecord("x");
    rec.metrics["m"] = 3.5;
    auto doc = parseJson(prof::historyRecordJson(rec));
    ASSERT_TRUE(doc && doc->isObject());
    EXPECT_EQ(doc->find("tool")->asString(), "x");
    EXPECT_DOUBLE_EQ(doc->find("metrics")->find("m")->asNumber(), 3.5);
}

// ---------------------------------------------------------------------
// The leveled logger.
// ---------------------------------------------------------------------

TEST(LoggerTest, LevelFiltersAndFormats)
{
    Logger &log = Logger::global();
    const LogLevel saved = log.level();

    std::ostringstream captured;
    log.setStream(&captured);
    log.setLevel(LogLevel::Warn);

    logInfo("test", "should be filtered");
    logWarn("test", "visible ", 42);
    logError("test", "also visible");

    log.setStream(nullptr);
    log.setLevel(saved);

    const std::string text = captured.str();
    EXPECT_EQ(text.find("should be filtered"), std::string::npos);
    EXPECT_NE(text.find("warn: [test] visible 42"), std::string::npos);
    EXPECT_NE(text.find("error: [test] also visible"),
              std::string::npos);
}

TEST(LoggerTest, DebugLinesHiddenAtInfoVisibleAtDebug)
{
    Logger &log = Logger::global();
    const LogLevel saved = log.level();

    std::ostringstream captured;
    log.setStream(&captured);
    log.setLevel(LogLevel::Info);
    logDebug("mapper", "hidden ", 1);
    const std::string at_info = captured.str();
    log.setLevel(LogLevel::Debug);
    logDebug("mapper", "visible 0x", std::hex, 255);

    log.setStream(nullptr);
    log.setLevel(saved);

    EXPECT_TRUE(at_info.empty());
    EXPECT_EQ(captured.str(), "debug: [mapper] visible 0xff\n");
}

TEST(LoggerTest, LevelNamesRoundTrip)
{
    EXPECT_EQ(logLevelByName("debug"), LogLevel::Debug);
    EXPECT_EQ(logLevelByName("warning"), LogLevel::Warn);
    EXPECT_EQ(logLevelByName("error"), LogLevel::Error);
    EXPECT_FALSE(logLevelByName("nonsense").has_value());
    EXPECT_STREQ(logLevelName(LogLevel::Info), "info");
}

} // namespace
