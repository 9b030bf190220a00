/**
 * @file
 * Simulator performance gate. Times the fault campaign and the
 * benchmark suite harness serially (--jobs 1) and sharded (--jobs N),
 * verifies the two campaign runs produce byte-identical JSON (the
 * determinism guarantee), measures raw emulator throughput with the
 * decoded-basic-block cache on and off, measures cold-vs-warm
 * translation wall time against the persistent on-disk store, and
 * emits BENCH_parallel.json with wall seconds, speedups, and the
 * host's hardware concurrency.
 *
 *   ./build/bench/bench_perf --jobs 4 --min-speedup 1.5 --json
 *
 * --min-speedup applies to the campaign speedup and makes the exit
 * status a CI gate; without it the run is report-only (a single-core
 * host cannot demonstrate speedup, so the gate is opt-in).
 *
 * Every run also appends one record (timestamp, git revision, host,
 * hardware concurrency, and the timing metrics) to the perf history
 * at BENCH_history.jsonl, so speedup is tracked across commits and
 * machines instead of overwritten per run; --no-history skips it.
 */

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "fault/campaign.hh"
#include "prof/history.hh"
#include "riscv/emulator.hh"
#include "util/json.hh"
#include "util/logging.hh"

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

void
usage()
{
    std::cout <<
        "bench_perf — deterministic parallel engine benchmark\n"
        "  --jobs <n>         parallel worker count (default =\n"
        "                     hardware concurrency)\n"
        "  --injections <n>   campaign injections per kernel\n"
        "                     (default 16)\n"
        "  --scale <n>        campaign workload scale (default 128)\n"
        "  --min-speedup <x>  exit 1 unless campaign speedup >= x\n"
        "  --min-warm-speedup <x>  exit 1 unless the warm-start\n"
        "                     (disk-cached) translation beats cold\n"
        "                     translation by >= x\n"
        "  --cache-dir <dir>  persistent translation cache for the\n"
        "                     campaign/suite sections (bit-identical\n"
        "                     results with or without it)\n"
        "  --out <file>       JSON report path (default\n"
        "                     BENCH_parallel.json)\n"
        "  --history <file>   perf-history JSONL path (default\n"
        "                     BENCH_history.jsonl)\n"
        "  --no-history       skip the history append\n"
        "  --json             also print the report to stdout\n";
}

double
seconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

std::string
campaignJson(const fault::CampaignResult &result)
{
    std::ostringstream os;
    fault::writeCampaignJson(result, os);
    return os.str();
}

/**
 * Run one kernel start-to-halt on the functional emulator and report
 * wall seconds plus retired instructions — the single-simulation
 * datapoint behind the decoded-basic-block cache.
 */
double
emulatorRun(const workloads::Kernel &kernel, bool decode_cache,
            uint64_t &instret)
{
    mem::MainMemory memory;
    kernel.plant(memory);

    riscv::Emulator emu(memory);
    emu.setDecodeCache(decode_cache);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    const double s = seconds([&] { emu.run(500'000'000); });
    instret = emu.instret();
    return s;
}

/**
 * One kernel held at its loop entry with a live controller: the
 * reusable fixture for the cold-vs-warm translation measurement. All
 * setup cost (memory image, emulator warm-up, controller build) is
 * paid here, outside the timed section.
 */
struct TranslationContext
{
    workloads::Kernel kernel;
    mem::MainMemory memory;
    std::unique_ptr<core::MesaController> mesa;
    riscv::ArchState loop_state;
    std::vector<riscv::Instruction> body;
};

std::vector<std::unique_ptr<TranslationContext>>
makeTranslationContexts(const std::vector<workloads::Kernel> &suite)
{
    std::vector<std::unique_ptr<TranslationContext>> out;
    for (const auto &kernel : suite) {
        auto ctx = std::make_unique<TranslationContext>();
        ctx->kernel = kernel;
        ctx->kernel.plant(ctx->memory);

        riscv::Emulator emu(ctx->memory);
        ctx->kernel.enterLoop(emu);
        ctx->loop_state = emu.state();
        ctx->body = ctx->kernel.loopBody();

        core::MesaParams params;
        ctx->mesa =
            std::make_unique<core::MesaController>(params, ctx->memory);
        out.push_back(std::move(ctx));
    }
    return out;
}

/**
 * Translate one context's hot loop through the translation-only
 * entry (no fabric configure/run). translateOnly never consults the
 * per-controller ConfigCache, so the only reuse path is the
 * persistent on-disk store — exactly the cold-vs-warm axis being
 * measured.
 */
void
translateOnce(TranslationContext &ctx)
{
    ctx.mesa->translateOnly(ctx.body, ctx.kernel.parallel);
}

} // namespace

int
main(int argc, char **argv)
{
    int jobs = defaultJobs();
    int injections = 16;
    uint64_t scale = 128;
    double min_speedup = 0.0;
    double min_warm_speedup = 0.0;
    std::string out_path = "BENCH_parallel.json";
    std::string history_path = "BENCH_history.jsonl";
    bool no_history = false;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                exit(1);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            jobs = resolveJobs(int(std::strtol(next(), nullptr, 10)));
        } else if (arg == "--injections") {
            injections = int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--scale") {
            scale = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--min-speedup") {
            min_speedup = std::strtod(next(), nullptr);
        } else if (arg == "--min-warm-speedup") {
            min_warm_speedup = std::strtod(next(), nullptr);
        } else if (arg == "--cache-dir") {
            core::TranslationStore::global().setDirectory(next());
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--history") {
            history_path = next();
        } else if (arg == "--no-history") {
            no_history = true;
        } else if (arg == "--json") {
            json = true;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    // --- Fault campaign: jobs=1 vs jobs=N, same seed. ---
    fault::CampaignParams cp;
    cp.seed = 7;
    cp.injections_per_kernel = injections;
    cp.scale = workloads::SuiteScale{scale};

    fault::CampaignResult serial_result, parallel_result;
    cp.jobs = 1;
    const double campaign_serial_s =
        seconds([&] { serial_result = fault::runCampaign(cp); });
    cp.jobs = jobs;
    const double campaign_parallel_s =
        seconds([&] { parallel_result = fault::runCampaign(cp); });
    const double campaign_speedup =
        campaign_parallel_s > 0
            ? campaign_serial_s / campaign_parallel_s
            : 0.0;
    const bool deterministic =
        campaignJson(serial_result) == campaignJson(parallel_result);

    // --- Suite harness: every kernel simulated end to end. ---
    const auto suite = workloads::rodiniaSuite({1024});
    auto sweep = [&](int run_jobs) {
        return parallelMapOrdered<uint64_t>(
            suite.size(), run_jobs, [&](size_t i) -> uint64_t {
                core::MesaParams params;
                return runMesa(suite[i], params).result.total_cycles;
            });
    };
    std::vector<uint64_t> suite_serial, suite_parallel;
    const double suite_serial_s =
        seconds([&] { suite_serial = sweep(1); });
    const double suite_parallel_s =
        seconds([&] { suite_parallel = sweep(jobs); });
    const double suite_speedup =
        suite_parallel_s > 0 ? suite_serial_s / suite_parallel_s : 0.0;
    const bool suite_deterministic = suite_serial == suite_parallel;

    // --- Emulator throughput: decoded-block cache on vs off. ---
    // Same kernel, same inputs; the cache is pure memoization, so
    // retired-instruction counts must match exactly.
    const auto emu_kernel = workloads::makeNn(262144);
    uint64_t emu_instret_cached = 0, emu_instret_uncached = 0;
    const double emu_cached_s =
        emulatorRun(emu_kernel, true, emu_instret_cached);
    const double emu_uncached_s =
        emulatorRun(emu_kernel, false, emu_instret_uncached);
    const bool emu_deterministic =
        emu_instret_cached == emu_instret_uncached;
    const double emu_mips_cached =
        emu_cached_s > 0 ? double(emu_instret_cached) / emu_cached_s / 1e6
                         : 0.0;
    const double emu_mips_uncached =
        emu_uncached_s > 0
            ? double(emu_instret_uncached) / emu_uncached_s / 1e6
            : 0.0;
    const double emu_decode_speedup =
        emu_cached_s > 0 ? emu_uncached_s / emu_cached_s : 0.0;

    // --- Translation: cold (full encode+map+config every time) vs
    // warm (served from a freshly populated on-disk store). Runs
    // last so it can commandeer the process-global store; the
    // caller's --cache-dir choice is restored afterwards. ---
    auto &tstore = core::TranslationStore::global();
    const std::string prev_cache_dir = tstore.directory();
    const auto contexts =
        makeTranslationContexts(workloads::rodiniaSuite({64}));
    const int trans_reps = 20;

    tstore.setDirectory(""); // cold: no persistence at all
    const double translation_cold_s = seconds([&] {
        for (int r = 0; r < trans_reps; ++r)
            for (const auto &ctx : contexts)
                translateOnce(*ctx);
    });

    const auto warm_dir =
        std::filesystem::temp_directory_path() /
        ("mesa_bench_perf_cache_" + std::to_string(::getpid()));
    tstore.setDirectory(warm_dir.string());
    for (const auto &ctx : contexts) // populate pass (stores)
        translateOnce(*ctx);
    for (const auto &ctx : contexts) // prime: first probe pays the
        translateOnce(*ctx);         // one-time disk parse per region
    const double translation_warm_s = seconds([&] {
        for (int r = 0; r < trans_reps; ++r)
            for (const auto &ctx : contexts)
                translateOnce(*ctx);
    });
    tstore.setDirectory(prev_cache_dir);
    std::error_code cleanup_ec;
    std::filesystem::remove_all(warm_dir, cleanup_ec);

    const double warm_speedup =
        translation_warm_s > 0 ? translation_cold_s / translation_warm_s
                               : 0.0;

    // One environment capture feeds both the report's provenance
    // block and the history append below.
    prof::HistoryRecord rec = prof::makeHistoryRecord("bench_perf");
    rec.metrics = {
        {"jobs", double(jobs)},
        {"campaign_serial_seconds", campaign_serial_s},
        {"campaign_parallel_seconds", campaign_parallel_s},
        {"campaign_speedup", campaign_speedup},
        {"suite_serial_seconds", suite_serial_s},
        {"suite_parallel_seconds", suite_parallel_s},
        {"suite_speedup", suite_speedup},
        {"emu_mips_cached", emu_mips_cached},
        {"emu_mips_uncached", emu_mips_uncached},
        {"emu_decode_speedup", emu_decode_speedup},
        {"translation_cold_seconds", translation_cold_s},
        {"translation_warm_seconds", translation_warm_s},
        {"translation_warm_speedup", warm_speedup},
    };

    JsonWriter w;
    w.beginObject()
        .field("jobs", jobs)
        .field("hardware_concurrency",
               int(std::thread::hardware_concurrency()))
        .field("timestamp", rec.timestamp)
        .field("git_rev", rec.git_rev)
        .field("host", rec.host)
        .field("os", rec.os)
        .field("machine", rec.machine)
        .field("campaign_injections_per_kernel", injections)
        .field("campaign_serial_seconds", campaign_serial_s)
        .field("campaign_parallel_seconds", campaign_parallel_s)
        .field("campaign_speedup", campaign_speedup)
        .field("campaign_deterministic", deterministic)
        .field("suite_serial_seconds", suite_serial_s)
        .field("suite_parallel_seconds", suite_parallel_s)
        .field("suite_speedup", suite_speedup)
        .field("suite_deterministic", suite_deterministic)
        .field("emu_mips_cached", emu_mips_cached)
        .field("emu_mips_uncached", emu_mips_uncached)
        .field("emu_decode_speedup", emu_decode_speedup)
        .field("emu_deterministic", emu_deterministic)
        .field("translation_cold_seconds", translation_cold_s)
        .field("translation_warm_seconds", translation_warm_s)
        .field("translation_warm_speedup", warm_speedup)
        .field("min_speedup", min_speedup)
        .field("min_warm_speedup", min_warm_speedup)
        .end();

    std::ofstream f(out_path);
    if (!f)
        fatal("cannot open report file ", out_path);
    f << w.str() << "\n";

    if (!no_history && !prof::appendHistory(history_path, rec))
        logWarn("bench", "cannot append history to ", history_path);

    if (json)
        std::cout << w.str() << "\n";
    else
        std::cout << "campaign: " << campaign_serial_s << "s serial, "
                  << campaign_parallel_s << "s with " << jobs
                  << " jobs (" << campaign_speedup << "x, "
                  << (deterministic ? "byte-identical"
                                    : "NON-DETERMINISTIC")
                  << ")\n"
                  << "suite   : " << suite_serial_s << "s serial, "
                  << suite_parallel_s << "s with " << jobs << " jobs ("
                  << suite_speedup << "x, "
                  << (suite_deterministic ? "identical"
                                          : "NON-DETERMINISTIC")
                  << ")\n"
                  << "emulate : " << emu_mips_cached
                  << " MIPS with decode cache, " << emu_mips_uncached
                  << " MIPS without (" << emu_decode_speedup << "x, "
                  << (emu_deterministic ? "identical"
                                        : "NON-DETERMINISTIC")
                  << ")\n"
                  << "translate: " << translation_cold_s
                  << "s cold, " << translation_warm_s
                  << "s warm from disk (" << warm_speedup << "x)\n"
                  << "report  : " << out_path << "\n";

    if (!deterministic || !suite_deterministic || !emu_deterministic) {
        std::cerr << "FAIL: parallel run diverged from serial\n";
        return 1;
    }
    if (min_speedup > 0 && campaign_speedup < min_speedup) {
        std::cerr << "FAIL: campaign speedup " << campaign_speedup
                  << "x below required " << min_speedup << "x\n";
        return 1;
    }
    if (min_warm_speedup > 0 && warm_speedup < min_warm_speedup) {
        std::cerr << "FAIL: warm translation speedup " << warm_speedup
                  << "x below required " << min_warm_speedup << "x\n";
        return 1;
    }
    return 0;
}
