/**
 * @file
 * Multi-tenant scheduling benchmark: N CPU threads each offload a
 * chunk of one kernel's iteration space to a shared accelerator, and
 * the spatially partitioned schedule is compared against serializing
 * the same tenants through the full array one at a time (the
 * single-tenant baseline every prior bench models).
 *
 * Tiling is disabled on BOTH sides: with it on, the serialized
 * full-array run tiles each tenant ~ways times wider, which cancels
 * the concurrency advantage and measures the tiler, not the
 * scheduler. Partitioning wins exactly when tenants are small-region
 * (they cannot use the whole array), which is the regime this bench
 * isolates.
 *
 *   ./build/bench/bench_multitenant --tenants 4 --policy rr
 *   ./build/bench/bench_multitenant --smoke      # CI gate: >= 1.2x
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "prof/history.hh"
#include "sched/multicore.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/trace.hh"
#include "workloads/kernel.hh"

#include "common.hh"

using namespace mesa;

namespace
{

void
usage()
{
    std::cout <<
        "bench_multitenant — shared-accelerator scheduling\n"
        "  --kernel <name>     suite kernel (default nn)\n"
        "  --tenants <n>       offloading CPU threads (default 4)\n"
        "  --ways <n>          spatial partitions (default = tenants)\n"
        "  --policy <p>        round-robin | priority |\n"
        "                      shortest-remaining (default round-robin)\n"
        "  --epoch <n>         preemption slice iterations (default 256)\n"
        "  --scale <n>         total iterations (default 8192)\n"
        "  --seed <n>          seeded per-tenant priorities\n"
        "                      (default 0 = all equal)\n"
        "  --jobs <n>          worker threads: the serialized\n"
        "                      baseline and the partitioned run are\n"
        "                      independent simulations and run\n"
        "                      concurrently when n > 1 (default =\n"
        "                      hardware concurrency; forced to 1 when\n"
        "                      tracing)\n"
        "  --shadow-config     single-cycle context switches\n"
        "  --skew <s>          Zipf-skewed per-tenant loads (weight\n"
        "                      1/(t+1)^s): runs the static AND the\n"
        "                      elastic partitioned schedule (tiling on\n"
        "                      for both — the merged band must be able\n"
        "                      to spread the solo tenant) and appends\n"
        "                      the comparison to the perf history\n"
        "  --elastic           elastic repartitioning on the\n"
        "                      partitioned run (implied by --skew)\n"
        "  --history <path>    perf-history JSONL for --skew\n"
        "                      (default BENCH_history.jsonl)\n"
        "  --no-history        skip the history append\n"
        "  --smoke             assert >= 1.2x over serialized; exit 1\n"
        "                      otherwise (with --skew: assert elastic\n"
        "                      beats static on throughput AND Jain)\n"
        "  --json              machine-readable output\n"
        "  --trace-out <file>  Chrome trace of the partitioned run\n"
        "  --stats-json <file> scheduler stats registry as JSON\n";
}

sched::SharedRunResult
run(const sched::SchedParams &base, const workloads::Kernel &kernel,
    int tenants, int ways, uint64_t epoch,
    const std::vector<int> &priorities,
    const std::vector<double> &weights = {})
{
    sched::SharedRunParams params;
    params.sched = base;
    params.sched.spatial_ways = ways;
    params.sched.epoch_iterations = epoch;
    params.priorities = priorities;
    params.weights = weights;
    mem::MainMemory memory;
    return sched::runShared(params, memory, kernel, tenants);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::applyCacheDir(argc, argv);
    std::string kernel_name = "nn";
    std::string trace_out;
    std::string stats_json;
    int tenants = 4;
    int ways = 0;
    uint64_t epoch = 256;
    uint64_t scale = 8192;
    uint64_t seed = 0;
    int jobs = defaultJobs();
    bool smoke = false;
    bool json = false;
    double skew = 0.0;
    bool elastic = false;
    bool append_history = true;
    std::string history_path = "BENCH_history.jsonl";
    sched::SchedParams base;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                exit(1);
            }
            return argv[++i];
        };
        if (arg == "--kernel") {
            kernel_name = next();
        } else if (arg == "--tenants") {
            tenants = int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--ways") {
            ways = int(std::strtol(next(), nullptr, 10));
        } else if (arg == "--policy") {
            const std::string name = next();
            auto p = sched::policyByName(name);
            if (!p) {
                std::cerr << "unknown policy " << name << "\n";
                return 1;
            }
            base.policy = *p;
        } else if (arg == "--epoch") {
            epoch = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--scale") {
            scale = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--jobs") {
            jobs = resolveJobs(int(std::strtol(next(), nullptr, 10)));
        } else if (arg == "--shadow-config") {
            base.mesa.shadow_config = true;
        } else if (arg == "--skew") {
            skew = std::strtod(next(), nullptr);
        } else if (arg == "--elastic") {
            elastic = true;
        } else if (arg == "--history") {
            history_path = next();
        } else if (arg == "--no-history") {
            append_history = false;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--stats-json") {
            stats_json = next();
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }
    if (tenants < 1)
        tenants = 1;

    const auto kernel =
        workloads::kernelByName(kernel_name, {scale});

    base.mesa.accel = accel::AccelParams::m128();
    base.mesa.enable_tiling = false; // isolate scheduling (file comment)
    if (ways <= 0)
        ways = std::min(tenants,
                        sched::maxWays(base.mesa.accel,
                                       kernel.loopBody().size()));

    // Seeded priorities: same seed, same tenant ordering pressure in
    // both the serialized baseline and the partitioned run. Zero (the
    // default) keeps every tenant equal.
    std::vector<int> priorities;
    if (seed != 0) {
        SplitMix64 rng(seed);
        for (int t = 0; t < tenants; ++t)
            priorities.push_back(int(rng.below(uint64_t(tenants))));
    }

    // Skewed-load cell: Zipf per-tenant weights, static vs elastic
    // partitioned schedules. Tiling is ON for all three runs here —
    // the elastic win comes from the merged band spreading the solo
    // heavy tenant, and the static run must be allowed the same
    // optimization within its band for the comparison to be fair.
    if (skew > 0.0) {
        base.mesa.enable_tiling = true;
        std::vector<double> weights;
        for (int t = 0; t < tenants; ++t)
            weights.push_back(1.0 / std::pow(double(t + 1), skew));

        sched::SchedParams elas = base;
        elas.elastic = true;

        sched::SharedRunResult serial, spart, epart;
        if (trace_out.empty()) {
            parallelForOrdered(3, std::min(jobs, 3), [&](size_t i) {
                if (i == 0)
                    serial = run(base, kernel, tenants, 1, 0,
                                 priorities, weights);
                else if (i == 1)
                    spart = run(base, kernel, tenants, ways, epoch,
                                priorities, weights);
                else
                    epart = run(elas, kernel, tenants, ways, epoch,
                                priorities, weights);
            });
        } else {
            serial =
                run(base, kernel, tenants, 1, 0, priorities, weights);
            spart = run(base, kernel, tenants, ways, epoch, priorities,
                        weights);
            Tracer::global().clear();
            Tracer::global().enable();
            epart = run(elas, kernel, tenants, ways, epoch, priorities,
                        weights);
            Tracer &tracer = Tracer::global();
            tracer.enable(false);
            std::ofstream f(trace_out);
            if (!f)
                fatal("cannot open trace output file ", trace_out);
            tracer.exportJson(f);
        }

        const double elastic_speedup =
            epart.makespan_cycles
                ? double(spart.makespan_cycles) /
                      double(epart.makespan_cycles)
                : 0.0;
        const double jain_static = spart.sched.fairnessJain();
        const double jain_elastic = epart.sched.fairnessJain();

        if (json) {
            JsonWriter w;
            w.beginObject()
                .field("kernel", kernel.name)
                .field("tenants", tenants)
                .field("ways", epart.sched.ways)
                .field("skew", skew)
                .field("serialized_cycles", serial.makespan_cycles)
                .field("static_cycles", spart.makespan_cycles)
                .field("elastic_cycles", epart.makespan_cycles)
                .field("elastic_speedup", elastic_speedup)
                .field("static_jain", jain_static)
                .field("elastic_jain", jain_elastic)
                .field("migrations", epart.sched.migrations)
                .field("migration_warm", epart.sched.migration_warm)
                .field("migration_translate_cycles",
                       epart.sched.migration_translate_cycles)
                .field("migration_stream_cycles",
                       epart.sched.migration_stream_cycles)
                .field("all_completed", spart.all_completed &&
                                            epart.all_completed)
                .end();
            std::cout << w.str() << "\n";
        } else {
            std::cout << "kernel " << kernel.name << ": " << tenants
                      << " tenants, " << epart.sched.ways
                      << " ways, skew " << skew
                      << " (Zipf weights, tiling on)\n\n"
                      << "serialized : " << serial.makespan_cycles
                      << " cycles\n"
                      << "static     : " << spart.makespan_cycles
                      << " cycles, Jain "
                      << TextTable::num(jain_static) << "\n"
                      << "elastic    : " << epart.makespan_cycles
                      << " cycles, Jain "
                      << TextTable::num(jain_elastic) << " ("
                      << epart.sched.migrations << " migrations, "
                      << epart.sched.migration_warm << " warm, "
                      << epart.sched.migration_translate_cycles
                      << " translate + "
                      << epart.sched.migration_stream_cycles
                      << " stream cycles)\n"
                      << "elastic vs static: "
                      << TextTable::num(elastic_speedup)
                      << "x throughput\n";
            if (!spart.all_completed || !epart.all_completed)
                std::cout << "WARNING: not every tenant completed\n";
        }

        if (append_history) {
            prof::HistoryRecord rec =
                prof::makeHistoryRecord("bench_multitenant");
            rec.metrics["skew"] = skew;
            rec.metrics["tenants"] = double(tenants);
            rec.metrics["static_cycles"] =
                double(spart.makespan_cycles);
            rec.metrics["elastic_cycles"] =
                double(epart.makespan_cycles);
            rec.metrics["elastic_speedup"] = elastic_speedup;
            rec.metrics["static_jain"] = jain_static;
            rec.metrics["elastic_jain"] = jain_elastic;
            rec.metrics["migrations"] =
                double(epart.sched.migrations);
            if (!prof::appendHistory(history_path, rec))
                logWarn("sched", "cannot append history to ",
                        history_path);
        }

        if (smoke) {
            const bool ok = spart.all_completed &&
                            epart.all_completed &&
                            elastic_speedup > 1.0 &&
                            jain_elastic > jain_static;
            std::cout << "\nsmoke: " << (ok ? "PASS" : "FAIL")
                      << " (elastic "
                      << TextTable::num(elastic_speedup)
                      << "x static, Jain "
                      << TextTable::num(jain_elastic) << " vs "
                      << TextTable::num(jain_static)
                      << "; need >1x and higher Jain)\n";
            return ok ? 0 : 1;
        }
        return 0;
    }

    base.elastic = elastic;

    // Serialized baseline (one way, no preemption — each tenant runs
    // to completion on the full array before the next configures) and
    // the partitioned + time-multiplexed run are independent
    // simulations: with --jobs > 1 and no tracing they execute
    // concurrently, each on its own memory/scheduler state.
    sched::SharedRunResult serial, part;
    if (trace_out.empty()) {
        parallelForOrdered(2, std::min(jobs, 2), [&](size_t i) {
            if (i == 0)
                serial = run(base, kernel, tenants, 1, 0, priorities);
            else
                part = run(base, kernel, tenants, ways, epoch,
                           priorities);
        });
    } else {
        // Traced run: trace events carry no run identity, so both
        // runs stay serial and only the partitioned one records.
        serial = run(base, kernel, tenants, 1, 0, priorities);
        Tracer::global().clear();
        Tracer::global().enable();
        part = run(base, kernel, tenants, ways, epoch, priorities);
        Tracer &tracer = Tracer::global();
        tracer.enable(false);
        std::ofstream f(trace_out);
        if (!f)
            fatal("cannot open trace output file ", trace_out);
        tracer.exportJson(f);
    }
    if (!stats_json.empty()) {
        StatsRegistry stats;
        part.sched.registerInto(stats);
        JsonWriter w;
        stats.toJson(w);
        std::ofstream f(stats_json);
        if (!f)
            fatal("cannot open stats output file ", stats_json);
        f << w.str() << "\n";
    }

    const double ratio =
        part.makespan_cycles
            ? double(serial.makespan_cycles) /
                  double(part.makespan_cycles)
            : 0.0;

    if (json) {
        JsonWriter w;
        w.beginObject()
            .field("kernel", kernel.name)
            .field("tenants", tenants)
            .field("ways", part.sched.ways)
            .field("policy", sched::policyName(base.policy))
            .field("epoch_iterations", epoch)
            .field("serialized_cycles", serial.makespan_cycles)
            .field("partitioned_cycles", part.makespan_cycles)
            .field("throughput_ratio", ratio)
            .field("occupancy", part.sched.occupancy)
            .field("fairness_jain", part.sched.fairnessJain())
            .field("switches", part.sched.total_switches)
            .field("switch_cycles", part.sched.total_switch_cycles)
            .field("all_completed", part.all_completed)
            .end();
        std::cout << w.str() << "\n";
    } else {
        std::cout << "kernel " << kernel.name << ": " << tenants
                  << " tenants, " << part.sched.ways << " ways, "
                  << sched::policyName(base.policy) << ", epoch "
                  << epoch << " (tiling off on both sides)\n\n";

        TextTable table("Per-tenant schedule (partitioned run)");
        table.header({"tenant", "iters", "wait", "run", "switches",
                      "turnaround"});
        for (const auto &t : part.sched.tenants) {
            table.row({std::to_string(t.tenant),
                       std::to_string(t.iterations),
                       std::to_string(t.wait_cycles),
                       std::to_string(t.run_cycles),
                       std::to_string(t.switches),
                       std::to_string(t.turnaroundCycles())});
        }
        table.print(std::cout);

        std::cout << "\nserialized  : " << serial.makespan_cycles
                  << " cycles (1 way, run-to-completion)\n"
                  << "partitioned : " << part.makespan_cycles
                  << " cycles (" << part.sched.ways << " ways, "
                  << TextTable::num(100.0 * part.sched.occupancy, 1)
                  << "% occupancy, Jain "
                  << TextTable::num(part.sched.fairnessJain())
                  << ")\n"
                  << "throughput  : " << TextTable::num(ratio)
                  << "x aggregate vs serialized\n";
        if (!part.all_completed)
            std::cout << "WARNING: not every tenant completed\n";
    }

    if (smoke) {
        const bool ok = part.all_completed && ratio >= 1.2;
        std::cout << "\nsmoke: " << (ok ? "PASS" : "FAIL") << " ("
                  << TextTable::num(ratio) << "x, need >= 1.2x)\n";
        return ok ? 0 : 1;
    }
    return 0;
}
