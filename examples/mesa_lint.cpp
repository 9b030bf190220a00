/**
 * @file
 * Static lint over MESA's translation pipeline: run every suite
 * kernel's hot loop through encode -> map -> configure and hand the
 * three artifacts to the src/verify passes, printing a diagnostics
 * table (or a JSON report for CI). A clean exit (0) means no
 * error-severity finding anywhere; any error exits 1.
 *
 *   ./build/examples/mesa_lint                      # whole suite
 *   ./build/examples/mesa_lint --kernel srad --json
 *   ./build/examples/mesa_lint --accel M-64 --timemux
 *   ./build/examples/mesa_lint --rules              # rule catalog
 */

#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "absint/certificate.hh"
#include "cpu/system.hh"
#include "mesa/translate.hh"
#include "riscv/emulator.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "util/table.hh"
#include "verify/verifier.hh"
#include "workloads/kernel.hh"
#include "workloads/suite.hh"

using namespace mesa;

namespace
{

void
usage()
{
    std::cout <<
        "mesa_lint — static verifier for the MESA translation "
        "pipeline\n"
        "  --kernel <name>  lint one suite kernel (default: all)\n"
        "  --accel <cfg>    M-64 | M-128 | M-512 (default M-128)\n"
        "  --scale <n>      iteration count knob (default 64)\n"
        "  --timemux        allow folding oversized bodies (x4)\n"
        "  --jobs <n>       lint kernels on n worker threads (default\n"
        "                   = hardware concurrency; output order and\n"
        "                   bytes are identical at any job count)\n"
        "  --werror         exit 1 on warnings too\n"
        "  --json           machine-readable report\n"
        "  --absint         run the abstract-interpretation certifier\n"
        "                   (footprint + trip-count certificates, AI1xx\n"
        "                   rules) on every linted kernel\n"
        "  --rules [spec]   with no spec: print the rule catalog and\n"
        "                   exit. With a comma-separated spec of rule\n"
        "                   ids or trailing-* prefix globs (AI*, map.*):\n"
        "                   keep only matching diagnostics. Unknown\n"
        "                   ids/globs are a hard error (exit 2)\n"
        "  --list           list available kernels\n";
}

/** One kernel's lint outcome. */
struct LintResult
{
    std::string kernel;
    size_t nodes = 0;
    size_t unmapped = 0;
    int tiles = 1;
    int time_multiplex = 1;
    bool skipped = false;
    std::string skip_reason;
    verify::Report report;

    // --absint artifacts.
    bool certified = false;
    absint::BodyCertificate cert;
    absint::CertificateInstance inst;
    uint64_t watchdog_budget = 0;
};

LintResult
lintKernel(const workloads::Kernel &kernel,
           const accel::AccelParams &accel, bool allow_timemux,
           bool run_absint)
{
    LintResult out;
    out.kernel = kernel.name;

    const auto body = kernel.loopBody();
    if (body.empty()) {
        out.skipped = true;
        out.skip_reason = "no hot-loop body";
        return out;
    }
    // The controller's translation path. Unmapped nodes are reported
    // as findings instead of refusing the body, and a tileable loop
    // tiles at the grid's full ceiling (the most demanding
    // configuration the pipeline can produce).
    core::TranslatePolicy policy;
    policy.fold_limit = allow_timemux ? 4 : 1;
    policy.allow_tiling = kernel.parallel;
    policy.max_unmapped_frac = 1.0;
    policy.options.pipelined = true;
    ic::AccelNocInterconnect noc(accel.rows, accel.cols,
                                 accel.noc_slice_width);
    dfg::BuildError err = dfg::BuildError::None;
    auto tr = core::translate(body, accel, noc, policy, nullptr, &err);
    if (!tr) {
        // Not encodable is not a lint failure: the monitor would have
        // rejected the region (C1/C2) before the pipeline ever ran.
        out.skipped = true;
        out.skip_reason =
            std::string("not encodable: ") + dfg::buildErrorName(err);
        return out;
    }
    out.nodes = tr->ldfg.size();
    out.unmapped = tr->map.unmapped.size();
    const int tm = tr->options.time_multiplex;
    out.time_multiplex = tm;

    tr->options.tile_factor = tr->max_tiles;
    const accel::AcceleratorConfig config =
        tr->lower(core::ConfigBlock(accel), body.front().pc,
                  body.back().pc + 4);
    out.tiles = config.tileCount();
    out.report = verify::verifyLdfg(tr->ldfg, accel.op_latency);
    out.report.merge(core::verifyTranslation(*tr, config, accel, noc));

    if (run_absint) {
        // The concrete entry state the certificate instantiates
        // against (the monitor's view at offload time).
        mem::MainMemory memory;
        kernel.plant(memory);
        riscv::Emulator emu(memory);
        if (kernel.enterLoop(emu)) {
            out.cert = absint::analyze(tr->ldfg);
            out.inst = absint::instantiate(
                out.cert, emu.state(), absint::residentRegion(memory));
            out.certified =
                out.inst.footprint == absint::RegionClass::ProvenIn &&
                out.inst.trips_finite;
            if (out.inst.trips_finite)
                out.watchdog_budget = absint::watchdogBudget(
                    out.cert, out.inst.trips, tm);
            absint::reportCertificate(out.cert, &out.inst, out.report);
        } else {
            out.report.warn("AI102", "preamble",
                            "loop entry unreachable in preamble "
                            "emulation; certificate not instantiated");
        }
    }
    return out;
}

/** Keep only diagnostics whose rule id is in @p allowed. */
verify::Report
filterReport(const verify::Report &in,
             const std::set<std::string> &allowed)
{
    verify::Report out;
    for (const auto &d : in.diagnostics())
        if (allowed.count(d.rule))
            out.add(d.severity, d.rule, d.where, d.message);
    return out;
}

void
printRuleCatalog()
{
    TextTable table;
    table.header({"rule", "severity", "pass", "summary"});
    for (const auto &rule : verify::ruleCatalog())
        table.row({rule.id, verify::severityName(rule.severity),
                   rule.pass, rule.summary});
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kernel_name;
    std::string accel_name = "M-128";
    uint64_t scale = 64;
    int jobs = defaultJobs();
    bool allow_timemux = false;
    bool werror = false;
    bool json = false;
    bool run_absint = false;
    bool print_rules = false;
    std::string rules_spec;

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
        } else if (arg == "--accel") {
            accel_name = next();
        } else if (arg == "--scale") {
            scale = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--timemux") {
            allow_timemux = true;
        } else if (arg == "--jobs") {
            jobs = resolveJobs(int(std::strtol(next(), nullptr, 10)));
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--absint") {
            run_absint = true;
        } else if (arg == "--rules") {
            // Optional value: a filter spec; bare --rules prints the
            // catalog.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                rules_spec = argv[++i];
            else
                print_rules = true;
        } else if (arg == "--list") {
            workloads::listKernels(std::cout);
            return 0;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    if (print_rules) {
        printRuleCatalog();
        return 0;
    }

    // Expand the rule filter up front: an unknown id or glob is a
    // hard error, never a silent no-match filter.
    std::set<std::string> allowed_rules;
    bool filter_rules = false;
    if (!rules_spec.empty()) {
        filter_rules = true;
        std::vector<std::string> unknown;
        for (const auto &id :
             verify::expandRulePatterns(rules_spec, &unknown))
            allowed_rules.insert(id);
        if (!unknown.empty()) {
            for (const auto &pat : unknown)
                std::cerr << "mesa_lint: unknown rule or pattern '"
                          << pat << "'\n";
            return 2;
        }
    }

    const accel::AccelParams accel = accel::AccelParams::byName(accel_name);

    std::vector<workloads::Kernel> kernels;
    if (kernel_name.empty())
        kernels = workloads::selectKernels({}, {scale});
    else
        kernels = workloads::selectKernels({kernel_name}, {scale});

    // Suite-wide lint shards by kernel: every lintKernel call builds
    // its own pipeline state, and results commit in suite order, so
    // the report is identical at any --jobs value.
    std::vector<LintResult> results = parallelMapOrdered<LintResult>(
        kernels.size(), jobs, [&](size_t i) {
            return lintKernel(kernels[i], accel, allow_timemux,
                              run_absint);
        });
    if (filter_rules)
        for (auto &r : results)
            r.report = filterReport(r.report, allowed_rules);

    size_t errors = 0, warnings = 0, notes = 0;
    size_t certified = 0, proven_out = 0;
    for (const auto &r : results) {
        errors += r.report.errorCount();
        warnings += r.report.warnCount();
        notes += r.report.noteCount();
        certified += r.certified;
        proven_out +=
            run_absint && !r.skipped &&
            r.inst.footprint == absint::RegionClass::ProvenOut;
    }
    const bool failed = errors > 0 || (werror && warnings > 0);

    if (json) {
        JsonWriter w;
        w.beginObject()
            .field("accel", accel.name)
            .field("errors", uint64_t(errors))
            .field("warnings", uint64_t(warnings))
            .field("notes", uint64_t(notes))
            .field("ok", !failed);
        if (run_absint)
            w.field("certified", uint64_t(certified))
                .field("proven_out", uint64_t(proven_out));
        w.key("kernels")
            .beginArray();
        for (const auto &r : results) {
            w.beginObject()
                .field("kernel", r.kernel)
                .field("skipped", r.skipped);
            if (r.skipped) {
                w.field("reason", r.skip_reason);
            } else {
                w.field("nodes", uint64_t(r.nodes))
                    .field("unmapped", uint64_t(r.unmapped))
                    .field("tiles", r.tiles)
                    .field("time_multiplex", r.time_multiplex);
                if (run_absint) {
                    w.field("certified", r.certified)
                        .field("watchdog_budget", r.watchdog_budget);
                    w.key("certificate");
                    r.cert.toJson(w);
                    w.key("instance");
                    r.inst.toJson(w);
                }
                w.key("report");
                r.report.toJson(w);
            }
            w.end();
        }
        w.end().end();
        std::cout << w.str() << "\n";
        return failed ? 1 : 0;
    }

    TextTable table;
    if (run_absint)
        table.header({"kernel", "nodes", "footprint", "trips",
                      "watchdog", "result"});
    else
        table.header({"kernel", "nodes", "unmapped", "tiles", "result"});
    for (const auto &r : results) {
        if (r.skipped) {
            std::vector<std::string> row = {r.kernel, "-", "-", "-",
                                            "skipped (" + r.skip_reason +
                                                ")"};
            if (run_absint)
                row.insert(row.end() - 1, "-");
            table.row(row);
            continue;
        }
        if (run_absint) {
            table.row({r.kernel, std::to_string(r.nodes),
                       absint::regionClassName(r.inst.footprint),
                       r.inst.trips_finite ? std::to_string(r.inst.trips)
                                           : "unbounded",
                       r.watchdog_budget
                           ? std::to_string(r.watchdog_budget)
                           : "-",
                       r.report.summary()});
        } else {
            table.row({r.kernel, std::to_string(r.nodes),
                       std::to_string(r.unmapped),
                       std::to_string(r.tiles), r.report.summary()});
        }
    }
    table.print(std::cout);

    for (const auto &r : results) {
        if (r.report.empty())
            continue;
        std::cout << "\n" << r.kernel << ":\n";
        r.report.printTable(std::cout);
    }
    std::cout << "\n"
              << (failed ? "FAIL" : "OK") << ": " << errors
              << " errors, " << warnings << " warnings, " << notes
              << " notes across " << results.size() << " kernels\n";
    return failed ? 1 : 0;
}
