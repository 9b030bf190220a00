/**
 * @file
 * Reproduces paper Figure 11: relative performance and energy
 * efficiency of M-128 and M-512 against the 16-core quad-issue
 * out-of-order multicore baseline, across the Rodinia-like suite.
 * Prints one row per benchmark plus the suite averages the paper
 * reports (1.33x / 1.81x speedup, 1.86x / 1.92x energy efficiency).
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    const workloads::SuiteScale scale{16384};
    const auto suite = workloads::rodiniaSuite(scale);

    TextTable table("Figure 11: performance and energy efficiency vs "
                    "16-core OoO multicore");
    table.header({"benchmark", "perf M-128", "perf M-512",
                  "eff M-128", "eff M-512"});

    std::vector<double> perf128, perf512, eff128, eff512;

    struct Row
    {
        std::string name;
        double s128 = 0, s512 = 0, e128 = 0, e512 = 0;
    };
    // One shard per (kernel, accel config) grid cell; rows come back
    // in suite order regardless of --jobs.
    const auto rows = parallelMapOrdered<Row>(
        suite.size() * 2, jobs, [&](size_t i) -> Row {
            const auto &kernel = suite[i / 2];
            const bool big = i % 2;
            const CpuRun base = runMulticoreBaseline(kernel);
            core::MesaParams p;
            p.accel = big ? accel::AccelParams::m512()
                          : accel::AccelParams::m128();
            const MesaRun m = runMesa(kernel, p);
            Row r;
            r.name = kernel.name;
            (big ? r.s512 : r.s128) =
                double(base.run.cycles) / double(m.result.total_cycles);
            (big ? r.e512 : r.e128) = base.energy_nj / m.energy_nj;
            return r;
        });

    for (size_t k = 0; k < suite.size(); ++k) {
        const double s128 = rows[2 * k].s128;
        const double s512 = rows[2 * k + 1].s512;
        const double e128 = rows[2 * k].e128;
        const double e512 = rows[2 * k + 1].e512;

        perf128.push_back(s128);
        perf512.push_back(s512);
        eff128.push_back(e128);
        eff512.push_back(e512);

        table.row({rows[2 * k].name, TextTable::num(s128),
                   TextTable::num(s512), TextTable::num(e128),
                   TextTable::num(e512)});
    }

    table.row({"average", TextTable::num(mean(perf128)),
               TextTable::num(mean(perf512)),
               TextTable::num(mean(eff128)),
               TextTable::num(mean(eff512))});
    table.print(std::cout);

    std::cout << "\npaper: avg perf 1.33x (M-128), 1.81x (M-512); "
                 "avg energy eff 1.86x / 1.92x\n";
    return 0;
}
