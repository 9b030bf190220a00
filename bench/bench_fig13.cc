/**
 * @file
 * Reproduces paper Figure 13: breakdown of area, power, and energy
 * consumption by component for MESA including the accelerator.
 * Energy fractions are averaged over four benchmarks (nn, kmeans,
 * hotspot, cfd) as in the paper; the key result is that ~87% of the
 * energy goes to memory or computation, with only a small fraction
 * on control.
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    const auto accel = accel::AccelParams::m128();
    power::PowerModel pm(accel);

    // --- Area and peak-power fractions (from the synthesis model) ---
    TextTable area_table(
        "Figure 13a: area / peak-power fractions by component (M-128)");
    area_table.header({"component", "area %", "power %"});
    const auto rows = pm.acceleratorRows();
    const double total_area = rows.front().area_um2;
    const double total_power = rows.front().power_w;
    const double mesa_area = 502000.0;
    const double mesa_power = 0.36;
    for (const auto &row : rows) {
        if (row.indent != 1)
            continue;
        area_table.row(
            {row.name,
             TextTable::num(100 * row.area_um2 / (total_area + mesa_area)),
             TextTable::num(100 * row.power_w /
                            (total_power + mesa_power))});
    }
    area_table.row({"MESA controller",
                    TextTable::num(100 * mesa_area /
                                   (total_area + mesa_area)),
                    TextTable::num(100 * mesa_power /
                                   (total_power + mesa_power))});
    area_table.print(std::cout);

    // --- Energy fractions averaged over four benchmarks ---
    const char *names[] = {"nn", "kmeans", "hotspot", "cfd"};
    const auto per_kernel = parallelMapOrdered<power::EnergyBreakdown>(
        std::size(names), jobs,
        [&](size_t i) -> power::EnergyBreakdown {
            const auto kernel =
                workloads::kernelByName(names[i], {8192});
            core::MesaParams params;
            params.accel = accel;
            const MesaRun run = runMesa(kernel, params);
            power::EnergyBreakdown acc;
            for (const auto &os : run.result.offloads) {
                const auto e =
                    pm.accelEnergy(os.accel, os.totalConfigCycles() +
                                                 os.reconfig_cycles);
                acc.compute_nj += e.compute_nj;
                acc.memory_nj += e.memory_nj;
                acc.noc_nj += e.noc_nj;
                acc.control_nj += e.control_nj;
                acc.static_nj += e.static_nj;
            }
            return acc;
        });
    power::EnergyBreakdown sum;
    for (const auto &e : per_kernel) {
        sum.compute_nj += e.compute_nj;
        sum.memory_nj += e.memory_nj;
        sum.noc_nj += e.noc_nj;
        sum.control_nj += e.control_nj;
        sum.static_nj += e.static_nj;
    }

    const double total = sum.total();
    TextTable energy_table(
        "Figure 13b: energy breakdown, averaged over nn/kmeans/"
        "hotspot/cfd");
    energy_table.header({"component", "energy %"});
    energy_table.row(
        {"computation", TextTable::num(100 * sum.compute_nj / total)});
    energy_table.row(
        {"memory", TextTable::num(100 * sum.memory_nj / total)});
    energy_table.row(
        {"interconnect", TextTable::num(100 * sum.noc_nj / total)});
    energy_table.row(
        {"control (MESA + network)",
         TextTable::num(100 * sum.control_nj / total)});
    energy_table.row(
        {"static", TextTable::num(100 * sum.static_nj / total)});
    energy_table.print(std::cout);

    const double mem_compute =
        100 * (sum.compute_nj + sum.memory_nj) / total;
    std::cout << "\nmemory+computation share: "
              << TextTable::num(mem_compute)
              << "% (paper: ~87%, control small)\n";
    return 0;
}
