/**
 * @file
 * Design-space sensitivity sweeps (beyond the paper's figures):
 * memory ports, shared DRAM bandwidth, profiling-epoch length, and
 * candidate-window geometry, each against total cycles on a
 * representative kernel pair. Quantifies which knobs the headline
 * results actually depend on.
 */

#include "common.hh"

using namespace mesa;
using namespace mesa::bench;

namespace
{

uint64_t
totalCycles(const char *kernel_name,
            const std::function<void(core::MesaParams &)> &tweak)
{
    const auto kernel = workloads::kernelByName(kernel_name, {8192});
    core::MesaParams params;
    tweak(params);
    return runMesa(kernel, params).result.total_cycles;
}

} // namespace

// Every sweep point is independent, so the whole sweep — all four
// tables — shards as a single flat grid of (axis point, kernel)
// cells.
struct Axis
{
    const char *title;
    const char *key;
    std::vector<const char *> kernels;
    std::vector<std::string> labels;
    std::vector<std::function<void(core::MesaParams &)>> tweaks;
};

int
main(int argc, char **argv)
{
    const int jobs = parseJobs(argc, argv);
    applyCacheDir(argc, argv);
    const char *fp_kernel = "kmeans";
    const char *mem_kernel = "bfs";

    std::vector<Axis> axes;
    {
        Axis a;
        a.title = "sensitivity: memory ports (total cycles)";
        a.key = "ports";
        a.kernels = {fp_kernel, mem_kernel};
        for (unsigned ports : {4u, 8u, 16u, 32u, 64u}) {
            a.labels.push_back(std::to_string(ports));
            a.tweaks.push_back([ports](core::MesaParams &p) {
                p.accel.mem_ports = ports;
            });
        }
        axes.push_back(std::move(a));
    }
    {
        Axis a;
        a.title = "sensitivity: shared DRAM bandwidth "
                  "(accesses/cycle, total cycles)";
        a.key = "bw";
        a.kernels = {fp_kernel, mem_kernel};
        for (double bw : {0.25, 0.5, 1.0, 2.0, 4.0}) {
            a.labels.push_back(TextTable::num(bw));
            a.tweaks.push_back([bw](core::MesaParams &p) {
                p.accel.dram_accesses_per_cycle = bw;
            });
        }
        axes.push_back(std::move(a));
    }
    {
        Axis a;
        a.title = "sensitivity: profiling epoch length (total "
                  "cycles, iterative optimization on)";
        a.key = "epoch";
        a.kernels = {fp_kernel};
        for (uint64_t epoch : {32u, 64u, 128u, 256u, 1024u}) {
            a.labels.push_back(std::to_string(epoch));
            a.tweaks.push_back([epoch](core::MesaParams &p) {
                p.profile_epoch_iterations = epoch;
            });
        }
        axes.push_back(std::move(a));
    }
    {
        Axis a;
        a.title = "sensitivity: candidate window geometry "
                  "(32 entries each, total cycles)";
        a.key = "window";
        a.kernels = {fp_kernel};
        for (auto [r, c] : {std::pair{2, 16}, {4, 8}, {4, 4}, {8, 4},
                            {16, 2}}) {
            a.labels.push_back(std::to_string(r) + "x" +
                               std::to_string(c));
            a.tweaks.push_back([r, c](core::MesaParams &p) {
                p.mapper.cand_rows = r;
                p.mapper.cand_cols = c;
            });
        }
        axes.push_back(std::move(a));
    }

    // Flatten: one shard per (axis point, kernel) cell.
    struct Cell
    {
        size_t axis, point;
        const char *kernel;
        std::function<void(core::MesaParams &)> tweak;
    };
    std::vector<Cell> cells;
    for (size_t ai = 0; ai < axes.size(); ++ai)
        for (size_t pi = 0; pi < axes[ai].labels.size(); ++pi)
            for (const char *k : axes[ai].kernels)
                cells.push_back({ai, pi, k, axes[ai].tweaks[pi]});

    const auto results = parallelMapOrdered<uint64_t>(
        cells.size(), jobs, [&](size_t i) -> uint64_t {
            return totalCycles(cells[i].kernel, cells[i].tweak);
        });

    size_t cursor = 0;
    for (size_t ai = 0; ai < axes.size(); ++ai) {
        const Axis &a = axes[ai];
        TextTable t(a.title);
        std::vector<std::string> header{a.key};
        for (const char *k : a.kernels)
            header.push_back(k);
        t.header(header);
        for (size_t pi = 0; pi < a.labels.size(); ++pi) {
            std::vector<std::string> row{a.labels[pi]};
            for (size_t ki = 0; ki < a.kernels.size(); ++ki)
                row.push_back(std::to_string(results[cursor++]));
            t.row(row);
        }
        t.print(std::cout);
        if (ai + 1 < axes.size())
            std::cout << "\n";
    }
    return 0;
}
