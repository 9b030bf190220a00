#include "migrate/migrate.hh"

#include <algorithm>

#include "mesa/config_builder.hh"
#include "riscv/isa.hh"

namespace mesa::migrate
{

using riscv::Instruction;

bool
configFits(const accel::AcceleratorConfig &config,
           const accel::AccelParams &target,
           const std::vector<ic::Coord> &blocked)
{
    if (config.slots.empty())
        return false;
    if (config.cols != target.cols)
        return false;
    // The placement's virtual grid must unfold onto exactly the
    // target's physical rows; equal-height bands then execute the
    // band-local coordinates identically.
    if (config.rows != target.rows * std::max(1, config.time_multiplex))
        return false;
    // Any retired PE on the target voids verbatim reuse: the stored
    // placement cannot be proven to avoid it across tile instances
    // and folds, so the planner re-translates instead.
    return blocked.empty();
}

std::optional<MigrationPlan>
planMigration(const std::vector<Instruction> &body,
              const accel::AcceleratorConfig &source,
              const accel::AccelParams &target,
              const core::TranslatePolicy &policy)
{
    MigrationPlan plan;
    const core::ConfigBlock block(target);
    if (configFits(source, target, policy.blocked)) {
        // Warm path: the running bitstream itself fits the target.
        plan.config = source;
        plan.warm = true;
    } else {
        const ic::AccelNocInterconnect noc(target.rows, target.cols,
                                           target.noc_slice_width);
        auto tr = core::translate(body, target, noc, policy);
        if (!tr)
            return std::nullopt;
        // Unlike a first-contact offload, a migrated region has
        // already been profiled: commit to the grid's ceiling instead
        // of creeping up from half.
        tr->options.tile_factor = tr->max_tiles;
        plan.config =
            tr->lower(block, body.front().pc, body.back().pc + 4);
        plan.cost.encode_cycles = tr->encode_cycles;
        plan.cost.mapping_cycles = tr->map.mapping_cycles;
    }
    plan.time_multiplex = plan.config.time_multiplex;
    plan.cost.checkpoint_cycles = riscv::NumUnifiedRegs;
    plan.cost.config_cycles = block.configCycles(plan.config);
    return plan;
}

} // namespace mesa::migrate
