#include "mesa/translate.hh"

#include <algorithm>

#include "dfg/analysis.hh"
#include "interconnect/folded.hh"
#include "util/crc32.hh"
#include "verify/verifier.hh"

namespace mesa::core
{

namespace
{

/** The body-level tiling gates (see translate()). */
bool
tilingIsSafe(const dfg::Ldfg &ldfg)
{
    // Stores with data-dependent addresses cannot be statically
    // disambiguated across tile instances (cross-instance aliasing
    // has no invalidation path). Within one instance the LS entries
    // speculate and invalidate (paper Fig. 5), so pipelining remains
    // safe.
    if (!dfg::findUnknownAddressStores(ldfg).empty())
        return false;
    // Register-carried recurrences (a live-in that the body rewrites
    // and that is not an affine induction, e.g. a running reduction)
    // are visible to MESA in its own rename table; such loops are
    // never tiled even when the OpenMP hint claims parallelism.
    const auto inductions = dfg::findInductionRegs(ldfg);
    for (int reg : ldfg.writtenRegs()) {
        if (!ldfg.liveIns().count(reg))
            continue;
        const bool is_induction = std::any_of(
            inductions.begin(), inductions.end(),
            [reg](const auto &ind) { return ind.unified_reg == reg; });
        if (!is_induction)
            return false;
    }
    return true;
}

} // namespace

uint32_t
bodyCrc(const std::vector<riscv::Instruction> &body)
{
    Crc32 crc;
    for (const riscv::Instruction &inst : body) {
        crc.add32(inst.pc);
        crc.add32(inst.raw);
    }
    return crc.value();
}

accel::AcceleratorConfig
Translation::lower(const ConfigBlock &block, uint32_t region_start,
                   uint32_t region_end) const
{
    accel::AcceleratorConfig config =
        block.build(ldfg, map.sdfg, options, region_start, region_end);
    config.model_latency = map.model_latency;
    return config;
}

std::optional<Translation>
translate(const std::vector<riscv::Instruction> &body,
          const accel::AccelParams &accel,
          const ic::Interconnect &interconnect,
          const TranslatePolicy &policy, TranslateFailure *failure,
          dfg::BuildError *build_error)
{
    auto fail = [&](TranslateFailure why) -> std::optional<Translation> {
        if (failure)
            *failure = why;
        return std::nullopt;
    };
    if (failure)
        *failure = TranslateFailure::None;
    if (build_error)
        *build_error = dfg::BuildError::None;

    const size_t capacity = accel.capacity();
    if (capacity == 0)
        return fail(TranslateFailure::FoldBudget);
    const int fold_limit = std::max(1, policy.fold_limit);

    dfg::BuildError err = dfg::BuildError::None;
    auto ldfg = dfg::Ldfg::build(body, accel.op_latency,
                                 capacity * size_t(fold_limit), &err);
    if (build_error)
        *build_error = err;
    if (!ldfg)
        return fail(err == dfg::BuildError::TooManyInstructions
                        ? TranslateFailure::FoldBudget
                        : TranslateFailure::Encode);

    Translation t;
    t.ldfg = std::move(*ldfg);
    t.encode_cycles = body.size();
    t.options = policy.options;
    const int tm = int((body.size() + capacity - 1) / capacity);
    t.options.time_multiplex = tm;

    // A folded body maps on a virtual grid of tm x rows; a blocked PE
    // vetoes every virtual row that folds onto it.
    auto place = [&](const accel::AccelParams &grid,
                     const ic::Interconnect &noc, int fold_rows) {
        InstructionMapper mapper(grid, noc, policy.mapper);
        mapper.setBlockedPes(policy.blocked, fold_rows);
        return mapper.map(t.ldfg);
    };
    if (tm > 1) {
        accel::AccelParams virt = accel;
        virt.rows *= tm;
        const ic::FoldedInterconnect folded(interconnect, accel.rows);
        t.map = place(virt, folded, accel.rows);
    } else {
        t.map = place(accel, interconnect, 0);
    }
    const double unmapped_frac =
        double(t.map.unmapped.size()) / double(t.ldfg.size());
    if (unmapped_frac > policy.max_unmapped_frac)
        return fail(TranslateFailure::Unmapped);

    // A degraded array runs untiled: tile instances execute at
    // translated physical origins the blocked set cannot see, so only
    // the base placement is guaranteed to avoid blocked PEs.
    if (tm == 1 && policy.allow_tiling && policy.blocked.empty() &&
        tilingIsSafe(t.ldfg))
        t.max_tiles = ConfigBlock::maxTileFactor(t.map.sdfg, accel);
    return t;
}

verify::Report
verifyTranslation(const Translation &translation,
                  const accel::AcceleratorConfig &config,
                  const accel::AccelParams &accel,
                  const ic::Interconnect &interconnect)
{
    const ic::FoldedInterconnect folded(interconnect, accel.rows);
    const ic::Interconnect &grid =
        translation.options.time_multiplex > 1 ? folded : interconnect;
    verify::Report report =
        verify::verifyMapping(translation.ldfg, translation.map.sdfg,
                              translation.map.unmapped, accel, grid);
    report.merge(verify::verifyConfig(translation.ldfg, config, accel));
    return report;
}

} // namespace mesa::core
