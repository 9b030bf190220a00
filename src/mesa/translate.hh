/**
 * @file
 * The translation path of the MESA controller (paper Fig. 7): T1
 * encodes a loop body as an LDFG, T2 places it on the grid, and the
 * tiling legality analysis bounds the loop-level optimization T3 may
 * apply. Every producer of a placement goes through translate(): the
 * controller's first contact and relocation, live migration, the
 * multi-tenant scheduler, and the static lint. Callers differ only in
 * the values they pass in a TranslatePolicy.
 */

#ifndef MESA_MESA_TRANSLATE_HH
#define MESA_MESA_TRANSLATE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "accel/config_types.hh"
#include "accel/params.hh"
#include "dfg/ldfg.hh"
#include "interconnect/interconnect.hh"
#include "mesa/config_builder.hh"
#include "mesa/mapper.hh"
#include "riscv/instruction.hh"
#include "verify/diagnostics.hh"

namespace mesa::core
{

/**
 * CRC over a body's pcs and instruction encodings: the config-cache
 * key guard. Two different programs loaded at the same base address
 * (routine on service backends, where every kernel assembles to the
 * same base) collide on the loop-head pc; the tag keeps a cached
 * config from being served for the wrong code.
 */
uint32_t bodyCrc(const std::vector<riscv::Instruction> &body);

/** Why translate() produced no placement. */
enum class TranslateFailure
{
    None = 0,
    Encode,     ///< The LDFG encoder refused the body.
    FoldBudget, ///< Body exceeds capacity x fold limit.
    Unmapped,   ///< More unplaced nodes than the policy tolerates.
};

/** What a caller asks of one translation. Plain values only. */
struct TranslatePolicy
{
    MapperParams mapper;

    /** Physical PEs no node may occupy (retired by the self test). */
    std::vector<ic::Coord> blocked;

    /** Most instructions that may share one PE: a body larger than
     *  the grid folds onto a virtual grid of up to this many times
     *  the physical rows (1 = purely spatial). */
    int fold_limit = 1;

    /** The loop may be tiled (parallel hint and tiling enabled). */
    bool allow_tiling = false;

    /** Largest unmapped-node fraction accepted (0 = all placed). */
    double max_unmapped_frac = 0.0;

    /** Options the lowered configuration starts from; translate()
     *  sets time_multiplex, the caller picks tile_factor. */
    ConfigOptions options;
};

/** One body translated onto one geometry (T1 + T2). */
struct Translation
{
    dfg::Ldfg ldfg;
    MapResult map;
    /** The policy's options with time_multiplex set to the fold. */
    ConfigOptions options;
    /** Encode time: the frontend renames one instruction per cycle. */
    uint64_t encode_cycles = 0;
    /** Largest legal tile factor (1 = the loop must not be tiled). */
    int max_tiles = 1;

    /** Lower to a configuration with the current options (T3). */
    accel::AcceleratorConfig lower(const ConfigBlock &block,
                                   uint32_t region_start,
                                   uint32_t region_end) const;
};

/**
 * Translate @p body onto the grid described by @p accel and
 * @p interconnect: encode the LDFG (at most capacity x fold limit
 * nodes), fold onto a virtual grid when the body exceeds the PE
 * count, map around the blocked PEs, refuse more unmapped nodes than
 * tolerated, and derive the tile ceiling.
 *
 * Tiling safety gates: max_tiles stays 1 unless the policy allows
 * tiling, the body is not folded, no PE is blocked, no store has a
 * data-dependent address, and every live-in the body rewrites is an
 * affine induction (no register-carried recurrence).
 *
 * @param failure set to the reason when nullopt is returned
 * @param build_error the encoder's verdict (TooManyInstructions for a
 *        fold-budget failure)
 */
std::optional<Translation>
translate(const std::vector<riscv::Instruction> &body,
          const accel::AccelParams &accel,
          const ic::Interconnect &interconnect,
          const TranslatePolicy &policy,
          TranslateFailure *failure = nullptr,
          dfg::BuildError *build_error = nullptr);

/**
 * Passes 2 and 3 of the static verifier (src/verify) over a
 * translation and its lowered @p config, on the grid the mapper used:
 * the physical array, or its virtual fold.
 */
verify::Report verifyTranslation(const Translation &translation,
                                 const accel::AcceleratorConfig &config,
                                 const accel::AccelParams &accel,
                                 const ic::Interconnect &interconnect);

} // namespace mesa::core

#endif // MESA_MESA_TRANSLATE_HH
