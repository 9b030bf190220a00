/**
 * @file
 * Live offload migration for the virtualized fabric (following
 * Mestra's checkpoint/remap/resume flow on virtualized CGRAs): a
 * running offload is checkpointed at a round boundary, its
 * configuration is re-instantiated on a different sub-array — reusing
 * the source bitstream when the target geometry matches, otherwise
 * re-translating through core::translate() (with virtual-row folding
 * and blocked-PE avoidance) — and execution resumes bit-exactly.
 *
 * The round boundary is what makes this sound: Accelerator::run()
 * latches live-ins from the architectural state at entry and writes
 * live-outs back when it returns, so N iterations on fabric A
 * followed by M iterations on fabric B from the written-back state is
 * the same computation as N+M iterations on either fabric alone.
 * Memory is shared (the fabrics address the same MainMemory), so the
 * checkpoint hand-off carries only architectural state.
 *
 * planMigration() is the one planner: the elastic scheduler
 * (sched::MultiTenantScheduler) grows a solo tenant onto a merged row
 * band through it, and the caller then configures the target and
 * resumes with Accelerator::run().
 */

#ifndef MESA_MIGRATE_MIGRATE_HH
#define MESA_MIGRATE_MIGRATE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "accel/config_types.hh"
#include "accel/params.hh"
#include "interconnect/interconnect.hh"
#include "mesa/translate.hh"

namespace mesa::migrate
{

/** Body CRC: the same tag the controller keys its config cache by. */
using core::bodyCrc;

/** Cycle decomposition of one migration. */
struct MigrationCost
{
    /** Architectural-state hand-off (register file drain/refill). */
    uint64_t checkpoint_cycles = 0;
    /** LDFG rebuild on re-translation (0 on a warm move). */
    uint64_t encode_cycles = 0;
    /** imap FSM time on re-translation (0 on a warm move). */
    uint64_t mapping_cycles = 0;
    /** Bitstream streaming into the target (always paid). */
    uint64_t config_cycles = 0;

    uint64_t
    total() const
    {
        return checkpoint_cycles + encode_cycles + mapping_cycles +
               config_cycles;
    }
};

/** How a body lands on the target sub-array. */
struct MigrationPlan
{
    accel::AcceleratorConfig config;

    /** The source bitstream was reused verbatim (geometry matched and
     *  no blocked PE intersects it); false = re-translated. */
    bool warm = false;

    /** Virtual-fold factor of the target placement. */
    int time_multiplex = 1;

    MigrationCost cost;
};

/**
 * Can @p config run unchanged on a @p target sub-array? True when the
 * virtual grid it was placed on is exactly the target's (same columns,
 * same physical rows after unfolding time_multiplex) and no blocked
 * PE exists. Sub-array coordinates are band-local, so a config moves
 * between equal-height bands without rewriting any slot position.
 */
bool configFits(const accel::AcceleratorConfig &config,
                const accel::AccelParams &target,
                const std::vector<ic::Coord> &blocked);

/**
 * Plan a migration of a running offload (currently configured as
 * @p source) onto @p target: the single planner behind every live
 * move. Warm path: the source config fits the target geometry (no
 * PE in @p policy.blocked), so only the bitstream write is paid.
 * Cold path: re-translate with core::translate() onto the target
 * under the caller's @p policy (fold limit, blocked PEs, lowering
 * options). A migrated region has already been profiled, so a
 * tileable one commits to the grid's full tile ceiling.
 *
 * Call at a round boundary only: the resumed Accelerator::run()
 * latches live-ins from the state the source run wrote back.
 *
 * @return nullopt when the body cannot be encoded or placed within
 *         the policy's unmapped tolerance
 */
std::optional<MigrationPlan>
planMigration(const std::vector<riscv::Instruction> &body,
              const accel::AcceleratorConfig &source,
              const accel::AccelParams &target,
              const core::TranslatePolicy &policy);

} // namespace mesa::migrate

#endif // MESA_MIGRATE_MIGRATE_HH
