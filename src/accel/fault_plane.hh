/**
 * @file
 * Hardware fault models for the spatial fabric. A FaultPlane is a
 * set of defects installed on an Accelerator independently of any
 * configuration: the device keeps executing the configured dataflow
 * but the faulty resources corrupt the values that pass through them.
 *
 * Models (mirroring the standard CGRA reliability taxonomy):
 *  - PeStuckFault: a permanent stuck-at defect in one PE's datapath —
 *    every result computed on that physical PE is XOR-corrupted.
 *  - LinkFault: a dead/shorted interconnect link — any operand
 *    forwarded across the (from -> to) physical hop is corrupted.
 *  - TransientFault: an upset on one slot at one iteration index —
 *    the index counts iterations (all tiles) within one run() call,
 *    so it is not single-event across runs: every run() that reaches
 *    the index flips the slot's result again. The controller calls
 *    run() once per profiling epoch, so an upset at an index below
 *    the epoch length fires once per epoch of the offload.
 *  - BranchStuckFault: a stuck control line on the loop's closing
 *    branch — from the given iteration on (the same run-local index),
 *    the branch always reads taken, so the loop can never exit (the
 *    induced-hang model the watchdog must cut off). Once engaged it
 *    stays engaged in later runs.
 *
 * All coordinates are physical grid positions; the device translates
 * virtual slot positions (time-multiplex folds, tile-instance
 * origins) to physical PEs before matching.
 */

#ifndef MESA_ACCEL_FAULT_PLANE_HH
#define MESA_ACCEL_FAULT_PLANE_HH

#include <cstdint>
#include <vector>

#include "interconnect/interconnect.hh"

namespace mesa::accel
{

/** Permanent stuck-at defect in one PE's result latch. */
struct PeStuckFault
{
    ic::Coord pos;
    uint32_t xor_mask = 1;
};

/** Dead interconnect link between two physical PEs. */
struct LinkFault
{
    ic::Coord from;
    ic::Coord to;
    uint32_t xor_mask = 1;
};

/** Upset on one slot at one run-local iteration index; fires in every
 *  run() that reaches that index (see the file comment). */
struct TransientFault
{
    size_t slot = 0;         ///< Slot (node) index in the config.
    uint64_t iteration = 0;  ///< Iteration index within each run().
    uint32_t xor_mask = 1;
};

/** Stuck control line on the closing branch (induced hang). */
struct BranchStuckFault
{
    uint64_t from_iteration = 0;
};

/** The set of defects installed on a device. */
struct FaultPlane
{
    std::vector<PeStuckFault> stuck_pes;
    std::vector<LinkFault> dead_links;
    std::vector<TransientFault> transients;
    std::vector<BranchStuckFault> stuck_branches;

    bool
    empty() const
    {
        return stuck_pes.empty() && dead_links.empty() &&
               transients.empty() && stuck_branches.empty();
    }
};

} // namespace mesa::accel

#endif // MESA_ACCEL_FAULT_PLANE_HH
