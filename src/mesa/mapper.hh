/**
 * @file
 * MESA's data-driven instruction mapping algorithm (paper §3.3,
 * Algorithm 1): converts the LDFG to an SDFG by greedily assigning
 * each instruction, in program order, to the candidate PE that
 * locally minimizes its expected latency under the weighted-DFG
 * performance model. Candidates come from a fixed-size window
 * positioned at the higher-latency predecessor, filtered by the free
 * matrix F_free and the per-operation compatibility mask F_op.
 */

#ifndef MESA_MESA_MAPPER_HH
#define MESA_MESA_MAPPER_HH

#include <vector>

#include "accel/params.hh"
#include "dfg/latency.hh"
#include "dfg/ldfg.hh"
#include "dfg/sdfg.hh"
#include "interconnect/interconnect.hh"
#include "mesa/imap_fsm.hh"

namespace mesa::core
{

/** Mapper tunables. */
struct MapperParams
{
    /** Fixed candidate-matrix dimensions (32 entries, as in the
     *  paper's 4x8 hardware window; oriented tall so placements
     *  pack into column bands that tile horizontally). */
    int cand_rows = 4;
    int cand_cols = 4;

    /** Secondary-bus latency charged to unmapped instructions. */
    double fallback_bus_latency = 8.0;
};

/** Result of mapping one LDFG. */
struct MapResult
{
    dfg::Sdfg sdfg;

    /** Instructions that could not be placed (fallback bus). */
    std::vector<dfg::NodeId> unmapped;

    /** Model-predicted completion cycle per node after placement. */
    std::vector<double> completion;

    /** Model-predicted latency of one iteration. */
    double model_latency = 0.0;

    /** imap FSM cycles consumed by the mapping pass (Fig. 8). */
    uint64_t mapping_cycles = 0;

    /** Per-instruction imap stage records (timeline tracing, Fig. 8). */
    std::vector<ImapTraceEntry> imap_trace;

    bool fullyMapped() const { return unmapped.empty(); }
};

/** The hardware instruction mapper. */
class InstructionMapper
{
  public:
    InstructionMapper(const accel::AccelParams &accel,
                      const ic::Interconnect &interconnect,
                      const MapperParams &params = {});

    /**
     * Map every LDFG instruction to a PE (T2 Optimize). Uses the
     * LDFG's node/edge weights, so a graph refreshed with measured
     * latencies yields a data-driven remap.
     */
    MapResult map(const dfg::Ldfg &ldfg) const;

    const MapperParams &params() const { return params_; }

    /**
     * Exclude physical PEs from the free matrix (persistent faulty-PE
     * map, src/fault): subsequent map() calls place no node on them.
     * @param fold_rows when mapping on a virtual (time-multiplexed)
     *        grid, the physical row count the virtual rows fold onto;
     *        a virtual position is blocked when its folded physical
     *        PE is. 0 = positions are physical already.
     */
    void setBlockedPes(const std::vector<ic::Coord> &pes,
                       int fold_rows = 0);
    const std::vector<ic::Coord> &blockedPes() const
    {
        return blocked_;
    }

  private:
    /** Is this (possibly virtual) position on a blocked PE? */
    bool blocked(ic::Coord pos) const;
    /** Window anchor: position of the higher-latency predecessor. */
    ic::Coord anchor(const dfg::Ldfg &ldfg, const dfg::Sdfg &sdfg,
                     dfg::NodeId id,
                     const std::vector<double> &completion,
                     ic::Coord cursor) const;

    const accel::AccelParams &accel_;
    const ic::Interconnect &ic_;
    MapperParams params_;
    std::vector<ic::Coord> blocked_;
    int fold_rows_ = 0;
};

} // namespace mesa::core

#endif // MESA_MESA_MAPPER_HH
