/**
 * @file
 * Static verifier over MESA's translation pipeline (T1-T3): proves
 * invariants over the three artifacts the hardware pipeline hands
 * from stage to stage. Pass 1 checks LDFG well-formedness against a
 * rename-table replay of the encoded body; pass 2 checks that a
 * placement is legal for the accelerator geometry and realizable on
 * the active interconnect; pass 3 decodes an AcceleratorConfig back
 * into a dataflow skeleton and checks edge-for-edge equivalence with
 * the source LDFG. Used offline by the mesa_lint CLI, online by the
 * controller's verify-before-offload gate, and directly by tests.
 *
 * The layer depends only on dfg/accel/interconnect types so both the
 * controller (mesa_core) and the scheduler (mesa_sched) can call it
 * without a library cycle.
 */

#ifndef MESA_VERIFY_VERIFIER_HH
#define MESA_VERIFY_VERIFIER_HH

#include <vector>

#include "accel/config_types.hh"
#include "accel/params.hh"
#include "dfg/ldfg.hh"
#include "dfg/sdfg.hh"
#include "interconnect/interconnect.hh"
#include "verify/diagnostics.hh"

namespace mesa::verify
{

/** One rule of the catalog (docs, mesa_lint --rules). */
struct RuleInfo
{
    const char *id;
    Severity severity;
    const char *pass;    ///< "dfg", "map", or "cfg".
    const char *summary;
};

/** Every rule the three passes can emit, in catalog order. */
const std::vector<RuleInfo> &ruleCatalog();

/**
 * Expand a comma-separated rule filter against the catalog. Each
 * element is either an exact rule id ("dfg.node-id", "AI101") or a
 * prefix glob with a trailing '*' ("AI*", "map.*", "M1*" -- the
 * prefix compares against the raw id text). Matching ids return in
 * catalog order, deduplicated. Elements matching no catalog rule are
 * appended to @p unknown; callers treat those as hard errors so typos
 * never silently filter everything out.
 */
std::vector<std::string>
expandRulePatterns(const std::string &spec,
                   std::vector<std::string> *unknown = nullptr);

/**
 * Pass 1 — DFG well-formedness: dataflow edges acyclic modulo the
 * loop-carried back-edge (every edge references an earlier node),
 * producer edges consistent with a rename-table replay of the body,
 * guard edges only from still-active forward branches, consumer lists
 * symmetric with the edges, latency annotations positive.
 */
Report verifyLdfg(const dfg::Ldfg &ldfg,
                  const dfg::OpLatencyConfig &lat_cfg = {});

/**
 * Pass 2 — mapping legality: every placement within the grid, at most
 * one node per PE slot, placement table and occupancy grid in
 * agreement, the unmapped list exactly the unplaced nodes, operation
 * classes supported by their PEs (FP stripe), operand routes
 * realizable on @p ic within the latency threshold, and fallback-bus
 * pressure under the warn threshold. @p sdfg may sit on a virtual
 * grid whose rows are a multiple of @p accel.rows (time-multiplexing
 * folds virtual rows onto physical ones).
 */
Report verifyMapping(const dfg::Ldfg &ldfg, const dfg::Sdfg &sdfg,
                     const std::vector<dfg::NodeId> &unmapped,
                     const accel::AccelParams &accel,
                     const ic::Interconnect &ic);

/**
 * Pass 3 — config round-trip: decode @p config back into a dataflow
 * skeleton and check edge-for-edge equivalence with @p ldfg (operand
 * and live-in wiring, guard sets, predication hidden deps), live-in/
 * live-out sets against the final rename state, memory-optimization
 * annotations referencing valid nodes, slot positions within the
 * configured grid with at most time_multiplex sharers, and tile
 * instances structurally identical and disjoint on the physical grid.
 */
Report verifyConfig(const dfg::Ldfg &ldfg,
                    const accel::AcceleratorConfig &config,
                    const accel::AccelParams &accel);

/** All applicable passes merged into one report. */
Report verifyPipeline(const dfg::Ldfg &ldfg, const dfg::Sdfg &sdfg,
                      const std::vector<dfg::NodeId> &unmapped,
                      const accel::AcceleratorConfig &config,
                      const accel::AccelParams &accel,
                      const ic::Interconnect &ic);

} // namespace mesa::verify

#endif // MESA_VERIFY_VERIFIER_HH
