#include "verify/verifier.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

namespace mesa::verify
{

using dfg::Ldfg;
using dfg::LdfgNode;
using dfg::NodeId;
using dfg::NoNode;
using dfg::Sdfg;
using riscv::OpClass;

namespace
{

/** Node latencies this many times above or below the static class
 *  default are noted (dfg.latency-skew): measured refresh drifts are
 *  expected, gross skew usually means a corrupted annotation. */
constexpr double LatencySkewFactor = 16.0;

/** Operand routes costing more than this many cycles on the active
 *  interconnect are flagged (map.long-route). */
constexpr uint32_t MaxEdgeLatency = 16;

/** Fallback-bus usage above this fraction of the graph is flagged
 *  (map.fallback-threshold). The controller's own abandon limit is
 *  MesaParams::max_unmapped_frac; the verifier warns earlier. */
constexpr double FallbackWarnFrac = 0.125;

std::string
nodeLoc(const Ldfg &ldfg, NodeId id)
{
    std::string loc = "node " + std::to_string(id);
    if (id >= 0 && size_t(id) < ldfg.size())
        loc += " (" + ldfg.node(id).inst.toString() + ")";
    return loc;
}

std::string
coordStr(ic::Coord pos)
{
    return "(" + std::to_string(pos.r) + "," + std::to_string(pos.c) +
           ")";
}

/** Is @p guard a forward branch able to skip the node at @p pc? */
bool
validGuard(const Ldfg &ldfg, NodeId guard, NodeId node, uint32_t pc)
{
    if (guard < 0 || guard >= node)
        return false;
    const riscv::Instruction &b = ldfg.node(guard).inst;
    return b.isBranch() && b.imm > 0 && b.targetPc() > pc;
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        // --- Pass 1: DFG well-formedness ---
        {"dfg.node-id", Severity::Error, "dfg",
         "node id must equal its program-order index"},
        {"dfg.edge-order", Severity::Error, "dfg",
         "dataflow edges must reference earlier nodes (acyclic modulo "
         "the loop-carried back-edge)"},
        {"dfg.rename", Severity::Error, "dfg",
         "operand wiring must match a rename-table replay of the body "
         "(single producer per edge)"},
        {"dfg.guard-branch", Severity::Error, "dfg",
         "guard edges must come from earlier forward branches whose "
         "join is still ahead"},
        {"dfg.guard-set", Severity::Error, "dfg",
         "guard set must equal the active forward branches at the node"},
        {"dfg.consumer", Severity::Error, "dfg",
         "every edge must appear in its producer's consumer list"},
        {"dfg.back-branch", Severity::Error, "dfg",
         "the loop must close with a single backward branch as the "
         "final node"},
        {"dfg.live-set", Severity::Error, "dfg",
         "live-in/written/final-rename sets must match the replay"},
        {"dfg.latency", Severity::Error, "dfg",
         "node latency annotations must be positive and finite"},
        {"dfg.latency-skew", Severity::Note, "dfg",
         "node latency far from the static class default (possible "
         "corrupted annotation)"},

        // --- Pass 2: mapping legality ---
        {"map.grid-shape", Severity::Error, "map",
         "mapping grid must match the accelerator geometry (or a "
         "row-multiple virtual grid under time-multiplexing)"},
        {"map.out-of-bounds", Severity::Error, "map",
         "placement coordinate outside the mapping grid"},
        {"map.duplicate-pe", Severity::Error, "map",
         "at most one node per PE slot"},
        {"map.grid-mismatch", Severity::Error, "map",
         "placement table and occupancy grid disagree"},
        {"map.unplaced", Severity::Error, "map",
         "every node must be placed or listed unmapped"},
        {"map.unmapped-list", Severity::Error, "map",
         "unmapped list entries must be valid, unique, and unplaced"},
        {"map.op-support", Severity::Error, "map",
         "operation class must be supported by its PE (FP stripe)"},
        {"map.long-route", Severity::Warn, "map",
         "operand route latency exceeds the interconnect threshold"},
        {"map.fallback-threshold", Severity::Warn, "map",
         "fallback-bus usage exceeds the configured fraction"},

        // --- Pass 3: config round-trip ---
        {"cfg.grid-shape", Severity::Error, "cfg",
         "configured grid must be positive and fit the accelerator"},
        {"cfg.slot-count", Severity::Error, "cfg",
         "one PE slot per LDFG node"},
        {"cfg.slot-order", Severity::Error, "cfg",
         "slots must keep program order (slot i holds node i)"},
        {"cfg.inst-mismatch", Severity::Error, "cfg",
         "slot instruction must equal the source LDFG node's"},
        {"cfg.src-dangling", Severity::Error, "cfg",
         "operand/forward references must name earlier valid nodes"},
        {"cfg.edge-mismatch", Severity::Error, "cfg",
         "operand and live-in wiring must round-trip the LDFG edges"},
        {"cfg.guard-ref", Severity::Error, "cfg",
         "guard references must name earlier forward branches"},
        {"cfg.guard-mismatch", Severity::Error, "cfg",
         "slot guard set must equal the LDFG node's"},
        {"cfg.live-ins", Severity::Error, "cfg",
         "latched live-in set must equal the LDFG live-ins"},
        {"cfg.live-outs", Severity::Error, "cfg",
         "live-out writers must match the final rename state"},
        {"cfg.forward-ref", Severity::Error, "cfg",
         "store->load forwarding must pair a load with an earlier "
         "store"},
        {"cfg.vector-group", Severity::Error, "cfg",
         "vector groups must be loads with exactly one leader"},
        {"cfg.prefetch", Severity::Warn, "cfg",
         "prefetch annotation with a zero stride is inert"},
        {"cfg.slot-bounds", Severity::Error, "cfg",
         "slot position must lie within the configured grid"},
        {"cfg.pe-overcommit", Severity::Error, "cfg",
         "at most time_multiplex slots may share one PE position"},
        {"cfg.tile-bounds", Severity::Error, "cfg",
         "tile instances must fit the physical grid"},
        {"cfg.tile-overlap", Severity::Error, "cfg",
         "tile instance footprints must be disjoint"},
        {"cfg.tile-regs", Severity::Warn, "cfg",
         "instance register offsets should target latched live-ins"},
        {"cfg.induction-ref", Severity::Error, "cfg",
         "induction records must name their in-body update node"},
        {"cfg.imm-override-ref", Severity::Error, "cfg",
         "immediate overrides must reference valid nodes"},
        {"cfg.region", Severity::Warn, "cfg",
         "region pc range must be ordered and contain resume_pc"},

        // --- Abstract-interpretation certificates (src/absint) ---
        {"AI101", Severity::Error, "absint",
         "load/store proven to access memory outside the offload's "
         "region"},
        {"AI102", Severity::Warn, "absint",
         "memory footprint unknown (data-dependent or unbounded "
         "address)"},
        {"AI103", Severity::Note, "absint",
         "memory-footprint certificate summary (proven byte bounds)"},
        {"AI104", Severity::Warn, "absint",
         "trip count unprovable; watchdog falls back to the global "
         "budget"},
        {"AI105", Severity::Note, "absint",
         "trip-count certificate summary (proven max iterations)"},
        {"AI106", Severity::Error, "absint",
         "abstract-interpretation fixpoint failed to converge"},
    };
    return catalog;
}

std::vector<std::string>
expandRulePatterns(const std::string &spec,
                   std::vector<std::string> *unknown)
{
    std::vector<std::string> patterns;
    std::string cur;
    for (const char c : spec + ",") {
        if (c == ',') {
            if (!cur.empty())
                patterns.push_back(cur);
            cur.clear();
        } else if (c != ' ') {
            cur += c;
        }
    }

    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const auto &pat : patterns) {
        const bool glob = !pat.empty() && pat.back() == '*';
        const std::string prefix =
            glob ? pat.substr(0, pat.size() - 1) : pat;
        bool matched = false;
        for (const auto &rule : ruleCatalog()) {
            const std::string id = rule.id;
            const bool hit =
                glob ? id.compare(0, prefix.size(), prefix) == 0
                     : id == pat;
            if (!hit)
                continue;
            matched = true;
            if (seen.insert(id).second)
                out.push_back(id);
        }
        if (!matched && unknown)
            unknown->push_back(pat);
    }
    // Catalog order, not pattern order.
    std::sort(out.begin(), out.end(),
              [](const std::string &a, const std::string &b) {
                  auto pos = [](const std::string &id) {
                      const auto &cat = ruleCatalog();
                      for (size_t i = 0; i < cat.size(); ++i)
                          if (id == cat[i].id)
                              return i;
                      return cat.size();
                  };
                  return pos(a) < pos(b);
              });
    return out;
}

// ---------------------------------------------------------------------
// Pass 1: DFG well-formedness
// ---------------------------------------------------------------------

Report
verifyLdfg(const Ldfg &ldfg, const dfg::OpLatencyConfig &lat_cfg)
{
    Report report;
    const size_t n = ldfg.size();
    if (n == 0) {
        report.error("dfg.back-branch", "graph", "LDFG is empty");
        return report;
    }

    dfg::RenameTable rename;
    std::set<int> live_ins;
    std::set<int> written;
    std::vector<std::pair<NodeId, uint32_t>> guard_stack;

    for (size_t i = 0; i < n; ++i) {
        const LdfgNode &node = ldfg.node(NodeId(i));
        const std::string loc = nodeLoc(ldfg, NodeId(i));
        const bool is_last = i + 1 == n;

        if (node.id != NodeId(i)) {
            report.error("dfg.node-id", loc,
                         "node id " + std::to_string(node.id) +
                             " != program-order index " +
                             std::to_string(i));
        }

        if (is_last != node.inst.isBackwardBranch()) {
            report.error("dfg.back-branch", loc,
                         is_last
                             ? "final node is not a backward branch"
                             : "backward branch before the body end");
        }

        // Latency annotations.
        if (!std::isfinite(node.op_latency) || node.op_latency <= 0.0) {
            report.error("dfg.latency", loc,
                         "op latency " +
                             std::to_string(node.op_latency) +
                             " must be positive and finite");
        } else {
            const double def = lat_cfg.cycles(node.inst.cls());
            if (def > 0.0 &&
                (node.op_latency > def * LatencySkewFactor ||
                 node.op_latency * LatencySkewFactor < def)) {
                report.note("dfg.latency-skew", loc,
                            "op latency " +
                                std::to_string(node.op_latency) +
                                " skewed vs class default " +
                                std::to_string(def));
            }
        }

        // Retire guards whose join point has been reached, then
        // compare the expected active set against the node's.
        while (!guard_stack.empty() &&
               guard_stack.back().second <= node.inst.pc) {
            guard_stack.pop_back();
        }
        std::vector<NodeId> expected_guards;
        for (const auto &[branch, resolve_pc] : guard_stack) {
            (void)resolve_pc;
            expected_guards.push_back(branch);
        }
        if (node.guards != expected_guards) {
            report.error("dfg.guard-set", loc,
                         "guard set does not match the active forward "
                         "branches (" +
                             std::to_string(node.guards.size()) +
                             " vs expected " +
                             std::to_string(expected_guards.size()) +
                             ")");
        }
        for (NodeId g : node.guards) {
            if (!validGuard(ldfg, g, NodeId(i), node.inst.pc)) {
                report.error("dfg.guard-branch", loc,
                             "guard " + std::to_string(g) +
                                 " is not an earlier forward branch "
                                 "covering this node");
                continue;
            }
            const auto &cons = ldfg.node(g).consumers;
            if (std::find(cons.begin(), cons.end(), NodeId(i)) ==
                cons.end()) {
                report.error("dfg.consumer", loc,
                             "guard edge from node " +
                                 std::to_string(g) +
                                 " missing from its consumer list");
            }
        }

        // Operand edges against the rename replay.
        for (int operand = 0; operand < 2; ++operand) {
            const NodeId src =
                operand == 0 ? node.src1 : node.src2;
            const int live =
                operand == 0 ? node.live_in1 : node.live_in2;
            const std::string op_name =
                "src" + std::to_string(operand + 1);

            if (src != NoNode && (src < 0 || src >= NodeId(i))) {
                report.error("dfg.edge-order", loc,
                             op_name + " edge from node " +
                                 std::to_string(src) +
                                 " does not reference an earlier node");
                continue;
            }

            const int reg = node.inst.unifiedSrc(operand);
            const NodeId expected =
                reg < 0 ? NoNode : rename.lookup(reg);
            const int expected_live =
                (reg >= 0 && expected == NoNode) ? reg : -1;
            if (src != expected || live != expected_live) {
                report.error(
                    "dfg.rename", loc,
                    op_name + " wiring (producer " +
                        std::to_string(src) + ", live-in " +
                        std::to_string(live) +
                        ") disagrees with the rename replay "
                        "(producer " +
                        std::to_string(expected) + ", live-in " +
                        std::to_string(expected_live) + ")");
            } else if (reg >= 0 && expected == NoNode) {
                live_ins.insert(reg);
            }
            if (src != NoNode && src == expected) {
                const auto &cons = ldfg.node(src).consumers;
                if (std::find(cons.begin(), cons.end(), NodeId(i)) ==
                    cons.end()) {
                    report.error("dfg.consumer", loc,
                                 op_name + " edge from node " +
                                     std::to_string(src) +
                                     " missing from its consumer "
                                     "list");
                }
            }
        }

        // Predication hidden dependency + destination rename.
        const int dest = node.inst.unifiedDest();
        if (dest >= 0) {
            const NodeId prev = rename.lookup(dest);
            const bool guarded = !node.guards.empty();
            if (node.prev_dest_writer != prev) {
                report.error("dfg.rename", loc,
                             "prev-dest writer " +
                                 std::to_string(node.prev_dest_writer) +
                                 " disagrees with the rename replay (" +
                                 std::to_string(prev) + ")");
            } else if (prev != NoNode && guarded) {
                const auto &cons = ldfg.node(prev).consumers;
                if (std::find(cons.begin(), cons.end(), NodeId(i)) ==
                    cons.end()) {
                    report.error("dfg.consumer", loc,
                                 "hidden predication edge from node " +
                                     std::to_string(prev) +
                                     " missing from its consumer "
                                     "list");
                }
            }
            if (prev == NoNode && guarded) {
                if (node.prev_dest_live_in != dest) {
                    report.error("dfg.rename", loc,
                                 "guarded first write must carry its "
                                 "destination as prev-dest live-in");
                }
                live_ins.insert(dest);
            }
            rename.update(dest, NodeId(i));
            written.insert(dest);
        }

        if (node.inst.isBranch() && node.inst.imm > 0)
            guard_stack.emplace_back(NodeId(i), node.inst.targetPc());
    }

    // Whole-graph set consistency against the replay.
    if (ldfg.liveIns() != live_ins) {
        report.error("dfg.live-set", "graph",
                     "live-in set (" +
                         std::to_string(ldfg.liveIns().size()) +
                         " regs) disagrees with the replay (" +
                         std::to_string(live_ins.size()) + " regs)");
    }
    if (ldfg.writtenRegs() != written) {
        report.error("dfg.live-set", "graph",
                     "written-register set disagrees with the replay");
    }
    for (int reg : written) {
        if (ldfg.finalRename().lookup(reg) != rename.lookup(reg)) {
            report.error("dfg.live-set", "reg " + std::to_string(reg),
                         "final rename entry disagrees with the "
                         "replay");
        }
    }
    return report;
}

// ---------------------------------------------------------------------
// Pass 2: mapping legality
// ---------------------------------------------------------------------

Report
verifyMapping(const Ldfg &ldfg, const Sdfg &sdfg,
              const std::vector<NodeId> &unmapped,
              const accel::AccelParams &accel,
              const ic::Interconnect &ic)
{
    Report report;
    const size_t n = ldfg.size();

    // Grid geometry: either the physical grid or a virtual grid whose
    // rows fold onto it (time-multiplexing).
    bool shape_ok = sdfg.rows() > 0 && sdfg.cols() == accel.cols &&
                    accel.rows > 0 && sdfg.rows() % accel.rows == 0;
    if (!shape_ok) {
        report.error("map.grid-shape", "grid",
                     "mapping grid " + std::to_string(sdfg.rows()) +
                         "x" + std::to_string(sdfg.cols()) +
                         " does not fold onto accelerator " +
                         std::to_string(accel.rows) + "x" +
                         std::to_string(accel.cols));
    }

    std::set<NodeId> unmapped_set;
    for (NodeId id : unmapped) {
        const std::string loc = nodeLoc(ldfg, id);
        if (id < 0 || size_t(id) >= n) {
            report.error("map.unmapped-list", loc,
                         "unmapped entry is not a valid node id");
            continue;
        }
        if (!unmapped_set.insert(id).second) {
            report.error("map.unmapped-list", loc,
                         "node listed unmapped more than once");
            continue;
        }
        if (sdfg.coordOf(id).valid()) {
            report.error("map.unmapped-list", loc,
                         "node is both placed and listed unmapped");
        }
    }

    // Placement table -> occupancy, duplicates, bounds, op support.
    std::map<std::pair<int, int>, std::vector<NodeId>> by_coord;
    for (size_t i = 0; i < n; ++i) {
        const NodeId id = NodeId(i);
        const ic::Coord pos = sdfg.coordOf(id);
        const std::string loc = nodeLoc(ldfg, id);
        if (!pos.valid()) {
            if (!unmapped_set.count(id)) {
                report.error("map.unplaced", loc,
                             "node neither placed nor listed "
                             "unmapped");
            }
            continue;
        }
        if (!sdfg.inRange(pos)) {
            report.error("map.out-of-bounds", loc,
                         "placed at " + coordStr(pos) +
                             " outside the " +
                             std::to_string(sdfg.rows()) + "x" +
                             std::to_string(sdfg.cols()) + " grid");
            continue;
        }
        by_coord[{pos.r, pos.c}].push_back(id);
        if (shape_ok) {
            const ic::Coord phys{pos.r % accel.rows, pos.c};
            if (!accel.supportsOp(phys, ldfg.node(id).inst.cls())) {
                report.error("map.op-support", loc,
                             "PE " + coordStr(phys) +
                                 " does not support operation class "
                                 "of this node");
            }
        }
    }
    for (const auto &[rc, ids] : by_coord) {
        const ic::Coord pos{rc.first, rc.second};
        if (ids.size() > 1) {
            for (size_t k = 1; k < ids.size(); ++k) {
                report.error("map.duplicate-pe",
                             nodeLoc(ldfg, ids[k]),
                             "PE " + coordStr(pos) +
                                 " already holds node " +
                                 std::to_string(ids[0]));
            }
            continue;
        }
        if (sdfg.at(pos) != ids[0]) {
            report.error("map.grid-mismatch", nodeLoc(ldfg, ids[0]),
                         "occupancy grid at " + coordStr(pos) +
                             " holds node " +
                             std::to_string(sdfg.at(pos)) +
                             " instead");
        }
    }

    // Operand routes on the active interconnect.
    for (size_t i = 0; i < n; ++i) {
        const NodeId id = NodeId(i);
        const ic::Coord to = sdfg.coordOf(id);
        if (!to.valid() || !sdfg.inRange(to))
            continue;
        const LdfgNode &node = ldfg.node(id);
        for (NodeId src : {node.src1, node.src2}) {
            if (src == NoNode || src < 0 || size_t(src) >= n)
                continue;
            const ic::Coord from = sdfg.coordOf(src);
            if (!from.valid() || !sdfg.inRange(from))
                continue; // fallback-bus edge
            const uint32_t lat = ic.latency(from, to);
            if (lat > MaxEdgeLatency) {
                report.warn("map.long-route", nodeLoc(ldfg, id),
                            "route " + coordStr(from) + " -> " +
                                coordStr(to) + " costs " +
                                std::to_string(lat) +
                                " cycles (threshold " +
                                std::to_string(MaxEdgeLatency) +
                                ")");
            }
        }
    }

    if (n > 0 && !unmapped.empty() &&
        double(unmapped.size()) / double(n) > FallbackWarnFrac) {
        report.warn("map.fallback-threshold", "graph",
                    std::to_string(unmapped.size()) + "/" +
                        std::to_string(n) +
                        " nodes on the fallback bus (threshold " +
                        std::to_string(FallbackWarnFrac) + ")");
    }
    return report;
}

// ---------------------------------------------------------------------
// Pass 3: config round-trip
// ---------------------------------------------------------------------

Report
verifyConfig(const Ldfg &ldfg, const accel::AcceleratorConfig &config,
             const accel::AccelParams &accel)
{
    Report report;
    const size_t n = ldfg.size();
    const int tm = std::max(1, config.time_multiplex);

    if (config.rows <= 0 || config.cols <= 0 ||
        config.rows > accel.rows || config.cols > accel.cols) {
        report.error("cfg.grid-shape", "grid",
                     "configured grid " + std::to_string(config.rows) +
                         "x" + std::to_string(config.cols) +
                         " does not fit accelerator " +
                         std::to_string(accel.rows) + "x" +
                         std::to_string(accel.cols));
    }
    if (config.region_end <= config.region_start) {
        report.warn("cfg.region", "region",
                    "region pc range is empty or inverted");
    } else if (config.resume_pc != 0 &&
               (config.resume_pc < config.region_start ||
                config.resume_pc >= config.region_end)) {
        report.warn("cfg.region", "region",
                    "resume pc outside the region pc range");
    }

    if (config.slots.size() != n) {
        report.error("cfg.slot-count", "config",
                     std::to_string(config.slots.size()) +
                         " slots for " + std::to_string(n) +
                         " LDFG nodes");
    }

    const size_t m = std::min(config.slots.size(), n);
    std::map<std::pair<int, int>, int> pos_count;
    std::map<int, std::pair<int, int>> group_stats; // id -> (members, leaders)

    for (size_t i = 0; i < m; ++i) {
        const accel::PeSlot &slot = config.slots[i];
        const LdfgNode &node = ldfg.node(NodeId(i));
        const std::string loc = nodeLoc(ldfg, NodeId(i));

        if (slot.node != NodeId(i)) {
            report.error("cfg.slot-order", loc,
                         "slot " + std::to_string(i) +
                             " holds node " +
                             std::to_string(slot.node));
        }
        if (slot.inst.pc != node.inst.pc ||
            slot.inst.op != node.inst.op) {
            report.error("cfg.inst-mismatch", loc,
                         "slot instruction " + slot.inst.toString() +
                             " differs from the LDFG node's");
        }

        // Operand wiring round-trip.
        bool src_ok = true;
        for (NodeId src : {slot.src1, slot.src2,
                           slot.prev_dest_writer}) {
            if (src != NoNode && (src < 0 || src >= NodeId(i))) {
                report.error("cfg.src-dangling", loc,
                             "operand reference to node " +
                                 std::to_string(src) +
                                 " is dangling or not backward");
                src_ok = false;
            }
        }
        if (src_ok &&
            (slot.src1 != node.src1 || slot.src2 != node.src2 ||
             slot.live_in1 != node.live_in1 ||
             slot.live_in2 != node.live_in2 ||
             slot.prev_dest_writer != node.prev_dest_writer ||
             slot.prev_dest_live_in != node.prev_dest_live_in)) {
            report.error("cfg.edge-mismatch", loc,
                         "operand/live-in wiring does not round-trip "
                         "the LDFG edges");
        }

        // Guard wiring.
        bool guards_ok = true;
        for (NodeId g : slot.guards) {
            if (!validGuard(ldfg, g, NodeId(i), node.inst.pc)) {
                report.error("cfg.guard-ref", loc,
                             "guard reference " + std::to_string(g) +
                                 " is not an earlier forward branch");
                guards_ok = false;
            }
        }
        if (guards_ok) {
            std::vector<NodeId> a = slot.guards;
            std::vector<NodeId> b = node.guards;
            std::sort(a.begin(), a.end());
            std::sort(b.begin(), b.end());
            if (a != b) {
                report.error("cfg.guard-mismatch", loc,
                             "slot guard set differs from the LDFG "
                             "node's");
            }
        }

        // Position within the configured (folded) grid.
        if (slot.pos.valid()) {
            if (slot.pos.r >= config.rows ||
                slot.pos.c >= config.cols) {
                report.error("cfg.slot-bounds", loc,
                             "slot position " + coordStr(slot.pos) +
                                 " outside the configured " +
                                 std::to_string(config.rows) + "x" +
                                 std::to_string(config.cols) +
                                 " grid");
            } else {
                ++pos_count[{slot.pos.r, slot.pos.c}];
            }
        }

        // Memory-optimization annotations.
        if (slot.forward_from_store != NoNode) {
            const NodeId f = slot.forward_from_store;
            if (f < 0 || f >= NodeId(i) ||
                !ldfg.node(f).inst.isStore() || !node.inst.isLoad()) {
                report.error("cfg.forward-ref", loc,
                             "store-forward annotation does not pair "
                             "this load with an earlier store");
            }
        }
        if (slot.vector_group >= 0) {
            if (!node.inst.isLoad()) {
                report.error("cfg.vector-group", loc,
                             "vector-group member is not a load");
            }
            auto &[members, leaders] = group_stats[slot.vector_group];
            ++members;
            if (slot.vector_leader)
                ++leaders;
        }
        if (slot.prefetch && slot.prefetch_stride == 0) {
            report.warn("cfg.prefetch", loc,
                        "prefetch annotation with zero stride");
        }
    }

    for (const auto &[rc, count] : pos_count) {
        if (count > tm) {
            report.error("cfg.pe-overcommit",
                         "pe (" + std::to_string(rc.first) + "," +
                             std::to_string(rc.second) + ")",
                         std::to_string(count) +
                             " slots share one PE (time-multiplex "
                             "limit " +
                             std::to_string(tm) + ")");
        }
    }
    for (const auto &[gid, stats] : group_stats) {
        if (stats.second != 1) {
            report.error("cfg.vector-group",
                         "group " + std::to_string(gid),
                         std::to_string(stats.first) +
                             " members with " +
                             std::to_string(stats.second) +
                             " leaders (need exactly one)");
        }
    }

    // Live-in latch set.
    if (config.live_ins != ldfg.liveIns()) {
        report.error("cfg.live-ins", "config",
                     "latched live-in set (" +
                         std::to_string(config.live_ins.size()) +
                         " regs) differs from the LDFG's (" +
                         std::to_string(ldfg.liveIns().size()) +
                         " regs)");
    }

    // Live-out writers against the final rename state.
    for (int reg : ldfg.writtenRegs()) {
        const NodeId writer = ldfg.finalRename().lookup(reg);
        if (writer == NoNode)
            continue;
        auto it = config.live_outs.find(reg);
        if (it == config.live_outs.end() || it->second != writer) {
            report.error("cfg.live-outs",
                         "reg " + std::to_string(reg),
                         "live-out writer differs from the final "
                         "rename state (expected node " +
                             std::to_string(writer) + ")");
        }
    }
    for (const auto &[reg, writer] : config.live_outs) {
        if (!ldfg.writtenRegs().count(reg)) {
            report.error("cfg.live-outs",
                         "reg " + std::to_string(reg),
                         "live-out for a register the body never "
                         "writes (claimed node " +
                             std::to_string(writer) + ")");
        }
    }

    // Induction records and immediate overrides.
    for (const auto &ind : config.inductions) {
        const std::string loc = "reg " + std::to_string(ind.unified_reg);
        if (ind.update_node < 0 || size_t(ind.update_node) >= n ||
            ldfg.node(ind.update_node).inst.unifiedDest() !=
                ind.unified_reg) {
            report.error("cfg.induction-ref", loc,
                         "induction update node " +
                             std::to_string(ind.update_node) +
                             " does not write this register");
        }
    }
    for (const auto &[id, imm] : config.imm_overrides) {
        (void)imm;
        if (id < 0 || size_t(id) >= n) {
            report.error("cfg.imm-override-ref",
                         "node " + std::to_string(id),
                         "immediate override references an invalid "
                         "node");
        }
    }

    // Tile instances: structurally identical by construction (shared
    // slots), so check footprint bounds and pairwise disjointness on
    // the physical grid.
    if (config.instances.empty()) {
        report.error("cfg.tile-bounds", "config",
                     "configuration carries no tile instance");
        return report;
    }
    int bb_r = 0, bb_c = 0;
    for (size_t i = 0; i < m; ++i) {
        const ic::Coord pos = config.slots[i].pos;
        if (pos.valid() && pos.r < config.rows && pos.c < config.cols) {
            bb_r = std::max(bb_r, pos.r + 1);
            bb_c = std::max(bb_c, pos.c + 1);
        }
    }
    for (size_t k = 0; k < config.instances.size(); ++k) {
        const accel::TileInstance &inst = config.instances[k];
        const std::string loc = "instance " + std::to_string(k);
        if (inst.origin.r < 0 || inst.origin.c < 0 ||
            (bb_r > 0 && (inst.origin.r + bb_r > accel.rows ||
                          inst.origin.c + bb_c > accel.cols))) {
            report.error("cfg.tile-bounds", loc,
                         "origin " + coordStr(inst.origin) +
                             " with footprint " + std::to_string(bb_r) +
                             "x" + std::to_string(bb_c) +
                             " exceeds the " +
                             std::to_string(accel.rows) + "x" +
                             std::to_string(accel.cols) + " grid");
        }
        for (const auto &[reg, offset] : inst.reg_offsets) {
            (void)offset;
            if (!config.live_ins.count(reg)) {
                report.warn("cfg.tile-regs", loc,
                            "register offset targets reg " +
                                std::to_string(reg) +
                                " which is not a latched live-in");
            }
        }
        for (size_t j = 0; j < k; ++j) {
            const accel::TileInstance &other = config.instances[j];
            const bool overlap =
                bb_r > 0 &&
                inst.origin.r < other.origin.r + bb_r &&
                other.origin.r < inst.origin.r + bb_r &&
                inst.origin.c < other.origin.c + bb_c &&
                other.origin.c < inst.origin.c + bb_c;
            if (overlap) {
                report.error("cfg.tile-overlap", loc,
                             "footprint overlaps instance " +
                                 std::to_string(j) + " at " +
                                 coordStr(other.origin));
            }
        }
    }
    return report;
}

Report
verifyPipeline(const Ldfg &ldfg, const Sdfg &sdfg,
               const std::vector<NodeId> &unmapped,
               const accel::AcceleratorConfig &config,
               const accel::AccelParams &accel,
               const ic::Interconnect &ic)
{
    Report report = verifyLdfg(ldfg, accel.op_latency);
    report.merge(verifyMapping(ldfg, sdfg, unmapped, accel, ic));
    report.merge(verifyConfig(ldfg, config, accel));
    return report;
}

} // namespace mesa::verify
