#include "mesa/mapper.hh"

#include <algorithm>
#include <limits>
#include <tuple>

#include "util/logging.hh"

namespace mesa::core
{

using dfg::Ldfg;
using dfg::NodeId;
using dfg::NoNode;
using dfg::Sdfg;
using ic::Coord;

InstructionMapper::InstructionMapper(const accel::AccelParams &accel,
                                     const ic::Interconnect &interconnect,
                                     const MapperParams &params)
    : accel_(accel), ic_(interconnect), params_(params)
{
}

void
InstructionMapper::setBlockedPes(const std::vector<Coord> &pes,
                                 int fold_rows)
{
    blocked_ = pes;
    fold_rows_ = fold_rows;
}

bool
InstructionMapper::blocked(Coord pos) const
{
    if (blocked_.empty())
        return false;
    const Coord phys =
        fold_rows_ > 0 ? Coord{pos.r % fold_rows_, pos.c} : pos;
    for (const Coord &b : blocked_)
        if (phys == b)
            return true;
    return false;
}

Coord
InstructionMapper::anchor(const Ldfg &ldfg, const Sdfg &sdfg, NodeId id,
                          const std::vector<double> &completion,
                          Coord cursor) const
{
    // The candidate matrix is positioned based on the predecessor
    // with higher latency (it necessarily lies on the instruction's
    // critical path), so placing near it minimizes the critical
    // transfer (paper §3.3).
    const dfg::LdfgNode &node = ldfg.node(id);
    NodeId best = NoNode;
    double best_completion = -1.0;

    auto consider = [&](NodeId src) {
        if (src == NoNode || !sdfg.isPlaced(src))
            return;
        if (completion[size_t(src)] > best_completion) {
            best_completion = completion[size_t(src)];
            best = src;
        }
    };
    consider(node.src1);
    consider(node.src2);
    for (NodeId g : node.guards)
        consider(g);

    if (best != NoNode)
        return sdfg.coordOf(best);
    // No placed predecessor (pure live-in node): anchor at the grid
    // origin so independent sources pack into the same corner (dense
    // placements tile more instances and stay off the NoC).
    (void)cursor;
    return Coord{0, 0};
}

MapResult
InstructionMapper::map(const Ldfg &ldfg) const
{
    const int rows = accel_.rows;
    const int cols = accel_.cols;

    MapResult res;
    res.sdfg = Sdfg(rows, cols);
    res.completion.assign(ldfg.size(), 0.0);

    dfg::LatencyModel model(ldfg, res.sdfg, ic_,
                            params_.fallback_bus_latency);
    ImapFsm fsm;
    Coord cursor{0, 0};

    // FP-slice avoidance only matters when the graph competes for FP
    // slots; integer-only graphs may pack anywhere.
    const bool has_fp =
        ldfg.countClass(riscv::OpClass::FpAlu) +
            ldfg.countClass(riscv::OpClass::FpMul) +
            ldfg.countClass(riscv::OpClass::FpDiv) >
        0;

    for (size_t idx = 0; idx < ldfg.size(); ++idx) {
        const NodeId id = NodeId(idx);
        const dfg::LdfgNode &node = ldfg.node(id);
        const riscv::OpClass cls = node.inst.cls();

        const Coord base = anchor(ldfg, res.sdfg, id, res.completion,
                                  cursor);

        // Candidate window: fixed cand_rows x cand_cols centered on
        // the anchor, clamped into the grid.
        int r0 = base.r - params_.cand_rows / 2;
        int c0 = base.c - params_.cand_cols / 2;
        r0 = std::clamp(r0, 0, std::max(0, rows - params_.cand_rows));
        c0 = std::clamp(c0, 0, std::max(0, cols - params_.cand_cols));
        const int r1 = std::min(rows, r0 + params_.cand_rows);
        const int c1 = std::min(cols, c0 + params_.cand_cols);

        double min_latency = std::numeric_limits<double>::infinity();
        Coord min_pos{};
        int min_wastes_fp = std::numeric_limits<int>::max();
        int min_dist = std::numeric_limits<int>::max();
        int min_free_neighbors = -1;
        unsigned candidates = 0;

        auto evaluate = [&](int rr, int cc) {
            const Coord pos{rr, cc};
            // C_i = C_free (*) C_op: occupied or incompatible PEs are
            // filtered out (Algorithm 1 line 5); the faulty-PE map
            // masks quarantined PEs out of F_free.
            if (!res.sdfg.isFree(pos) || !accel_.supportsOp(pos, cls) ||
                blocked(pos))
                return;
            ++candidates;
            const double lat =
                model.expectedLatencyAt(id, pos, res.completion);
            const bool is_fp_class = cls == riscv::OpClass::FpAlu ||
                                     cls == riscv::OpClass::FpMul ||
                                     cls == riscv::OpClass::FpDiv;
            // Non-FP ops should not squat on scarce FP slices (only
            // relevant when FP ops will compete for them).
            const int wastes_fp =
                (has_fp && !is_fp_class &&
                 accel_.supportsOp(pos, riscv::OpClass::FpAlu))
                    ? 1
                    : 0;
            const int dist = ic::manhattan(pos, base);
            const int free_nb = res.sdfg.freeNeighbors(pos);
            // Minimize latency; tie-break away from FP slices for
            // integer ops, then toward the anchor (compact placements
            // tile densely and stay off the NoC), then toward freer
            // neighborhoods (room for subsequent instructions).
            const auto key =
                std::tuple(lat, wastes_fp, dist, -free_nb);
            const auto best_key = std::tuple(min_latency, min_wastes_fp,
                                             min_dist,
                                             -min_free_neighbors);
            if (key < best_key) {
                min_latency = lat;
                min_pos = pos;
                min_wastes_fp = wastes_fp;
                min_dist = dist;
                min_free_neighbors = free_nb;
            }
        };

        for (int rr = r0; rr < r1; ++rr)
            for (int cc = c0; cc < c1; ++cc)
                evaluate(rr, cc);

        unsigned rescans = 0;
        if (candidates == 0) {
            // Fallback pass: one rescan of the whole grid before the
            // instruction gives up on the fabric.
            ++rescans;
            for (int rr = 0; rr < rows; ++rr)
                for (int cc = 0; cc < cols; ++cc)
                    evaluate(rr, cc);
        }

        fsm.mapInstruction(candidates, rescans);

        if (candidates == 0) {
            // No compatible free PE anywhere: this instruction reverts
            // to the secondary bus (slower but unrestrictive).
            res.unmapped.push_back(id);
            res.completion[idx] =
                model.expectedLatencyAt(id, Coord{}, res.completion);
            continue;
        }

        const bool placed = res.sdfg.place(id, min_pos);
        MESA_ASSERT(placed, "mapper: chosen position was not free");
        res.completion[idx] = min_latency;
        cursor = min_pos;
        logDebug("mapper", "i", id, " ", riscv::opName(node.inst.op),
                 " -> (", min_pos.r, ",", min_pos.c, ") L=", min_latency,
                 " (", candidates, " candidates)");
    }

    res.mapping_cycles = fsm.totalCycles();
    res.imap_trace = fsm.trace();
    res.model_latency =
        *std::max_element(res.completion.begin(), res.completion.end());
    return res;
}

} // namespace mesa::core
