/**
 * @file
 * Logical Dataflow Graph (LDFG): the program-order-indexed view of a
 * loop body's dataflow (paper §3.2). Built by generalized renaming —
 * architectural registers are renamed to the address of the last
 * instruction writing them, so the rename table maps each register to
 * its producing node. The LDFG keeps instruction ordering (analogous
 * to a reorder buffer) and carries the measured node/edge weights of
 * MESA's performance model.
 */

#ifndef MESA_DFG_LDFG_HH
#define MESA_DFG_LDFG_HH

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "riscv/instruction.hh"

namespace mesa::dfg
{

/** Index of a node in the LDFG (program order). */
using NodeId = int;
constexpr NodeId NoNode = -1;

/** Default operation latencies per functional-unit class (cycles). */
struct OpLatencyConfig
{
    double int_alu = 1.0;
    double int_mul = 3.0;
    double int_div = 12.0;
    double fp_alu = 3.0;  // matches the paper's Fig. 2 add/sub = 3
    double fp_mul = 5.0;  // matches the paper's Fig. 2 mul = 5
    double fp_div = 12.0;
    double load = 4.0;    ///< Initial estimate; refined by AMAT counters.
    double store = 1.0;   ///< Address/data handoff into the LS entry.
    double branch = 1.0;
    double jump = 1.0;

    double cycles(riscv::OpClass cls) const;
};

/**
 * The rename table: architectural (unified int+fp) register -> the
 * LDFG node that last wrote it. The 2D analog of a physical register
 * mapping, except there are as many "physical registers" as
 * instructions (each PE produces its own output).
 */
class RenameTable
{
  public:
    RenameTable() { reset(); }

    void reset() { map_.fill(NoNode); }

    NodeId lookup(int unified_reg) const { return map_[size_t(unified_reg)]; }

    void
    update(int unified_reg, NodeId producer)
    {
        map_[size_t(unified_reg)] = producer;
    }

  private:
    std::array<NodeId, riscv::NumUnifiedRegs> map_;
};

/** One LDFG node: an instruction plus its dataflow context. */
struct LdfgNode
{
    riscv::Instruction inst;
    NodeId id = NoNode;

    /** Producer of source operand 1/2, or NoNode if it is a live-in. */
    NodeId src1 = NoNode;
    NodeId src2 = NoNode;

    /** Unified live-in register for operands without a producer. */
    int live_in1 = -1;
    int live_in2 = -1;

    /**
     * Hidden dependency for predicated execution (paper §5.2): the
     * previous producer of this node's destination register. A PE
     * disabled by its guard branch must forward this old value.
     */
    NodeId prev_dest_writer = NoNode;
    int prev_dest_live_in = -1;

    /** Forward branches guarding (able to skip) this instruction. */
    std::vector<NodeId> guards;

    /** Consumers (forward edges), derived during build. */
    std::vector<NodeId> consumers;

    /** Node weight: average operation latency in cycles. */
    double op_latency = 0.0;

    /**
     * Measured edge weights: average data-transfer latency from
     * src1/src2 to this node. Negative = no measurement yet (fall
     * back to the interconnect model).
     */
    double edge_lat1 = -1.0;
    double edge_lat2 = -1.0;

    bool isGuarded() const { return !guards.empty(); }
};

/** Why an instruction sequence could not be encoded as an LDFG. */
enum class BuildError
{
    None = 0,
    InnerLoop,          ///< Backward branch/jump before the body end.
    UnsupportedOp,      ///< System instruction or undecodable word.
    ExitBranch,         ///< Forward branch escaping the loop body.
    IndirectJump,       ///< Jalr target cannot be mapped spatially.
    TooManyInstructions ///< Exceeds the accelerator's capacity.
};

const char *buildErrorName(BuildError err);

/**
 * The Logical DFG over one loop body. Node ids are program order; the
 * final node is the loop's backward branch.
 */
class Ldfg
{
  public:
    /**
     * Build the LDFG for a loop body (T1 Encode).
     *
     * @param body instructions in program order; the last one must be
     *             the backward branch closing the loop
     * @param lat_cfg default per-class operation latencies
     * @param max_nodes accelerator instruction capacity (0 = unlimited)
     * @return the graph, or the reason it cannot be encoded
     */
    static std::optional<Ldfg> build(
        const std::vector<riscv::Instruction> &body,
        const OpLatencyConfig &lat_cfg = {}, size_t max_nodes = 0,
        BuildError *error = nullptr);

    /**
     * Reassemble a graph from its serialized parts (the persistent
     * translation store's deserializer). No renaming or edge
     * derivation is re-run here; the store has already range-checked
     * every node id and register in the parts.
     */
    static Ldfg
    fromParts(std::vector<LdfgNode> nodes, std::set<int> live_ins,
              std::set<int> written, const RenameTable &rename)
    {
        Ldfg g;
        g.nodes_ = std::move(nodes);
        g.live_ins_ = std::move(live_ins);
        g.written_ = std::move(written);
        g.rename_ = rename;
        return g;
    }

    size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }
    const LdfgNode &node(NodeId id) const { return nodes_[size_t(id)]; }
    LdfgNode &node(NodeId id) { return nodes_[size_t(id)]; }
    const std::vector<LdfgNode> &nodes() const { return nodes_; }

    /** Unified registers read before any write in the body. */
    const std::set<int> &liveIns() const { return live_ins_; }

    /** Final rename state: unified reg -> last writer in the body. */
    const RenameTable &finalRename() const { return rename_; }

    /** Registers written in the body (their live-out producers). */
    const std::set<int> &writtenRegs() const { return written_; }

    /** Node id of the loop's closing backward branch. */
    NodeId backBranch() const { return NodeId(nodes_.size()) - 1; }

    /** Count of nodes per functional-unit class. */
    size_t countClass(riscv::OpClass cls) const;

    /** Dump a human-readable listing (debugging / examples). */
    std::string toString() const;

  private:
    std::vector<LdfgNode> nodes_;
    std::set<int> live_ins_;
    std::set<int> written_;
    RenameTable rename_;
};

} // namespace mesa::dfg

#endif // MESA_DFG_LDFG_HH
