#include "cpu/ooo_core.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/trace.hh"

namespace mesa::cpu
{

using riscv::OpClass;
using riscv::TraceEntry;

OooCore::OooCore(const CoreParams &params, mem::MemHierarchy &mem)
    : params_(params), mem_(mem)
{
    reset();
}

void
OooCore::reset()
{
    reg_ready_.fill(0);
    rob_commits_.clear();
    store_ready_.clear();
    fu_pools_.clear();
    for (size_t cls = 0; cls < size_t(OpClass::NumClasses); ++cls) {
        fu_pools_.emplace_back(
            std::max(1u, params_.fus.count(OpClass(cls))));
    }
    dispatch_cycle_ = 0;
    dispatched_this_cycle_ = 0;
    fetch_stall_until_ = 0;
    last_commit_ = 0;
    committed_this_cycle_ = 0;
    last_commit_cycle_ = 0;
    stats_ = CoreStats{};
}

uint64_t
OooCore::acquireFu(OpClass cls, uint64_t ready)
{
    // Fully pipelined units: one issue slot per FU per cycle.
    return fu_pools_[size_t(cls)].acquire(ready);
}

void
OooCore::consume(const TraceEntry &entry)
{
    const riscv::Instruction &inst = entry.inst;
    // One table row per dynamic instruction: class, sources and
    // register files all come from it.
    const riscv::OpProps &props = riscv::opProps(inst.op);
    ++stats_.instructions;

    // --- Dispatch ---
    uint64_t dispatch = std::max(dispatch_cycle_, fetch_stall_until_);
    if (dispatch > dispatch_cycle_) {
        dispatch_cycle_ = dispatch;
        dispatched_this_cycle_ = 0;
    }
    if (dispatched_this_cycle_ >= params_.issue_width) {
        ++dispatch_cycle_;
        dispatched_this_cycle_ = 0;
        dispatch = std::max(dispatch_cycle_, fetch_stall_until_);
        dispatch_cycle_ = dispatch;
    }
    // ROB slot: wait for the instruction rob_size older to commit.
    if (rob_commits_.size() >= params_.rob_size) {
        const uint64_t slot_free = rob_commits_.front() + 1;
        rob_commits_.pop_front();
        if (slot_free > dispatch) {
            dispatch = slot_free;
            dispatch_cycle_ = dispatch;
            dispatched_this_cycle_ = 0;
        }
    }
    ++dispatched_this_cycle_;

    // --- Source readiness (up to 3 sources for fused FP ops) ---
    uint64_t ready = dispatch;
    for (int n = 0; n < props.num_sources; ++n) {
        const int src = inst.unifiedSrc(n);
        if (src >= 0)
            ready = std::max(ready, reg_ready_[size_t(src)]);
    }

    // --- Issue + execute ---
    const OpClass cls = props.cls;
    const uint64_t issue = acquireFu(cls, ready);
    uint64_t complete;

    if (cls == OpClass::Load) {
        ++stats_.loads;
        uint64_t latency;
        auto st = store_ready_.find(entry.mem_addr);
        if (st != store_ready_.end()) {
            // Store->load forwarding inside the window.
            latency = 1;
            complete = std::max(issue, st->second) + latency;
        } else {
            latency = mem_.accessLatency(entry.mem_addr, false);
            complete = issue + latency;
            if (latency >= mem_.dramLatency() && Tracer::active()) {
                // DRAM-bound load on the CPU's local cycle timeline.
                Tracer::global().instantLocal(
                    "mem", "cpu-dram", issue,
                    {{"addr", uint64_t(entry.mem_addr)},
                     {"latency", latency}});
            }
        }
    } else if (cls == OpClass::Store) {
        ++stats_.stores;
        mem_.accessLatency(entry.mem_addr, true);
        complete = issue + uint64_t(params_.op_latency.cycles(cls));
        store_ready_[entry.mem_addr] = complete;
        if (store_ready_.size() > 2 * params_.rob_size)
            store_ready_.clear(); // age out (coarse window model)
    } else {
        complete = issue + uint64_t(params_.op_latency.cycles(cls));
    }

    if (riscv::fpSources(inst.op) || riscv::fpDest(inst.op))
        ++stats_.fp_ops;

    // --- Writeback ---
    const int dest = inst.unifiedDest();
    if (dest >= 0)
        reg_ready_[size_t(dest)] = complete;

    // --- Branch resolution ---
    if (cls == OpClass::Branch) {
        ++stats_.branches;
        const bool mispredicted =
            params_.use_gshare
                ? gshare_.update(inst.pc, entry.branch_taken)
                : predictor_.update(inst.pc, entry.branch_taken);
        if (mispredicted) {
            ++stats_.mispredicts;
            fetch_stall_until_ =
                complete + params_.mispredict_penalty;
        } else if (entry.branch_taken) {
            // Correctly predicted taken branch: the fetch stream
            // still redirects, costing a front-end bubble.
            fetch_stall_until_ = std::max(
                fetch_stall_until_,
                dispatch + params_.taken_branch_bubble);
        }
    } else if (cls == OpClass::Jump) {
        // Jumps always redirect fetch.
        ++stats_.branches;
        fetch_stall_until_ =
            std::max(fetch_stall_until_,
                     dispatch + params_.taken_branch_bubble);
    }

    // --- Commit (in order, issue_width per cycle) ---
    uint64_t commit = std::max(complete, last_commit_);
    if (commit == last_commit_cycle_ &&
        committed_this_cycle_ >= params_.issue_width) {
        ++commit;
    }
    if (commit != last_commit_cycle_) {
        last_commit_cycle_ = commit;
        committed_this_cycle_ = 0;
    }
    ++committed_this_cycle_;
    last_commit_ = commit;
    rob_commits_.push_back(commit);

    stats_.cycles = std::max(stats_.cycles, commit);
}

uint64_t
OooCore::finish()
{
    return stats_.cycles;
}

} // namespace mesa::cpu
