#include "cpu/monitor.hh"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hh"
#include "util/trace.hh"

namespace mesa::cpu
{

using riscv::Instruction;
using riscv::Op;
using riscv::TraceEntry;

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::None: return "none";
      case RejectReason::TooLarge: return "too-large";
      case RejectReason::UnsupportedInstr: return "unsupported-instr";
      case RejectReason::EarlyExit: return "early-exit";
      case RejectReason::PoorMix: return "poor-mix";
      case RejectReason::FewIterations: return "few-iterations";
      default: return "???";
    }
}

RegionMonitor::RegionMonitor(const MonitorParams &params)
    : params_(params),
      // The LSD detects any loop fitting its PC-history window; the
      // accelerator-capacity bound (C1) is the monitor's decision, so
      // an oversized loop is detected and then rejected as TooLarge.
      lsd_(std::max<size_t>(4096, params.max_instructions)),
      trace_cache_(params.max_instructions)
{
}

void
RegionMonitor::rearm()
{
    decision_.reset();
    state_ = State::Watching;
    lsd_.reset();
    loop_ = LoopInfo{};
    c2_violation_ = false;
    tally_compute_ = tally_mem_ = tally_control_ = 0;
    passes_ = 0;
    have_prev_branch_vals_ = false;
    est_remaining_.reset();
}

void
RegionMonitor::blacklist(uint32_t start)
{
    blacklist_.push_back(start);
}

void
RegionMonitor::startChecking()
{
    loop_ = lsd_.candidate();
    state_ = State::Checking;
    trace_cache_.setRegion(loop_.start, loop_.end);
    c2_violation_ = false;
    tally_compute_ = tally_mem_ = tally_control_ = 0;
    passes_ = 0;
    have_prev_branch_vals_ = false;
    est_remaining_.reset();
}

void
RegionMonitor::reject(RejectReason reason)
{
    MonitorDecision d;
    d.qualified = false;
    d.reason = reason;
    d.loop = loop_;
    decision_ = d;
    state_ = State::Watching;
    lsd_.reset();
    if (Tracer::active())
        Tracer::global().instant(
            "cpu0", "loop-rejected", Tracer::global().now(),
            {{"pc", uint64_t(loop_.start)},
             {"reason", rejectReasonName(reason)}});
}

void
RegionMonitor::finishIteration(const TraceEntry &branch_entry)
{
    ++passes_;

    // Expected-iteration estimate from the branch condition: sample
    // the branch operands across consecutive iterations; the per-
    // iteration delta of the moving operand projects the remaining
    // trip count (paper: "an estimate of the loop's expected
    // iteration count based on the branch condition and PC trace").
    if (have_prev_branch_vals_) {
        const int64_t d1 = int64_t(int32_t(branch_entry.src1_val)) -
                           int64_t(int32_t(prev_src1_));
        const int64_t d2 = int64_t(int32_t(branch_entry.src2_val)) -
                           int64_t(int32_t(prev_src2_));
        // The gap (src2 - src1) closes by (d1 - d2) per iteration for
        // blt/bge-style conditions; remaining trips ~= gap / rate.
        const int64_t gap = int64_t(int32_t(branch_entry.src2_val)) -
                            int64_t(int32_t(branch_entry.src1_val));
        const int64_t rate = d1 - d2;
        if (rate != 0) {
            const int64_t remaining = gap / rate;
            est_remaining_ = remaining > 0 ? uint64_t(remaining) : 0;
        } else {
            est_remaining_.reset(); // no moving operand, unknown
        }
    }
    have_prev_branch_vals_ = true;
    prev_src1_ = branch_entry.src1_val;
    prev_src2_ = branch_entry.src2_val;

    if (c2_violation_) {
        reject(RejectReason::UnsupportedInstr);
        return;
    }

    // Need at least two full passes: one to tally + capture, one to
    // obtain the trip estimate.
    if (passes_ < 2)
        return;

    const double total =
        double(tally_compute_ + tally_mem_ + tally_control_);
    MonitorDecision d;
    d.loop = loop_;
    d.compute_frac = total > 0 ? double(tally_compute_) / total : 0.0;
    d.mem_frac = total > 0 ? double(tally_mem_) / total : 0.0;
    d.control_frac = total > 0 ? double(tally_control_) / total : 0.0;
    d.est_remaining_iterations = est_remaining_.value_or(0);

    if (d.compute_frac < params_.min_compute_frac ||
        d.mem_frac > params_.max_mem_frac) {
        d.qualified = false;
        d.reason = RejectReason::PoorMix;
    } else if (!est_remaining_ ||
               *est_remaining_ < params_.min_expected_iterations) {
        d.qualified = false;
        d.reason = RejectReason::FewIterations;
    } else {
        d.qualified = true;
    }
    logDebug("monitor", "loop 0x", std::hex, loop_.start, std::dec,
             d.qualified ? " qualified" : " rejected: ",
             d.qualified ? "" : rejectReasonName(d.reason), ", est ",
             d.est_remaining_iterations, " iterations remaining");
    decision_ = d;
    if (Tracer::active())
        Tracer::global().instant(
            "cpu0",
            d.qualified ? "loop-qualified" : "loop-rejected",
            Tracer::global().now(),
            {{"pc", uint64_t(loop_.start)},
             {"reason", rejectReasonName(d.reason)},
             {"est_iterations", d.est_remaining_iterations}});
    if (!d.qualified) {
        state_ = State::Watching;
        lsd_.reset();
    }
}

void
RegionMonitor::observe(const TraceEntry &entry)
{
    if (decision_ && decision_->qualified)
        return; // verdict reached; controller takes over

    const Instruction &inst = entry.inst;

    if (state_ == State::Watching) {
        decision_.reset();
        lsd_.observe(entry);
        if (lsd_.confirmed()) {
            const auto &cand = lsd_.candidate();
            const bool blacklisted =
                std::find(blacklist_.begin(), blacklist_.end(),
                          cand.start) != blacklist_.end();
            if (!blacklisted) {
                if (cand.body_instructions > params_.max_instructions) {
                    loop_ = cand;
                    reject(RejectReason::TooLarge);
                } else {
                    startChecking();
                }
            }
        }
        return;
    }

    // --- Checking state ---
    if (!loop_.contains(inst.pc)) {
        // Control left the region before the closing branch.
        reject(RejectReason::EarlyExit);
        return;
    }

    trace_cache_.fill(inst.pc, inst.raw);

    // C2: unsupported instructions invalidate candidacy.
    const bool is_closing_branch = inst.pc == loop_.branchPc();
    if (inst.isSystem() || inst.op == Op::Jalr || inst.op == Op::Jal ||
        inst.op == Op::Invalid || inst.numSources() > 2) {
        // System ops, jumps, undecodable words, and three-operand
        // fused ops (the PEs have two inputs) are unsupported.
        c2_violation_ = true;
    } else if (inst.isBackwardBranch() && !is_closing_branch) {
        c2_violation_ = true; // inner loop
    } else if (inst.isBranch() && inst.imm > 0 &&
               inst.targetPc() >= loop_.end) {
        c2_violation_ = true; // branch exiting the region
    }

    // C3 tallies.
    if (inst.isMem())
        ++tally_mem_;
    else if (inst.isControl())
        ++tally_control_;
    else
        ++tally_compute_;

    if (is_closing_branch) {
        if (!entry.branch_taken) {
            reject(RejectReason::EarlyExit);
            return;
        }
        finishIteration(entry);
    }
}

} // namespace mesa::cpu
