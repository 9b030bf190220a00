#include "accel/accelerator.hh"

#include <algorithm>
#include <cmath>

#include "riscv/alu.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace mesa::accel
{

using dfg::NodeId;
using dfg::NoNode;
using ic::Coord;
using riscv::Op;
using riscv::OpClass;

void
AccelRunResult::accumulate(const AccelRunResult &epoch)
{
    cycles += epoch.cycles;
    iterations += epoch.iterations;
    completed = epoch.completed;
    pe_busy_cycles += epoch.pe_busy_cycles;
    fp_busy_cycles += epoch.fp_busy_cycles;
    disabled_ops += epoch.disabled_ops;
    noc_transfers += epoch.noc_transfers;
    local_transfers += epoch.local_transfers;
    loads += epoch.loads;
    stores += epoch.stores;
    store_load_forwards += epoch.store_load_forwards;
    load_invalidations += epoch.load_invalidations;
    dram_accesses += epoch.dram_accesses;
    pes_used = std::max(pes_used, epoch.pes_used);
    pes_total = epoch.pes_total;
    watchdog_tripped = watchdog_tripped || epoch.watchdog_tripped;
    faults_fired += epoch.faults_fired;
}

Accelerator::Accelerator(const AccelParams &params,
                         mem::MainMemory &memory,
                         const mem::HierarchyParams &mem_params)
    : params_(params), memory_(&memory), hierarchy_(mem_params),
      ports_(params.ideal_memory ? 4096u : params.mem_ports),
      ic_(std::make_unique<ic::AccelNocInterconnect>(
          params.rows, params.cols, params.noc_slice_width))
{
}

void
Accelerator::configure(const AcceleratorConfig &config)
{
    for (size_t i = 0; i < config.slots.size(); ++i) {
        MESA_ASSERT(config.slots[i].node == NodeId(i),
                    "Accelerator::configure: slots must be in program "
                    "order with node == index");
    }
    if (config.slots.empty())
        fatal("Accelerator::configure: empty configuration");
    if (!config.slots.back().inst.isBranch())
        fatal("Accelerator::configure: last slot must be the loop's "
              "backward branch");

    config_ = config;

    instances_.clear();
    instances_.resize(config_.instances.size());
    for (auto &inst : instances_) {
        inst.lsu = std::make_unique<mem::LoadStoreUnit>(
            *memory_, hierarchy_, ports_, config_.slots.size());
    }
    // Flat per-PE busy table: mapped slots key by virtual position,
    // unmapped slots get one private key each past the mapped range.
    const size_t n = config_.slots.size();
    int max_rc = -1;
    for (const PeSlot &slot : config_.slots)
        if (slot.pos.valid())
            max_rc = std::max(max_rc,
                              slot.pos.r * config_.cols + slot.pos.c);
    const size_t pe_invalid_base = size_t(max_rc + 1);
    pe_free_.assign(instances_.size(),
                    std::vector<uint64_t>(pe_invalid_base + n, 0));
    iter_out_.assign(n, 0);
    iter_done_.assign(n, 0);
    iter_taken_.assign(n, 0);
    iter_group_done_.clear();

    // Compile the per-slot plan: everything the device loop needs
    // that is fixed by the configuration.
    plan_.assign(n, SlotPlan{});
    guard_routes_.clear();
    lane_bus_.clear();
    read_ahead_.clear();
    auto reads = [&](int32_t src, size_t reader) {
        if (src >= 0 && size_t(src) >= reader)
            read_ahead_.push_back(src);
    };
    for (size_t i = 0; i < n; ++i) {
        const PeSlot &slot = config_.slots[i];
        SlotPlan &sp = plan_[i];
        sp.op = slot.inst.op;
        sp.cls = slot.inst.cls();
        sp.fp = sp.cls == OpClass::FpAlu || sp.cls == OpClass::FpMul ||
                sp.cls == OpClass::FpDiv;
        sp.pe_key = slot.pos.valid()
                        ? size_t(slot.pos.r * config_.cols + slot.pos.c)
                        : pe_invalid_base + i;
        sp.latency = uint64_t(slot.op_latency);
        sp.busy = sp.cls == OpClass::Load ? 2 : sp.latency;
        auto ov = config_.imm_overrides.find(slot.node);
        sp.imm = ov != config_.imm_overrides.end() ? ov->second
                                                   : slot.inst.imm;
        sp.pc = slot.inst.pc;
        sp.src1 = route(slot.src1, i);
        sp.src2 = route(slot.src2, i);
        sp.live_in1 = slot.live_in1;
        sp.live_in2 = slot.live_in2;
        sp.prev_writer = route(slot.prev_dest_writer, i);
        sp.prev_dest_live_in = slot.prev_dest_live_in;
        sp.guards_begin = uint32_t(guard_routes_.size());
        for (NodeId g : slot.guards)
            guard_routes_.push_back(route(g, i));
        sp.guards_end = uint32_t(guard_routes_.size());
        sp.forward_from_store = slot.forward_from_store;
        sp.vector_group = slot.vector_group;
        sp.vector_leader = slot.vector_leader;
        sp.prefetch = slot.prefetch;
        sp.prefetch_stride = slot.prefetch_stride;

        reads(sp.src1.src, i);
        reads(sp.src2.src, i);
        reads(sp.prev_writer.src, i);
        for (uint32_t g = sp.guards_begin; g < sp.guards_end; ++g)
            reads(guard_routes_[g].src, i);
        if (sp.cls == OpClass::Load)
            reads(sp.forward_from_store, i);
    }
    std::sort(read_ahead_.begin(), read_ahead_.end());
    read_ahead_.erase(std::unique(read_ahead_.begin(), read_ahead_.end()),
                      read_ahead_.end());
    live_outs_.assign(config_.live_outs.begin(), config_.live_outs.end());
    for (auto &inst : instances_)
        inst.bus_free.assign(lane_bus_.size(), 0);
    prof_lane_.assign(lane_bus_.size(), nullptr);
    resolveSites();
    if (prof_)
        prof_slot_.assign(n, ProfSlot{});
    resetCounters();
}

void
Accelerator::setProfile(prof::AccelProfile *profile)
{
    prof_ = profile;
    if (prof_) {
        if (prof_->rows() != params_.rows || prof_->cols() != params_.cols)
            prof_->resize(params_.rows, params_.cols);
        prof_slot_.assign(config_.slots.size(), ProfSlot{});
    } else {
        prof_slot_.clear();
        prof_slot_.shrink_to_fit();
    }
}

void
Accelerator::resetCounters()
{
    const size_t n = config_.slots.size();
    node_latency_.assign(n, CycleAverage{});
    edge_latency1_.assign(n, CycleAverage{});
    edge_latency2_.assign(n, CycleAverage{});
}

void
Accelerator::injectFaults(const FaultPlane &plane)
{
    fault_plane_ = plane;
    resolveSites();
}

Accelerator::Route
Accelerator::route(NodeId src, size_t dst)
{
    Route r;
    if (src == NoNode)
        return r;
    r.src = int32_t(src);
    const Coord from = config_.slots[size_t(src)].pos;
    const Coord to = config_.slots[dst].pos;
    // Unmapped endpoints use the secondary data-forwarding bus
    // (paper §3.3: mapping failures revert to a slower fallback).
    if (!from.valid() || !to.valid()) {
        r.fallback = true;
        r.latency = uint64_t(params_.fallback_bus_latency);
        return r;
    }
    r.latency = ic_->latency(from, to);
    const int bus = ic_->busId(from, to);
    if (bus >= 0) {
        const auto it = std::find(lane_bus_.begin(), lane_bus_.end(), bus);
        r.lane = int32_t(it - lane_bus_.begin());
        if (it == lane_bus_.end())
            lane_bus_.push_back(bus);
    }
    return r;
}

void
Accelerator::resolveSites()
{
    // Installed hardware defects corrupt the values flowing through
    // the faulty resources (see fault_plane.hh). Permanent defects
    // are fixed per placement, so they resolve here once; transients
    // and the stuck-branch latch stay runtime checks.
    const size_t n = config_.slots.size();
    for (size_t k = 0; k < instances_.size(); ++k) {
        std::vector<SlotSite> &sites = instances_[k].sites;
        sites.assign(n, SlotSite{});
        for (size_t i = 0; i < n; ++i)
            sites[i].phys = physicalPos(config_.slots[i].pos, k);
        for (size_t i = 0; i < n; ++i) {
            SlotSite &site = sites[i];
            if (!site.phys.valid())
                continue;
            for (const PeStuckFault &f : fault_plane_.stuck_pes)
                if (site.phys == f.pos)
                    site.pe_xor ^= f.xor_mask;
            auto linkXor = [&](NodeId src) -> uint32_t {
                if (src == NoNode)
                    return 0;
                const Coord from = sites[size_t(src)].phys;
                uint32_t x = 0;
                for (const LinkFault &f : fault_plane_.dead_links)
                    if (from.valid() && from == f.from &&
                        site.phys == f.to)
                        x ^= f.xor_mask;
                return x;
            };
            site.link_xor1 = linkXor(config_.slots[i].src1);
            site.link_xor2 = linkXor(config_.slots[i].src2);
        }
    }
}

Coord
Accelerator::physicalPos(Coord pos, size_t inst_index) const
{
    if (!pos.valid())
        return pos;
    Coord p = pos;
    // Virtual rows fold onto the physical grid (time-multiplexing);
    // tiled instances are offset by their origin.
    if (config_.time_multiplex > 1 && params_.rows > 0)
        p.r %= params_.rows;
    if (inst_index < config_.instances.size()) {
        p.r += config_.instances[inst_index].origin.r;
        p.c += config_.instances[inst_index].origin.c;
    }
    return p;
}

std::vector<Coord>
Accelerator::selfTest() const
{
    // BIST pushes a known pattern through every PE and link; in the
    // model, the defect list itself is ground truth, so the scan
    // reduces to reporting the PEs a pattern would implicate. A dead
    // link cannot be told apart from its endpoints without a second
    // routing pass, so both endpoints are retired (conservative).
    std::vector<Coord> bad;
    auto addUnique = [&](Coord pos) {
        if (!pos.valid())
            return;
        for (const Coord &c : bad)
            if (c == pos)
                return;
        bad.push_back(pos);
    };
    for (const PeStuckFault &f : fault_plane_.stuck_pes)
        addUnique(f.pos);
    for (const LinkFault &f : fault_plane_.dead_links) {
        addUnique(f.from);
        addUnique(f.to);
    }
    return bad;
}

double
Accelerator::measuredNodeLatency(NodeId id) const
{
    if (id < 0 || size_t(id) >= node_latency_.size())
        return -1.0;
    const CycleAverage &avg = node_latency_[size_t(id)];
    return avg.count() ? avg.mean() : -1.0;
}

double
Accelerator::measuredEdgeLatency(NodeId id, int operand) const
{
    const auto &vec = operand == 0 ? edge_latency1_ : edge_latency2_;
    if (id < 0 || size_t(id) >= vec.size())
        return -1.0;
    return vec[size_t(id)].count() ? vec[size_t(id)].mean() : -1.0;
}

namespace
{

/** Read a unified register from the architectural state. */
uint32_t
readUnified(const riscv::ArchState &state, int reg)
{
    return reg < riscv::NumIntRegs
               ? state.x[size_t(reg)]
               : state.f[size_t(reg - riscv::NumIntRegs)];
}

/** Write a unified register to the architectural state. */
void
writeUnified(riscv::ArchState &state, int reg, uint32_t value)
{
    if (reg == 0)
        return;
    if (reg < riscv::NumIntRegs)
        state.x[size_t(reg)] = value;
    else
        state.f[size_t(reg - riscv::NumIntRegs)] = value;
}

} // namespace

template <bool Prof>
bool
Accelerator::runIteration(Instance &inst, AccelRunResult &result,
                          SlotCount *count)
{
    const size_t n = plan_.size();
    const uint64_t iter_start = inst.next_floor;
    const size_t inst_index = size_t(&inst - instances_.data());
    uint64_t *const pe_free = pe_free_[inst_index].data();
    // Global iteration index within this run (all tiles), the key the
    // transient-upset and stuck-branch models fire on. The
    // transient list is scanned per slot only on an iteration some
    // upset names.
    const uint64_t global_iter = result.iterations;
    bool upset = false;
    for (const TransientFault &f : fault_plane_.transients)
        upset = upset || f.iteration == global_iter;

    // Reused scratch (sized in configure): no allocation per
    // iteration in the hot loop. Each slot writes its out/done/taken
    // entries before any later slot reads them; only the slots some
    // slot reads ahead of their own execution start from the reset
    // values.
    uint32_t *const out = iter_out_.data();
    uint64_t *const done = iter_done_.data();
    char *const taken = iter_taken_.data();
    for (const int32_t j : read_ahead_) {
        out[j] = 0;
        done[j] = iter_start;
        taken[j] = 0;
    }
    iter_group_done_.clear();

    // Remember how each slot's inputs arrived (profiling only), so
    // attributeIteration can walk the critical path backwards. For
    // the third (guard / forwarded-old-value) input only the
    // dominating arrival matters.
    auto recordEdge = [&](size_t node, int operand, int32_t src,
                          uint64_t t0, uint64_t arr, bool noc) {
        ProfSlot &ps = prof_slot_[node];
        const int e = operand < 2 ? operand : 2;
        if (e == 2 && ps.e[2].used && ps.e[2].arr >= arr)
            return;
        ps.e[size_t(e)] = ProfEdge{src, t0, arr, noc, true};
    };

    auto groupDone = [&](int group) -> uint64_t * {
        for (auto &[g, cycle] : iter_group_done_)
            if (g == group)
                return &cycle;
        return nullptr;
    };

    // Data transfer along a planned route into slot i, including NoC
    // bus contention. An operand 0/1 route adds its bus wait to the
    // slot's run counts (guard and forwarded-value inputs, operand 2,
    // are not measured).
    auto arrival = [&](const Route &rt, size_t i,
                       int operand) -> uint64_t {
        const uint64_t t0 = done[rt.src];
        uint64_t start = t0;
        if (rt.lane >= 0) {
            uint64_t &free = inst.bus_free[size_t(rt.lane)];
            start = std::max(t0, free);
            free = start + 1;
            ++result.noc_transfers;
            if (operand == 0)
                count[i].wait1 += start - t0;
            else if (operand == 1)
                count[i].wait2 += start - t0;
            if constexpr (Prof) {
                prof::LinkStats *&ls = prof_lane_[size_t(rt.lane)];
                if (!ls) {
                    const int bus = lane_bus_[size_t(rt.lane)];
                    ls = &prof_->links[bus];
                    if (!prof_->link_coords.count(bus)) {
                        const Coord anchor = ic_->busCoord(bus);
                        prof_->link_coords.emplace(
                            bus, std::make_pair(anchor.r, anchor.c));
                    }
                }
                ++ls->transfers;
                ls->wait_cycles += start - t0;
            }
        } else if (!rt.fallback) {
            ++result.local_transfers;
        }
        const uint64_t arr = start + rt.latency;
        if constexpr (Prof) {
            recordEdge(i, operand, rt.src, t0, arr,
                       rt.fallback || rt.lane >= 0);
            if (rt.fallback) {
                ++prof_->fallback_transfers;
            } else {
                const Coord phys = inst.sites[i].phys;
                if (prof_->inGrid(phys.r, phys.c))
                    ++prof_->pe_traffic[prof_->index(phys.r, phys.c)];
            }
        }
        return arr;
    };

    for (size_t i = 0; i < n; ++i) {
        const SlotPlan &sp = plan_[i];
        if constexpr (Prof) {
            for (ProfEdge &e : prof_slot_[i].e)
                e.used = false;
        }

        // Guards: the control network disables skipped PEs.
        bool active = true;
        uint64_t guard_arr = iter_start;
        for (uint32_t g = sp.guards_begin; g < sp.guards_end; ++g) {
            const Route &rt = guard_routes_[g];
            if (taken[rt.src])
                active = false;
            guard_arr = std::max(guard_arr, arrival(rt, i, 2));
        }

        if (!active) {
            // Disabled PE: forward the old destination value (hidden
            // dependency) so downstream consumers see it.
            uint32_t old_val = 0;
            uint64_t old_avail = iter_start;
            if (sp.prev_writer.src >= 0) {
                old_val = out[sp.prev_writer.src];
                old_avail = arrival(sp.prev_writer, i, 2);
            } else if (sp.prev_dest_live_in >= 0) {
                old_val = inst.regs[size_t(sp.prev_dest_live_in)];
                old_avail = std::max(
                    iter_start,
                    inst.reg_avail[size_t(sp.prev_dest_live_in)]);
            }
            out[i] = old_val;
            done[i] = std::max(guard_arr, old_avail);
            taken[i] = 0;
            ++result.disabled_ops;
            if constexpr (Prof) {
                // Zero-length service: the slot's completion is set
                // entirely by its guard / forwarded-value arrivals.
                ProfSlot &ps = prof_slot_[i];
                ps.ready = done[i];
                ps.done = done[i];
                ps.mem = false;
            }
            continue;
        }

        // Operand values and arrival cycles.
        auto operand = [&](const Route &rt, int32_t live_in,
                           int idx) -> std::pair<uint32_t, uint64_t> {
            if (rt.src >= 0)
                return {out[rt.src], arrival(rt, i, idx)};
            if (live_in >= 0) {
                return {inst.regs[size_t(live_in)],
                        std::max(iter_start,
                                 inst.reg_avail[size_t(live_in)])};
            }
            return {0u, iter_start};
        };
        auto [v1, a1] = operand(sp.src1, sp.live_in1, 0);
        auto [v2, a2] = operand(sp.src2, sp.live_in2, 1);

        // Installed hardware defects (resolved per site, see
        // resolveSites) corrupt the values this slot sees.
        const SlotSite &site = inst.sites[i];
        uint32_t fault_xor = site.pe_xor;
        if (upset) {
            for (const TransientFault &f : fault_plane_.transients)
                if (f.slot == i && f.iteration == global_iter)
                    fault_xor ^= f.xor_mask;
        }
        if (site.link_xor1) {
            v1 ^= site.link_xor1;
            ++result.faults_fired;
        }
        if (site.link_xor2) {
            v2 ^= site.link_xor2;
            ++result.faults_fired;
        }
        if (fault_xor) {
            ++result.faults_fired;
            // A faulty PE corrupts what it produces: the branch
            // comparison input, the store data, or (below) the
            // computed result.
            if (sp.cls == OpClass::Branch)
                v1 ^= fault_xor;
            else if (sp.cls == OpClass::Store)
                v2 ^= fault_xor;
        }

        uint64_t ready = std::max({a1, a2, guard_arr, iter_start});
        // The PE executes one instruction per iteration; pipelined
        // iterations (and time-multiplexed co-residents) reuse it
        // after the issue interval.
        uint64_t &pe_next = pe_free[sp.pe_key];
        ready = std::max(ready, pe_next);

        switch (sp.cls) {
          case OpClass::Branch: {
            bool branch_taken = riscv::branchEval(sp.op, v1, v2);
            if (i == n - 1 && !branch_taken) {
                // Stuck control line: the closing branch always reads
                // taken, so the loop can never exit (induced hang).
                // Once engaged the line stays stuck — latch it so the
                // hang persists across epoch restarts too.
                for (BranchStuckFault &f :
                     fault_plane_.stuck_branches) {
                    if (global_iter >= f.from_iteration) {
                        f.from_iteration = 0;
                        branch_taken = true;
                        ++result.faults_fired;
                        break;
                    }
                }
            }
            taken[i] = branch_taken;
            out[i] = 0;
            done[i] = ready + sp.latency;
            break;
          }

          case OpClass::Load: {
            const uint32_t addr = v1 + uint32_t(sp.imm);
            ++result.loads;
            if (sp.forward_from_store >= 0) {
                // Static store->load forwarding edge (paper §4.2):
                // one broadcast cycle after the store's data is ready.
                const int32_t st = sp.forward_from_store;
                out[i] = out[st];
                done[i] = std::max(ready, done[st] + 1);
                ++result.store_load_forwards;
            } else if (const uint64_t *gd =
                           sp.vector_group >= 0 && !sp.vector_leader
                               ? groupDone(sp.vector_group)
                               : nullptr) {
                // Vectorized member: the leader's wide access covers
                // this element; no extra port use.
                out[i] = inst.lsu->peek(unsigned(i), addr, sp.op);
                done[i] = std::max(ready, *gd);
            } else {
                const mem::LoadResult lr =
                    inst.lsu->load(unsigned(i), addr, sp.op, ready);
                out[i] = lr.value;
                done[i] = lr.done_cycle;
                if (lr.forwarded)
                    ++result.store_load_forwards;
                if (lr.invalidated)
                    ++result.load_invalidations;
                if (sp.vector_group >= 0 && sp.vector_leader) {
                    if (uint64_t *lead = groupDone(sp.vector_group))
                        *lead = lr.done_cycle;
                    else
                        iter_group_done_.emplace_back(
                            sp.vector_group, lr.done_cycle);
                }
            }
            if (sp.prefetch)
                hierarchy_.prefetch(addr + uint32_t(sp.prefetch_stride));
            count[i].load_svc += done[i] - ready;
            break;
          }

          case OpClass::Store: {
            const uint32_t addr = v1 + uint32_t(sp.imm);
            inst.lsu->store(unsigned(i), addr, v2, sp.op, ready);
            out[i] = v2; // visible to static forwarding consumers
            done[i] = ready + sp.latency;
            ++result.stores;
            break;
          }

          default:
            out[i] = riscv::aluEval(sp.op, v1, v2, sp.imm, sp.pc);
            done[i] = ready + sp.latency;
            break;
        }

        if (fault_xor && sp.cls != OpClass::Branch &&
            sp.cls != OpClass::Store) {
            out[i] ^= fault_xor;
        }

        // Every enabled execution counts toward the node latency and
        // the PE's busy cycles (folded at the end of run()): a PE is
        // busy for its operation's service time; time a load spends
        // waiting on the memory system is LS-entry time, not PE
        // switching activity.
        ++count[i].execs;
        // Pipelined PE: a new iteration's operation can issue after
        // the issue interval, not only after full completion.
        pe_next = ready + params_.pe_issue_interval;
        if constexpr (Prof) {
            ProfSlot &ps = prof_slot_[i];
            ps.ready = ready;
            ps.done = done[i];
            ps.mem = sp.cls == OpClass::Load || sp.cls == OpClass::Store;
            const Coord phys = site.phys;
            if (phys.valid() && prof_->inGrid(phys.r, phys.c)) {
                const size_t pidx = prof_->index(phys.r, phys.c);
                prof_->pe_busy[pidx] += sp.busy;
                prof_->pe_wait[pidx] += ready - iter_start;
                ++prof_->pe_ops[pidx];
            }
        }
    }

    // In-order store commit ends the iteration.
    const uint64_t commit = inst.lsu->commitStores();
    uint64_t end = commit;
    for (size_t i = 0; i < n; ++i)
        end = std::max(end, done[i]);

    // Latch live-outs for the next iteration.
    for (const auto &[reg, writer] : live_outs_) {
        inst.regs[size_t(reg)] = out[writer];
        inst.reg_avail[size_t(reg)] = done[writer];
    }

    ++inst.iterations;
    // The iteration's *exposed* wall window is whatever it extends
    // past this instance's previous critical end: back-to-back
    // iterations expose [iter_start, end], pipelined ones only their
    // uncovered tail. The exposed windows tile [0, last_end] exactly.
    if constexpr (Prof) {
        if (end > inst.last_end)
            attributeIteration(inst, inst.last_end, end);
    }
    inst.last_end = std::max(inst.last_end, end);
    inst.next_floor = config_.pipelined ? iter_start + 1 : end;
    return taken[n - 1] != 0;
}

void
Accelerator::foldCounts(const std::vector<SlotCount> &counts,
                        AccelRunResult &result)
{
    // Each sum below equals what sampling every execution would have
    // added: a non-load slot's service is always sp.latency, and an
    // operand arrives at its producer's completion plus the bus wait
    // plus the route latency (local and fallback routes never wait).
    for (size_t i = 0; i < plan_.size(); ++i) {
        const SlotPlan &sp = plan_[i];
        const SlotCount &c = counts[i];
        if (c.execs == 0)
            continue;
        node_latency_[i].add(sp.cls == OpClass::Load
                                 ? c.load_svc
                                 : sp.latency * c.execs,
                             c.execs);
        if (sp.src1.src >= 0)
            edge_latency1_[i].add(sp.src1.latency * c.execs + c.wait1,
                                  c.execs);
        if (sp.src2.src >= 0)
            edge_latency2_[i].add(sp.src2.latency * c.execs + c.wait2,
                                  c.execs);
        result.pe_busy_cycles += sp.busy * c.execs;
        if (sp.fp)
            result.fp_busy_cycles += sp.busy * c.execs;
    }
}

void
Accelerator::attributeIteration(Instance &inst, uint64_t lo, uint64_t end)
{
    const size_t n = config_.slots.size();
    uint64_t max_done = 0;
    size_t critical = 0;
    for (size_t i = 0; i < n; ++i) {
        if (iter_done_[i] > max_done) {
            max_done = iter_done_[i];
            critical = i;
        }
    }
    // Wall time past the last slot completion is the in-order
    // store-commit drain.
    if (end > max_done)
        inst.prof_mem += end - std::max(lo, max_done);
    if (max_done <= lo)
        return;

    // Walk the critical path backwards from the latest-finishing
    // slot. Each step attributes one contiguous segment — the slot's
    // service time, then the input transfer that released it — and
    // recurses into the producer, so the segments tile [lo, max_done]
    // with no gaps or overlaps (the sum invariant).
    size_t slot = critical;
    uint64_t t = max_done;
    size_t steps = 0;
    const size_t max_steps = 4 * n + 16;
    while (t > lo) {
        if (++steps > max_steps) {
            // Every edge hop costs >= 1 cycle, so the walk shortens t
            // each step; this cap is a safety net, never expected.
            inst.prof_compute += t - lo;
            break;
        }
        const ProfSlot &ps = prof_slot_[slot];
        const uint64_t svc_lo = std::max(lo, ps.ready);
        if (t > svc_lo)
            (ps.mem ? inst.prof_mem : inst.prof_compute) += t - svc_lo;
        if (ps.ready <= lo)
            break;
        t = ps.ready;
        const ProfEdge *edge = nullptr;
        for (const ProfEdge &e : ps.e) {
            if (e.used && e.arr == t) {
                edge = &e;
                break;
            }
        }
        if (!edge) {
            // Released by the iteration floor, a live-in register, or
            // PE issue-slot reuse: fabric occupancy, i.e. compute.
            inst.prof_compute += t - lo;
            break;
        }
        const uint64_t hop_lo = std::max(lo, edge->t0);
        if (t > hop_lo)
            (edge->noc ? inst.prof_noc : inst.prof_compute) += t - hop_lo;
        if (edge->t0 <= lo)
            break;
        t = edge->t0;
        slot = size_t(edge->src);
    }
}

AccelRunResult
Accelerator::run(riscv::ArchState &state, uint64_t max_iterations,
                 uint64_t cycle_budget)
{
    if (!configured())
        fatal("Accelerator::run: not configured");

    // Watchdog budget: the hard device cap and the caller's budget,
    // whichever is tighter (0 means unbounded on either side).
    uint64_t budget = ~uint64_t(0);
    if (params_.watchdog_cycles > 0)
        budget = params_.watchdog_cycles;
    if (cycle_budget > 0)
        budget = std::min(budget, cycle_budget);

    AccelRunResult result;
    const uint64_t dram_before = hierarchy_.dramAccesses();
    result.pes_used = config_.slots.size() * instances_.size();
    result.pes_total = params_.capacity();

    // Each run starts a fresh cycle timeline; forget port bookings
    // from previous profiling epochs.
    ports_.reset();
    std::fill(prof_lane_.begin(), prof_lane_.end(), nullptr);

    // Latch live-in registers (control transfer from CPU, paper §5.1).
    for (size_t k = 0; k < instances_.size(); ++k) {
        Instance &inst = instances_[k];
        inst.regs.fill(0);
        inst.reg_avail.fill(0);
        for (int reg : config_.live_ins)
            inst.regs[size_t(reg)] = readUnified(state, reg);
        for (const auto &[reg, offset] :
             config_.instances[k].reg_offsets) {
            inst.regs[size_t(reg)] += uint32_t(offset);
        }
        std::fill(inst.bus_free.begin(), inst.bus_free.end(), 0);
        inst.next_floor = 0;
        inst.last_end = 0;
        inst.iterations = 0;
        inst.done = false;
        inst.prof_compute = inst.prof_noc = inst.prof_mem = 0;
        std::fill(pe_free_[k].begin(), pe_free_[k].end(), 0);
    }

    // An instance whose staggered start already fails the loop
    // condition must execute zero iterations: evaluate the closing
    // branch on the latched registers (the value its sources would
    // carry from the notional previous iteration).
    const PeSlot &closing = config_.slots.back();
    auto entryOperand = [&](const Instance &inst, NodeId src,
                            int live_in) -> uint32_t {
        if (src != NoNode) {
            const int dest =
                config_.slots[size_t(src)].inst.unifiedDest();
            return dest >= 0 ? inst.regs[size_t(dest)] : 0;
        }
        return live_in >= 0 ? inst.regs[size_t(live_in)] : 0;
    };
    for (auto &inst : instances_) {
        const uint32_t v1 =
            entryOperand(inst, closing.src1, closing.live_in1);
        const uint32_t v2 =
            entryOperand(inst, closing.src2, closing.live_in2);
        bool taken = riscv::branchEval(closing.inst.op, v1, v2);
        if (!taken && !fault_plane_.empty()) {
            // A stuck control line pins the closing branch to taken
            // from the very start of the run too — otherwise an
            // induced hang would be silently cured at the next epoch
            // boundary, when this fault-free entry check re-runs.
            for (const BranchStuckFault &f :
                 fault_plane_.stuck_branches) {
                if (f.from_iteration == 0) {
                    taken = true;
                    ++result.faults_fired;
                    break;
                }
            }
        }
        if (!taken)
            inst.done = true;
    }

    // Round-robin full rounds across tile instances; stopping only at
    // round boundaries keeps the executed-iteration set a prefix of
    // the sequential order (see DESIGN.md).
    bool (Accelerator::*const iterate)(Instance &, AccelRunResult &,
                                       SlotCount *) =
        prof_ ? &Accelerator::runIteration<true>
              : &Accelerator::runIteration<false>;
    std::vector<SlotCount> counts(plan_.size());
    bool all_done = false;
    while (!all_done && result.iterations < max_iterations) {
        all_done = true;
        for (auto &inst : instances_) {
            if (inst.done)
                continue;
            const bool cont = (this->*iterate)(inst, result, counts.data());
            ++result.iterations;
            if (!cont)
                inst.done = true;
            else
                all_done = false;
        }
        if (!all_done) {
            // Watchdog: checked at round boundaries only, so a cut
            // keeps the executed-iteration set a prefix of sequential
            // order and the partial-progress write-back stays exact.
            uint64_t elapsed = 0;
            for (const auto &inst : instances_)
                elapsed = std::max(elapsed, inst.last_end);
            if (elapsed >= budget) {
                result.watchdog_tripped = true;
                break;
            }
        }
    }
    result.completed = all_done;
    foldCounts(counts, result);

    // Write back architectural state (control transfer to CPU).
    // Induction registers merge across instances by taking the value
    // closest to the sequential exit value; other live-outs come from
    // the instance that executed the globally last iteration in
    // sequential order (instance k runs iterations k, k+T, ...), so
    // temporaries match a sequential execution exactly.
    size_t rep = 0;
    int64_t last_index = -1;
    const int64_t stride = int64_t(instances_.size());
    for (size_t k = 0; k < instances_.size(); ++k) {
        if (instances_[k].iterations == 0)
            continue;
        const int64_t last =
            int64_t(k) +
            (int64_t(instances_[k].iterations) - 1) * stride;
        if (last > last_index) {
            last_index = last;
            rep = k;
        }
    }

    for (const auto &[reg, writer] : live_outs_) {
        (void)writer;
        const dfg::InductionReg *ind = nullptr;
        for (const auto &cand : config_.inductions)
            if (cand.unified_reg == reg)
                ind = &cand;
        uint32_t value;
        if (ind && instances_.size() > 1) {
            int32_t best = int32_t(instances_[0].regs[size_t(reg)]);
            for (size_t k = 1; k < instances_.size(); ++k) {
                const int32_t v =
                    int32_t(instances_[k].regs[size_t(reg)]);
                best = ind->step > 0 ? std::min(best, v)
                                     : std::max(best, v);
            }
            value = uint32_t(best);
        } else {
            value = instances_[rep].regs[size_t(reg)];
        }
        writeUnified(state, reg, value);
    }
    if (result.completed) {
        state.pc = config_.resume_pc ? config_.resume_pc
                                     : config_.region_end;
    } else {
        state.pc = config_.region_start;
    }

    size_t critical_inst = 0;
    for (size_t k = 0; k < instances_.size(); ++k) {
        if (instances_[k].last_end > result.cycles) {
            result.cycles = instances_[k].last_end;
            critical_inst = k;
        }
    }
    if (Tracer::active()) {
        // One span per tile instance on the accelerator's local
        // timeline (the controller anchors the base at the epoch
        // start).
        Tracer &tracer = Tracer::global();
        for (size_t k = 0; k < instances_.size(); ++k) {
            const Instance &inst = instances_[k];
            if (inst.iterations == 0)
                continue;
            tracer.spanLocal(trace_track_, "tile" + std::to_string(k),
                             0, inst.last_end,
                             {{"iterations", inst.iterations}});
        }
    }
    result.dram_accesses = hierarchy_.dramAccesses() - dram_before;
    // DRAM bandwidth floor: the accelerator shares the same memory
    // channels the CPU baseline contends on.
    if (!params_.ideal_memory && result.dram_accesses > 0) {
        const uint64_t floor = uint64_t(
            std::ceil(double(result.dram_accesses) /
                      params_.dram_accesses_per_cycle));
        result.cycles = std::max(result.cycles, floor);
    }
    if (prof_) {
        // The run's device cycles equal the critical instance's wall
        // time, so that instance's window decomposition *is* the
        // run's attribution; cycles the DRAM bandwidth floor added on
        // top of the dataflow schedule are memory stall. The three
        // buckets grow by exactly result.cycles.
        const Instance &ci = instances_[critical_inst];
        prof_->compute_cycles += ci.prof_compute;
        prof_->noc_stall_cycles += ci.prof_noc;
        prof_->mem_stall_cycles += ci.prof_mem;
        prof_->mem_stall_cycles += result.cycles - ci.last_end;
        prof_->port_wait_cycles += ports_.contentionWait();
    }
    return result;
}

} // namespace mesa::accel
