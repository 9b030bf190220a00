#include "mem/lsq.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/trace.hh"

namespace mesa::mem
{

using riscv::Op;

PortPool::PortPool(unsigned num_ports) : pool_(num_ports)
{
    if (num_ports == 0)
        fatal("PortPool: need at least one memory port");
}

uint64_t
PortPool::acquire(uint64_t request_cycle)
{
    // First cycle at or after the request with a free port; each
    // access occupies its port for one cycle.
    const uint64_t booked = pool_.acquire(request_cycle);
    wait_cycles_ += booked - request_cycle;
    return booked;
}

LoadStoreUnit::LoadStoreUnit(MainMemory &mem, MemHierarchy &hierarchy,
                             PortPool &ports, size_t entries)
    : mem_(mem), hierarchy_(hierarchy), ports_(ports),
      entry_amat_(entries)
{
}

void
LoadStoreUnit::beginIteration()
{
    store_buffer_.clear();
    store_lo_ = UINT64_MAX;
    store_hi_ = 0;
}

uint32_t
LoadStoreUnit::readMem(uint32_t addr, Op op) const
{
    switch (op) {
      case Op::Lb:
        return uint32_t(int32_t(int8_t(mem_.read8(addr))));
      case Op::Lbu:
        return mem_.read8(addr);
      case Op::Lh:
        return uint32_t(int32_t(int16_t(mem_.read16(addr))));
      case Op::Lhu:
        return mem_.read16(addr);
      case Op::Lw:
      case Op::Flw:
        return mem_.read32(addr);
      default:
        panic("LoadStoreUnit::readMem: not a load op: ",
              riscv::opName(op));
    }
}

void
LoadStoreUnit::writeMem(uint32_t addr, uint32_t value, Op op)
{
    switch (op) {
      case Op::Sb:
        mem_.write8(addr, uint8_t(value));
        break;
      case Op::Sh:
        mem_.write16(addr, uint16_t(value));
        break;
      case Op::Sw:
      case Op::Fsw:
        mem_.write32(addr, value);
        break;
      default:
        panic("LoadStoreUnit::writeMem: not a store op: ",
              riscv::opName(op));
    }
}

LoadResult
LoadStoreUnit::load(unsigned seq, uint32_t addr, Op op,
                    uint64_t ready_cycle)
{
    ++loads_;
    LoadResult result;

    // Store->load forwarding: the newest buffered store that is older
    // in program order (lower seq) with an exact address match.
    const PendingStore *hit = nullptr;
    for (auto it = store_buffer_.rbegin(); it != store_buffer_.rend();
         ++it) {
        if (it->addr == addr && it->seq < seq) {
            hit = &*it;
            break;
        }
    }

    if (hit && (op == Op::Lw || op == Op::Flw) &&
        (hit->op == Op::Sw || hit->op == Op::Fsw)) {
        ++forwards_;
        result.value = hit->value;
        result.forwarded = true;
        // If the load's address was ready before the store's data, the
        // load speculatively issued and is invalidated on the match;
        // the forwarded value arrives one broadcast cycle after the
        // store data is ready (paper Fig. 5).
        if (ready_cycle < hit->ready_cycle)
            ++invalidations_, result.invalidated = true;
        result.done_cycle = std::max(ready_cycle, hit->ready_cycle) + 1;
        entry_amat_[seq].sample(result.done_cycle - ready_cycle);
        return result;
    }

    if (hit) {
        // Partial-width overlap: conservatively wait for the store to
        // be ready, then access memory through the hierarchy. The
        // store has not committed yet, so read its effect by applying
        // buffered stores up to this seq into a temporary view.
        // Simplification: commit ordering guarantees the store buffer
        // is drained at iteration end; mid-iteration we synthesize the
        // value from memory patched with older buffered stores.
        ++invalidations_;
        result.invalidated = true;
        ready_cycle = std::max(ready_cycle, hit->ready_cycle);
    }

    const uint32_t value = peek(seq, addr, op);
    const uint64_t issue = ports_.acquire(ready_cycle);
    const uint32_t latency = hierarchy_.accessLatency(addr, false);
    if (latency >= hierarchy_.dramLatency() && Tracer::active()) {
        // DRAM-bound access on the accelerator's local timeline.
        Tracer::global().instantLocal(
            "mem", "accel-dram", issue,
            {{"addr", uint64_t(addr)}, {"latency", uint64_t(latency)}});
    }
    result.value = value;
    result.done_cycle = issue + latency;
    entry_amat_[seq].sample(result.done_cycle - ready_cycle);
    return result;
}

uint32_t
LoadStoreUnit::peek(unsigned seq, uint32_t addr, Op op) const
{
    // Memory patched with older buffered stores, so program-order
    // semantics hold even though commit is deferred to iteration end.
    // The window [base, end) is computed 64-bit: at the top of the
    // address space base + 8 would wrap a uint32_t to 0 and hide
    // every buffered store.
    const uint64_t base = addr & ~3u;
    const uint64_t end = base + 8;
    // Range reject: when the buffered-store footprint cannot reach
    // [base, end) no store can match, so the patch scan (linear in
    // the buffer, once per peeked load) is skipped entirely.
    if (store_buffer_.empty() || store_hi_ < base || store_lo_ >= end)
        return readMem(addr, op);
    bool patched = false;
    for (const auto &st : store_buffer_) {
        if (st.seq < seq && st.addr >= base && st.addr < end) {
            patched = true;
            break;
        }
    }
    if (!patched)
        return readMem(addr, op);

    // Apply older stores byte-by-byte onto a scratch copy of the two
    // words covering any supported access at addr.
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = mem_.read8(uint32_t(base) + uint32_t(i));
    for (const auto &st : store_buffer_) {
        if (st.seq >= seq)
            continue;
        const unsigned width =
            (st.op == Op::Sb) ? 1 : (st.op == Op::Sh) ? 2 : 4;
        for (unsigned b = 0; b < width; ++b) {
            const uint64_t a = uint64_t(st.addr) + b;
            if (a >= base && a < end)
                bytes[a - base] = uint8_t(st.value >> (8 * b));
        }
    }
    const unsigned off = addr & 3u;
    uint32_t raw = 0;
    for (int i = 3; i >= 0; --i)
        raw = (raw << 8) | bytes[off + unsigned(i)];
    switch (op) {
      case Op::Lb: return uint32_t(int32_t(int8_t(raw)));
      case Op::Lbu: return raw & 0xFF;
      case Op::Lh: return uint32_t(int32_t(int16_t(raw)));
      case Op::Lhu: return raw & 0xFFFF;
      default: return raw;
    }
}

void
LoadStoreUnit::store(unsigned seq, uint32_t addr, uint32_t value, Op op,
                     uint64_t ready_cycle)
{
    ++stores_;
    // The device loop buffers stores in slot order, which is program
    // order; commitStores() relies on it instead of sorting.
    if (!store_buffer_.empty() && seq <= store_buffer_.back().seq)
        panic("LoadStoreUnit::store: seq ", seq, " buffered after seq ",
              store_buffer_.back().seq);
    store_buffer_.push_back({seq, addr, value, op, ready_cycle});
    const unsigned width =
        (op == Op::Sb) ? 1 : (op == Op::Sh) ? 2 : 4;
    store_lo_ = std::min(store_lo_, uint64_t(addr));
    store_hi_ = std::max(store_hi_, uint64_t(addr) + width - 1);
    entry_amat_[seq].sample(1);
}

uint64_t
LoadStoreUnit::commitStores()
{
    // Stores commit in program order (the buffer's push order, see
    // store()); each commit takes a port cycle and writes through the
    // hierarchy.
    uint64_t last = 0;
    uint64_t prev_commit = 0;
    for (const auto &st : store_buffer_) {
        const uint64_t request = std::max(st.ready_cycle, prev_commit);
        const uint64_t issue = ports_.acquire(request);
        const uint32_t latency = hierarchy_.accessLatency(st.addr, true);
        writeMem(st.addr, st.value, st.op);
        prev_commit = issue + 1; // in-order commit, one per cycle min
        last = std::max(last, issue + latency);
    }
    store_buffer_.clear();
    store_lo_ = UINT64_MAX;
    store_hi_ = 0;
    return last;
}

double
LoadStoreUnit::entryAmat(unsigned seq) const
{
    return seq < entry_amat_.size() ? entry_amat_[seq].mean() : 0.0;
}

double
LoadStoreUnit::overallAmat() const
{
    uint64_t sum = 0;
    uint64_t n = 0;
    for (const auto &avg : entry_amat_) {
        sum += avg.sum();
        n += avg.count();
    }
    return n ? double(sum) / double(n) : 0.0;
}

void
LoadStoreUnit::resetStats()
{
    loads_.reset();
    stores_.reset();
    forwards_.reset();
    invalidations_.reset();
    std::fill(entry_amat_.begin(), entry_amat_.end(), CycleAverage{});
}

} // namespace mesa::mem
