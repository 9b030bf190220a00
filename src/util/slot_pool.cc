#include "util/slot_pool.hh"

#include "util/logging.hh"

namespace mesa
{

SlotPool::SlotPool(unsigned capacity) : capacity_(capacity)
{
    if (capacity > MaxCapacity)
        fatal("SlotPool: capacity ", capacity, " exceeds ", MaxCapacity,
              ", the most a 16-bit cycle count holds");
}

void
SlotPool::reset()
{
    if (size_ == 0)
        return;
    evict(base_ + Window, false);
    log_.clear();
    log_head_ = 0;
    table_ = {};
    table_size_ = 0;
    table_min_ = NoCycle;
    base_ = 0;
    size_ = 0;
    min_cycle_ = NoCycle;
}

uint64_t
SlotPool::acquireBelow(uint64_t cycle)
{
    // Full log and table cells carry skip links, so a request deep
    // behind a long full span jumps it instead of walking it. Path
    // halving re-points each visited link two hops ahead.
    while (cycle < base_) {
        Slot *slot = findBelow(cycle);
        if (slot == nullptr) {
            insertTable(cycle);
            return cycle;
        }
        if (slot->link == 0) {
            if (++slot->count >= capacity_)
                slot->link = 1;
            return cycle;
        }
        uint64_t next = cycle + slot->link;
        if (next < base_) {
            const Slot *hop = findBelow(next);
            if (hop != nullptr && hop->link != 0) {
                next += hop->link;
                slot->link = uint32_t(next - cycle);
            }
        }
        cycle = next;
    }
    return cycle;
}

void
SlotPool::slide(uint64_t cycle)
{
    const uint64_t base = cycle - cycle % WordCycles + WordCycles - Window;
    evict(base, true);
    base_ = base;
}

void
SlotPool::prune(uint64_t floor)
{
    // A prune can fire on every acquire while the live set stays
    // above the trigger, so the log drops its prefix by moving a head
    // index and compacts only once the dead prefix is half the log.
    const size_t keep = logLowerBound(floor);
    size_ -= keep - log_head_;
    log_head_ = keep;
    if (2 * log_head_ > log_.size()) {
        log_.erase(log_.begin(), log_.begin() + ptrdiff_t(log_head_));
        log_head_ = 0;
    }
    // Every log and table cycle is below every window cycle, so the
    // smallest survivor is the log's first, the table's smallest, or
    // else the window's first booked cycle.
    uint64_t min = log_head_ < log_.size() ? log_[log_head_].cycle : NoCycle;

    if (table_size_ != 0 && floor > table_min_) {
        size_t live = 0;
        for (const Slot &slot : table_)
            live += slot.count != 0 && slot.cycle >= floor;
        size_ -= table_size_ - live;
        if (live == 0) {
            table_ = {};
            table_size_ = 0;
            table_min_ = NoCycle;
        } else {
            size_t buckets = MinBuckets;
            while (live >= buckets / 4 * 3)
                buckets *= 2;
            rehash(buckets, floor);
        }
    }
    min = std::min(min, table_min_);

    if (floor > base_)
        evict(floor, false);
    if (min == NoCycle) {
        const uint64_t end = base_ + Window;
        for (uint64_t c = nextUsedWord(base_, end); c < end && min == NoCycle;
             c = nextUsedWord(c + WordCycles, end)) {
            const uint16_t *count =
                &pages_[pageOf(c)]->count[c % PageCycles];
            for (unsigned k = 0; k < WordCycles; ++k) {
                if (count[k] != 0) {
                    min = c + k;
                    break;
                }
            }
        }
    }
    min_cycle_ = min;
}

void
SlotPool::evict(uint64_t hi, bool to_log)
{
    // The walk is ascending, so appending keeps the log sorted.
    hi = std::min(hi, base_ + Window);
    for (uint64_t c = nextUsedWord(base_, hi); c < hi;
         c = nextUsedWord(c + WordCycles, hi)) {
        const size_t p = pageOf(c);
        const unsigned word = wordOf(c);
        Page &page = *pages_[p];
        uint16_t *count = &page.count[c % PageCycles];
        const unsigned n = unsigned(std::min(WordCycles, hi - c));
        for (unsigned k = 0; k < n; ++k) {
            if (count[k] == 0)
                continue;
            if (to_log) {
                const uint32_t full = count[k] >= capacity_ ? 1 : 0;
                log_.push_back(Slot{c + k, full, count[k]});
            } else {
                --size_;
            }
            count[k] = 0;
        }
        summary_[p] &= ~(1ull << word);
        if (n == WordCycles) {
            page.full[word] = 0;
            used_[p] &= ~(1ull << word);
        } else {
            page.full[word] &= ~0ull << n;
        }
    }
}

uint64_t
SlotPool::nextUsedWord(uint64_t cycle, uint64_t hi) const
{
    // Used bits of ring words that alias cycles at or above the
    // window's end only yield results >= hi.
    while (cycle < hi) {
        const uint64_t used = used_[pageOf(cycle)] >> wordOf(cycle);
        if (used != 0)
            return std::min(
                hi, cycle + uint64_t(std::countr_zero(used)) * WordCycles);
        cycle += PageCycles - cycle % PageCycles;
    }
    return hi;
}

size_t
SlotPool::logLowerBound(uint64_t cycle) const
{
    const auto it = std::lower_bound(
        log_.begin() + ptrdiff_t(log_head_), log_.end(), cycle,
        [](const Slot &slot, uint64_t c) { return slot.cycle < c; });
    return size_t(it - log_.begin());
}

SlotPool::Slot *
SlotPool::findBelow(uint64_t cycle)
{
    const size_t at = logLowerBound(cycle);
    if (at < log_.size() && log_[at].cycle == cycle)
        return &log_[at];
    if (table_size_ == 0)
        return nullptr;
    Slot &slot = table_[find(cycle)];
    return slot.count != 0 ? &slot : nullptr;
}

void
SlotPool::insertTable(uint64_t cycle)
{
    if (table_.empty())
        rehash(MinBuckets, 0);
    else if (table_size_ >= max_load_)
        rehash(table_.size() * 2, 0);
    table_[find(cycle)] = Slot{cycle, 1 >= capacity_ ? 1u : 0u, 1};
    ++table_size_;
    table_min_ = std::min(table_min_, cycle);
    ++size_;
    min_cycle_ = std::min(min_cycle_, cycle);
}

size_t
SlotPool::find(uint64_t cycle) const
{
    // Fibonacci hashing: near-consecutive cycles scatter instead of
    // forming one long probe run.
    size_t i = size_t((cycle * 0x9e3779b97f4a7c15ull) >> shift_);
    while (table_[i].count != 0 && table_[i].cycle != cycle)
        i = (i + 1) & (table_.size() - 1);
    return i;
}

void
SlotPool::rehash(size_t buckets, uint64_t floor)
{
    // Move the live table cycles >= floor into a fresh table of
    // @p buckets buckets (a power of two they load at most 75%).
    std::vector<Slot> old(buckets);
    old.swap(table_);
    shift_ = unsigned(std::countl_zero(buckets)) + 1;
    max_load_ = buckets / 4 * 3;
    table_size_ = 0;
    table_min_ = NoCycle;
    for (const Slot &slot : old) {
        if (slot.count == 0 || slot.cycle < floor)
            continue;
        table_[find(slot.cycle)] = slot;
        ++table_size_;
        table_min_ = std::min(table_min_, slot.cycle);
    }
}

} // namespace mesa
