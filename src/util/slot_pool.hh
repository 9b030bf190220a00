/**
 * @file
 * Per-cycle capacity pool: models a resource with N identical slots
 * per cycle (memory ports, functional units). Unlike a next-free-time
 * vector, booking a far-future cycle never blocks earlier idle
 * cycles, so bursty late-ready requests don't falsely starve
 * early-ready ones.
 *
 * Logical state: a map from cycle to booked count, plus a skip link
 * on every fully booked cycle. Both live in one flat open-addressed
 * table of 16-byte slots {cycle, link delta, count} (count 0 = empty
 * bucket, link delta 0 = not full), linear probing at most 75% full.
 *
 * Exactness. acquire(r) returns the first cycle >= r whose count is
 * below capacity, so its answer depends only on the cycle -> count
 * map. A link c -> c + d promises that every cycle in [c, c + d) is
 * booked and full; bookings never release, path halving joins two
 * such spans into one, and the prune below drops whole key ranges
 * [0, floor) so a surviving link's span survives with it. The links
 * therefore only speed up the search. The same span argument bounds d
 * by the number of live keys, so it fits in 32 bits.
 *
 * The prune is observable (a request below the floor sees a freshly
 * empty cycle) and is part of the model: once the number of distinct
 * booked cycles reaches 65536, acquire(ready) drops exactly the cycles
 * below ready - 16384 (nothing when ready <= 16384). A prune that
 * would drop nothing costs O(1): the pool tracks its smallest live
 * cycle.
 */

#ifndef MESA_UTIL_SLOT_POOL_HH
#define MESA_UTIL_SLOT_POOL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace mesa
{

/** A resource with fixed per-cycle capacity. */
class SlotPool
{
  public:
    explicit SlotPool(unsigned capacity) : capacity_(capacity)
    {
        rehash(MinBuckets);
    }

    /**
     * Book one slot at the first cycle >= ready with spare capacity.
     * @return the booked cycle.
     */
    uint64_t
    acquire(uint64_t ready)
    {
        if (size_ >= max_load_)
            rehash(slots_.size() * 2);
        uint64_t cycle = ready;
        size_t at = find(cycle);
        // Saturated cycles carry a skip link so later requests jump
        // the whole full span instead of walking it cycle by cycle (a
        // runaway region held only by the watchdog would otherwise
        // make the walk quadratic in the booking count). Path halving
        // re-points each visited link two hops ahead.
        while (slots_[at].link != 0) {
            const uint64_t next = cycle + slots_[at].link;
            const size_t hop = find(next);
            if (slots_[hop].link == 0) {
                cycle = next;
                at = hop;
                break;
            }
            const uint64_t skip = next + slots_[hop].link;
            slots_[at].link = uint32_t(skip - cycle);
            cycle = skip;
            at = find(cycle);
        }
        Slot &slot = slots_[at];
        if (slot.count == 0) {
            slot.cycle = cycle;
            ++size_;
            min_cycle_ = std::min(min_cycle_, cycle);
        }
        if (++slot.count >= capacity_)
            slot.link = 1;
        maybePrune(ready);
        return cycle;
    }

    unsigned capacity() const { return capacity_; }

    void
    reset()
    {
        if (size_ == 0)
            return;
        slots_.clear();
        rehash(MinBuckets);
    }

  private:
    struct Slot
    {
        uint64_t cycle = 0;
        uint32_t link = 0;  ///< Full: next possibly-free is cycle+link.
        uint32_t count = 0; ///< Bookings; 0 marks an empty bucket.
    };
    static_assert(sizeof(Slot) == 16);

    static constexpr size_t MinBuckets = 64;
    static constexpr size_t PruneAt = 65536;
    static constexpr uint64_t GuardBand = 16384;

    /** Bucket holding @p cycle, or the empty bucket it would take. */
    size_t
    find(uint64_t cycle) const
    {
        // Fibonacci hashing: near-consecutive cycles scatter instead
        // of forming one long probe run.
        size_t i = size_t((cycle * 0x9e3779b97f4a7c15ull) >> shift_);
        while (slots_[i].count != 0 && slots_[i].cycle != cycle)
            i = (i + 1) & (slots_.size() - 1);
        return i;
    }

    /** Move the live cycles >= @p floor into a fresh table of
     *  @p buckets buckets (a power of two they load at most 75%). */
    void
    rehash(size_t buckets, uint64_t floor = 0)
    {
        std::vector<Slot> old(buckets);
        old.swap(slots_);
        shift_ = unsigned(std::countl_zero(buckets)) + 1;
        max_load_ = buckets / 4 * 3;
        size_ = 0;
        min_cycle_ = std::numeric_limits<uint64_t>::max();
        for (const Slot &slot : old) {
            if (slot.count == 0 || slot.cycle < floor)
                continue;
            slots_[find(slot.cycle)] = slot;
            ++size_;
            min_cycle_ = std::min(min_cycle_, slot.cycle);
        }
    }

    void
    maybePrune(uint64_t ready)
    {
        // Requests are approximately monotone; bookkeeping far behind
        // the current horizon is dropped. The guard band keeps
        // occasional out-of-order requests accurate.
        if (size_ < PruneAt)
            return;
        const uint64_t floor = ready > GuardBand ? ready - GuardBand : 0;
        if (floor <= min_cycle_)
            return;
        size_t live = 0;
        for (const Slot &slot : slots_)
            live += slot.count != 0 && slot.cycle >= floor;
        size_t buckets = MinBuckets;
        while (live >= buckets / 4 * 3)
            buckets *= 2;
        rehash(buckets, floor);
    }

    unsigned capacity_;
    std::vector<Slot> slots_;
    unsigned shift_ = 0;   ///< 64 - log2(buckets), for the hash.
    size_t size_ = 0;      ///< Live (booked) cycles.
    size_t max_load_ = 0;  ///< Grow before an insert reaches this.
    uint64_t min_cycle_ = std::numeric_limits<uint64_t>::max();
};

} // namespace mesa

#endif // MESA_UTIL_SLOT_POOL_HH
