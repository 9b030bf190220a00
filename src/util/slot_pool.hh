/**
 * @file
 * Per-cycle capacity pool: models a resource with N identical slots
 * per cycle (memory ports, functional units). Unlike a next-free-time
 * vector, booking a far-future cycle never blocks earlier idle
 * cycles, so bursty late-ready requests don't falsely starve
 * early-ready ones.
 *
 * Logical state: a map from cycle to booked count. Each booked cycle
 * lives in exactly one of three stores:
 *
 *  - the window, a ring over the 65536 cycles [base, base + 65536)
 *    indexed by cycle mod 65536, in 16 pages of 4096 cycles that are
 *    allocated when first booked. A page holds a 16-bit count and a
 *    full bit per cycle; a summary bit per 64-cycle word marks a word
 *    whose cycles are all full, so a search crosses a full span in
 *    O(1) words. A used bit per word lets reset() and a slide visit
 *    only words that hold bookings.
 *  - the spill log, a vector of the cells the window dropped when it
 *    slid forward. Slides only move up, so cells leave in ascending
 *    cycle order and appending keeps the log sorted.
 *  - the table, a flat open-addressed map of 16-byte slots {cycle,
 *    link delta, count} for the rare request that lands below the
 *    window on a cycle the log does not hold.
 *
 * A request above the window slides it up until the request's word
 * is its top word, moving the cells below the new base to the log. A
 * request below the window books in the log if its cycle is there and
 * in the table otherwise. A table cycle was below the base when it
 * was booked and the base only rises, so it never reaches the window
 * or the log; hence no cycle is ever in two stores.
 *
 * Exactness. acquire(r) returns the first cycle >= r whose count is
 * below capacity, so its answer depends only on the cycle -> count
 * map. Below the window, full cycles in the log and the table carry a
 * skip link c -> c + d promising that every cycle in [c, c + d) is
 * booked and full; bookings never release, path halving joins two
 * such spans into one, and the prune below drops whole ranges
 * [0, floor), so a surviving link's span survives with it. The links
 * and the summary bits therefore only speed up the search.
 *
 * The prune is observable (a request below the floor sees a freshly
 * empty cycle) and is part of the model: once the number of distinct
 * booked cycles, over all three stores, reaches 65536, acquire(ready)
 * drops exactly the cycles below ready - 16384 (nothing when ready <=
 * 16384). A prune that would drop nothing costs O(1): the pool tracks
 * its smallest live cycle.
 */

#ifndef MESA_UTIL_SLOT_POOL_HH
#define MESA_UTIL_SLOT_POOL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace mesa
{

/** A resource with fixed per-cycle capacity. */
class SlotPool
{
  public:
    /** Largest capacity the 16-bit per-cycle counts can hold. */
    static constexpr unsigned MaxCapacity =
        std::numeric_limits<uint16_t>::max();

    /** Rejects (fatal) a capacity above MaxCapacity. */
    explicit SlotPool(unsigned capacity);

    /**
     * Book one slot at the first cycle >= ready with spare capacity.
     * Cycles stay below 2^64 - 65536, so the window's end never wraps.
     * @return the booked cycle.
     */
    uint64_t
    acquire(uint64_t ready)
    {
        uint64_t cycle = ready;
        if (cycle < base_) {
            cycle = acquireBelow(cycle);
            if (cycle < base_) {
                maybePrune(ready);
                return cycle;
            }
        }
        cycle = firstFree(cycle);
        if (cycle >= base_ + Window)
            slide(cycle);
        book(cycle);
        maybePrune(ready);
        return cycle;
    }

    unsigned capacity() const { return capacity_; }

    void reset();

  private:
    /** A log or table cell; in the table, count 0 is an empty bucket. */
    struct Slot
    {
        uint64_t cycle = 0;
        uint32_t link = 0;  ///< Full: next possibly-free is cycle+link.
        uint32_t count = 0; ///< Bookings.
    };
    static_assert(sizeof(Slot) == 16);

    static constexpr uint64_t Window = 65536;
    static constexpr uint64_t PageCycles = 4096;
    static constexpr uint64_t WordCycles = 64;
    static constexpr size_t NumPages = Window / PageCycles;
    static_assert(PageCycles / WordCycles == 64,
                  "one summary and one used word per page");

    /** 4096 consecutive window cycles. */
    struct Page
    {
        std::array<uint64_t, PageCycles / WordCycles> full{};
        std::array<uint16_t, PageCycles> count{};
    };

    static constexpr size_t MinBuckets = 64;
    static constexpr size_t PruneAt = 65536;
    static constexpr uint64_t GuardBand = 16384;
    static constexpr uint64_t NoCycle = std::numeric_limits<uint64_t>::max();

    static size_t pageOf(uint64_t cycle)
    {
        return size_t(cycle / PageCycles) % NumPages;
    }
    static unsigned wordOf(uint64_t cycle)
    {
        return unsigned(cycle / WordCycles) % 64;
    }

    /** First cycle >= @p cycle (which is >= base_) that is not full:
     *  a window cycle, or the first cycle at or above the window's
     *  end, which no store holds. */
    uint64_t
    firstFree(uint64_t cycle) const
    {
        const uint64_t end = base_ + Window;
        uint64_t c = cycle;
        while (c < end) {
            const Page *page = pages_[pageOf(c)].get();
            if (page == nullptr)
                return c;
            const uint64_t open =
                ~page->full[wordOf(c)] & (~0ull << (c % WordCycles));
            if (open != 0)
                return c - c % WordCycles + unsigned(std::countr_zero(open));
            // The rest of the word is full: hop over all-full words
            // through the page's summary bits.
            c += WordCycles - c % WordCycles;
            while (c < end) {
                const unsigned word = wordOf(c);
                const uint64_t partial = ~summary_[pageOf(c)] & (~0ull << word);
                if (partial != 0) {
                    c += uint64_t(std::countr_zero(partial) - word) *
                         WordCycles;
                    break;
                }
                c += PageCycles - c % PageCycles;
            }
        }
        return std::max(cycle, end);
    }

    /** Add one booking to window cycle @p cycle (known not full). */
    void
    book(uint64_t cycle)
    {
        const size_t p = pageOf(cycle);
        if (pages_[p] == nullptr)
            pages_[p] = std::make_unique<Page>();
        Page &page = *pages_[p];
        const unsigned word = wordOf(cycle);
        uint16_t &count = page.count[cycle % PageCycles];
        if (count++ == 0) {
            ++size_;
            min_cycle_ = std::min(min_cycle_, cycle);
            used_[p] |= 1ull << word;
        }
        if (count >= capacity_) {
            uint64_t &full = page.full[word];
            full |= 1ull << (cycle % WordCycles);
            if (full == ~0ull)
                summary_[p] |= 1ull << word;
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
        if (floor > min_cycle_)
            prune(floor);
    }

    /** Search from @p cycle below the window; returns the cycle it
     *  booked there, or the window cycle where the search goes on. */
    uint64_t acquireBelow(uint64_t cycle);
    /** Move the window up so @p cycle's word is its top word. */
    void slide(uint64_t cycle);
    /** Drop every booked cycle below @p floor. */
    void prune(uint64_t floor);
    /** Clear the window cycles below @p hi, moving them to the log
     *  when @p to_log. */
    void evict(uint64_t hi, bool to_log);
    /** First word-aligned cycle in [cycle, hi) whose used bit is set,
     *  or hi. */
    uint64_t nextUsedWord(uint64_t cycle, uint64_t hi) const;
    /** Index of the first live log cell at or above @p cycle. */
    size_t logLowerBound(uint64_t cycle) const;
    /** The log or table cell of @p cycle, or null if unbooked. */
    Slot *findBelow(uint64_t cycle);
    void insertTable(uint64_t cycle);
    size_t find(uint64_t cycle) const;
    void rehash(size_t buckets, uint64_t floor);

    unsigned capacity_;
    uint64_t base_ = 0;      ///< Lowest window cycle, a multiple of 64.
    size_t size_ = 0;        ///< Live (booked) cycles in all stores.
    uint64_t min_cycle_ = NoCycle; ///< Smallest live cycle.
    std::array<std::unique_ptr<Page>, NumPages> pages_;
    std::array<uint64_t, NumPages> summary_{}; ///< Word is all full.
    std::array<uint64_t, NumPages> used_{};    ///< Word may hold counts.
    std::vector<Slot> log_;  ///< Spill log, ascending cycles.
    size_t log_head_ = 0;    ///< log_[0, log_head_) is pruned.
    std::vector<Slot> table_;
    unsigned shift_ = 0;     ///< 64 - log2(buckets), for the hash.
    size_t table_size_ = 0;  ///< Live table cycles.
    uint64_t table_min_ = NoCycle; ///< Smallest live table cycle.
    size_t max_load_ = 0;    ///< Grow before an insert reaches this.
};

} // namespace mesa

#endif // MESA_UTIL_SLOT_POOL_HH
