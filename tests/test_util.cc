/**
 * @file
 * Utility-layer tests: SlotPool per-cycle capacity semantics, the
 * slicing-by-8 CRC-32 against a one-byte reference, stats primitives, the matrix helper, the text table printer, the
 * JSON reader under hostile input, and the logging error types.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/crc32.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"
#include "util/matrix.hh"
#include "util/rng.hh"
#include "util/slot_pool.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace
{

using namespace mesa;

// ---------------------------------------------------------------------
// SlotPool: the per-cycle capacity model.
// ---------------------------------------------------------------------

TEST(SlotPool, CapacityPerCycle)
{
    SlotPool pool(2);
    EXPECT_EQ(pool.acquire(10), 10u);
    EXPECT_EQ(pool.acquire(10), 10u);
    EXPECT_EQ(pool.acquire(10), 11u); // third request spills over
    EXPECT_EQ(pool.acquire(10), 11u);
    EXPECT_EQ(pool.acquire(10), 12u);
}

TEST(SlotPool, FutureBookingDoesNotStarveEarlierCycles)
{
    // The bug class this type exists to prevent: a far-future booking
    // must leave earlier cycles available.
    SlotPool pool(1);
    EXPECT_EQ(pool.acquire(1000), 1000u);
    EXPECT_EQ(pool.acquire(5), 5u);
    EXPECT_EQ(pool.acquire(5), 6u);
    EXPECT_EQ(pool.acquire(999), 999u);
    EXPECT_EQ(pool.acquire(999), 1001u); // 1000 already taken
}

TEST(SlotPool, ResetClearsBookings)
{
    SlotPool pool(1);
    pool.acquire(0);
    EXPECT_EQ(pool.acquire(0), 1u);
    pool.reset();
    EXPECT_EQ(pool.acquire(0), 0u);
}

TEST(SlotPool, DenseBurstDrains)
{
    SlotPool pool(4);
    uint64_t max_cycle = 0;
    for (int i = 0; i < 100; ++i)
        max_cycle = std::max(max_cycle, pool.acquire(0));
    // 100 requests at 4/cycle need exactly 25 cycles.
    EXPECT_EQ(max_cycle, 24u);
}

TEST(SlotPool, SkipLinksMatchReferenceLinearScan)
{
    // Reference model: a plain linear scan over a used-count map.
    // The pool's full-cycle skip links must book exactly the same
    // cycles on any request pattern (bookings never release, so a
    // link can only go stale in the conservative direction).
    const unsigned capacity = 3;
    SlotPool pool(capacity);
    std::map<uint64_t, unsigned> used;
    auto reference = [&](uint64_t ready) {
        uint64_t c = ready;
        while (used[c] >= capacity)
            ++c;
        ++used[c];
        return c;
    };
    uint64_t x = 0x9e3779b97f4a7c15ull; // fixed-seed xorshift
    auto next = [&]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 5000; ++i) {
        const uint64_t ready = next() % 64;
        EXPECT_EQ(pool.acquire(ready), reference(ready));
    }
}

TEST(SlotPool, LongFullSpanStaysFast)
{
    // A runaway region held only by the watchdog books hundreds of
    // thousands of same-ready slots; the skip links keep each acquire
    // near-constant instead of walking the whole full span (which
    // made such campaigns quadratic). Past 65536 booked cycles every
    // acquire also checks the prune, whose floor is 0 here: that
    // no-op prune must cost O(1). The volatile read keeps the
    // compiler from folding the floor and deleting the check.
    volatile uint64_t seven = 7;
    SlotPool pool(2);
    for (uint64_t i = 0; i < 200'000; ++i)
        ASSERT_EQ(pool.acquire(seven), 7 + i / 2);
    // The span [7, 100007) is now longer than the 65536-cycle window,
    // so its low part sits in the spill log. Requests deep behind the
    // span's end (ready <= 16384, so still no prune) start below the
    // window and must cross the log's full cells through their skip
    // links rather than one cycle at a time.
    const uint64_t end = 7 + 100'000;
    for (uint64_t i = 0; i < 100'000; ++i)
        ASSERT_EQ(pool.acquire(seven + 1 + (i * 7919) % 16'000),
                  end + i / 2);
}

/**
 * Test oracle: the original two-hash-map SlotPool (cycle -> count,
 * full cycle -> next possibly-free cycle, with the prune at 65536
 * booked cycles). SlotPool must book exactly the cycles this does.
 */
class ReferenceSlotPool
{
  public:
    explicit ReferenceSlotPool(unsigned capacity) : capacity_(capacity) {}

    uint64_t
    acquire(uint64_t ready)
    {
        const uint64_t cycle = skipFull(ready);
        unsigned &count = used_[cycle];
        ++count;
        if (count >= capacity_)
            next_free_[cycle] = cycle + 1;
        maybePrune(ready);
        return cycle;
    }

    void
    reset()
    {
        used_.clear();
        next_free_.clear();
    }

    size_t bookedCycles() const { return used_.size(); }

  private:
    uint64_t
    skipFull(uint64_t cycle)
    {
        auto it = next_free_.find(cycle);
        while (it != next_free_.end()) {
            const auto chase = next_free_.find(it->second);
            if (chase == next_free_.end()) {
                cycle = it->second;
                break;
            }
            it->second = chase->second; // path halving
            cycle = chase->second;
            it = next_free_.find(cycle);
        }
        return cycle;
    }

    void
    maybePrune(uint64_t ready)
    {
        if (used_.size() < 65536)
            return;
        const uint64_t floor = ready > 16384 ? ready - 16384 : 0;
        std::erase_if(used_,
                      [floor](const auto &kv) { return kv.first < floor; });
        std::erase_if(next_free_,
                      [floor](const auto &kv) { return kv.first < floor; });
    }

    unsigned capacity_;
    std::unordered_map<uint64_t, unsigned> used_;
    std::unordered_map<uint64_t, uint64_t> next_free_;
};

TEST(SlotPool, MatchesReferenceAcrossPrunes)
{
    // Fixed-seed streams, mostly monotone with jitter, long enough to
    // pass 65536 booked cycles several times so the prune fires
    // repeatedly. Mixed in: far-future bookings, requests below an
    // already-pruned floor, a saturated span held at one ready cycle
    // (no-op prunes), and a reset() midway.
    for (const unsigned capacity : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(capacity);
        SlotPool pool(capacity);
        ReferenceSlotPool ref(capacity);
        uint64_t x = 0x243f6a8885a308d3ull ^ capacity; // xorshift64
        auto next = [&]() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        uint64_t horizon = 0;
        auto check = [&](uint64_t ready) {
            const uint64_t got = pool.acquire(ready);
            ASSERT_EQ(got, ref.acquire(ready)) << "ready " << ready;
        };
        const uint64_t steps = 3 * 65536 * 5 / 2;
        for (uint64_t i = 0; i < steps; ++i) {
            if (i == steps / 2) {
                pool.reset();
                ref.reset();
                horizon = next() % 1000;
            }
            // Advance about one cycle per booking so distinct cycles
            // accumulate at every capacity.
            horizon += next() % 3;
            const uint64_t roll = next() % 1000;
            uint64_t ready = horizon;
            if (roll == 0)
                ready = horizon + 20'000 + next() % 80'000; // far future
            else if (roll < 3 && horizon > 40'000)
                ready = horizon - 20'000 - next() % 20'000; // below floor
            else if (roll < 250)
                ready = horizon > 64 ? horizon - next() % 64 : horizon;
            ASSERT_NO_FATAL_FAILURE(check(ready));
            if (i == steps / 4) {
                // Hold one ready cycle until 65536 cycles are booked
                // with none below the floor, then keep going: each of
                // these prunes drops nothing.
                const uint64_t held = horizon;
                while (ref.bookedCycles() < 65536)
                    ASSERT_NO_FATAL_FAILURE(check(held));
                for (int k = 0; k < 200; ++k)
                    ASSERT_NO_FATAL_FAILURE(check(held));
                horizon = held + 70'000;
            }
        }
    }
}

/** A SlotPool and the oracle fed the same requests. */
struct PoolAndReference
{
    explicit PoolAndReference(unsigned capacity)
        : pool(capacity), ref(capacity)
    {
    }

    void
    check(uint64_t ready)
    {
        ASSERT_EQ(pool.acquire(ready), ref.acquire(ready))
            << "ready " << ready;
    }

    void
    reset()
    {
        pool.reset();
        ref.reset();
    }

    SlotPool pool;
    ReferenceSlotPool ref;
};

/** Fixed-seed xorshift64 for the request streams below. */
struct XorShift
{
    uint64_t x;

    uint64_t
    operator()()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

TEST(SlotPool, MatchesReferenceBehindSaturatedSpan)
{
    // The device loop's shape on hang injections: a port saturated
    // from one ready cycle until the watchdog fires, while the other
    // requests land 4k-65k cycles behind the frontier. Both reach
    // back across most of the window, and past 65536 booked cycles
    // the held ready keeps the prune floor at 0.
    for (const unsigned capacity : {1u, 2u}) {
        SCOPED_TRACE(capacity);
        PoolAndReference pools(capacity);
        XorShift next{0x13198a2e03707344ull ^ capacity};
        uint64_t frontier = 0;
        for (int i = 0; i < 70'000; ++i) {
            frontier += next() % 3;
            ASSERT_NO_FATAL_FAILURE(pools.check(frontier));
        }
        const uint64_t held = 9'000;
        for (int i = 0; i < 90'000; ++i) {
            const uint64_t roll = next() % 4;
            uint64_t ready = held;
            if (roll == 1) {
                ready = frontier - 4'096 - next() % 61'000;
            } else if (roll > 1) {
                frontier += next() % 2;
                ready = frontier;
            }
            ASSERT_NO_FATAL_FAILURE(pools.check(ready));
        }
    }
}

TEST(SlotPool, MatchesReferenceBelowFarFutureSlide)
{
    // One far-future request slides the whole window past every
    // booking, so the traffic that follows lands below the window:
    // on cells in the spill log (full and not), and on unbooked
    // cycles between them, which go to the table. The frontier then
    // climbs back into the window.
    PoolAndReference pools(3);
    XorShift next{0xa4093822299f31d0ull};
    uint64_t frontier = 1'000;
    for (int i = 0; i < 60'000; ++i) {
        frontier += next() % 2;
        const uint64_t jitter = next() % 64;
        ASSERT_NO_FATAL_FAILURE(pools.check(frontier - jitter));
    }
    ASSERT_NO_FATAL_FAILURE(pools.check(frontier + 250'000));
    for (int i = 0; i < 60'000; ++i) {
        frontier += next() % 8;
        const uint64_t back = next() % 4 == 0 ? next() % 40'000 : 0;
        ASSERT_NO_FATAL_FAILURE(pools.check(frontier - back));
    }
}

TEST(SlotPool, MatchesReferenceAtPortCapacity)
{
    // The widest pool in use: PortPool on ideal_memory has 4096
    // ports, so a cycle fills only after 4096 bookings and bursts
    // spread over few cycles.
    PoolAndReference pools(4096);
    XorShift next{0x082efa98ec4e6c89ull};
    uint64_t frontier = 0;
    for (int i = 0; i < 200'000; ++i) {
        if (next() % 1'000 == 0)
            frontier += next() % 5'000;
        const uint64_t roll = next() % 8;
        uint64_t ready = frontier;
        if (roll == 0)
            ready = frontier + next() % 100'000;
        else if (roll == 1)
            ready = frontier > 70'000 ? frontier - next() % 70'000 : 0;
        ASSERT_NO_FATAL_FAILURE(pools.check(ready));
    }
}

TEST(SlotPool, MatchesReferenceAcrossResets)
{
    // reset() after the window has slid and spilled: the next
    // request, far below the old window, must see an empty pool
    // again, and so must every later one.
    PoolAndReference pools(2);
    XorShift next{0x452821e638d01377ull};
    for (int round = 0; round < 4; ++round) {
        SCOPED_TRACE(round);
        uint64_t frontier = next() % 1'000;
        const int steps = 40'000 + int(next() % 80'000);
        for (int i = 0; i < steps; ++i) {
            frontier += next() % 3;
            const uint64_t roll = next() % 100;
            uint64_t ready = frontier;
            if (roll == 0)
                ready = frontier + 70'000 + next() % 10'000;
            else if (roll < 30)
                ready = frontier > 100 ? frontier - next() % 100 : 0;
            ASSERT_NO_FATAL_FAILURE(pools.check(ready));
        }
        pools.reset();
    }
}

TEST(SlotPool, RejectsCapacityBeyondCountWidth)
{
    // Per-cycle counts are 16 bits; a larger capacity would wrap a
    // count instead of marking its cycle full.
    EXPECT_THROW(SlotPool pool(SlotPool::MaxCapacity + 1), FatalError);
    SlotPool widest(SlotPool::MaxCapacity);
    for (unsigned i = 0; i < SlotPool::MaxCapacity; ++i)
        ASSERT_EQ(widest.acquire(5), 5u);
    EXPECT_EQ(widest.acquire(5), 6u);
}

// ---------------------------------------------------------------------
// CRC-32: slicing-by-8 against the one-byte-table loop it replaced.
// ---------------------------------------------------------------------

/** The original CRC-32: one table lookup per byte. */
uint32_t
bytewiseCrc32(const uint8_t *p, size_t len)
{
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = detail::crc32_tables[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReference)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);

    std::vector<uint8_t> buf(8 + 67);
    uint32_t s = 12345;
    for (uint8_t &b : buf) {
        s = s * 1664525u + 1013904223u;
        b = uint8_t(s >> 24);
    }
    // Every start alignment and every length through the 8-byte bulk
    // loop and its one-byte tail.
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 67; ++len) {
            EXPECT_EQ(crc32(buf.data() + off, len),
                      bytewiseCrc32(buf.data() + off, len))
                << "off " << off << " len " << len;
            // Split into two incremental calls at every point.
            for (size_t cut = 0; cut <= len; cut += 5) {
                Crc32 c;
                c.addBytes(buf.data() + off, cut);
                c.addBytes(buf.data() + off + cut, len - cut);
                EXPECT_EQ(c.value(), bytewiseCrc32(buf.data() + off, len));
            }
        }
    }

    // add32 / add64 fold the same little-endian bytes addBytes would.
    for (size_t i = 0; i + 8 <= buf.size(); ++i) {
        uint64_t v = 0;
        for (int k = 7; k >= 0; --k)
            v = (v << 8) | buf[i + k];
        Crc32 by32, by64, bytes;
        by32.addByte(0x5a); // non-initial running CRC
        by64.addByte(0x5a);
        bytes.addByte(0x5a);
        by32.add32(uint32_t(v));
        by32.add32(uint32_t(v >> 32));
        by64.add64(v);
        bytes.addBytes(buf.data() + i, 8);
        EXPECT_EQ(by32.value(), bytes.value());
        EXPECT_EQ(by64.value(), bytes.value());
    }
}

// ---------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------

TEST(Stats, CounterAndAverage)
{
    Counter c("c");
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    Average avg;
    EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
    avg.sample(2.0);
    avg.sample(4.0);
    EXPECT_DOUBLE_EQ(avg.mean(), 3.0);
    EXPECT_EQ(avg.count(), 2u);
    avg.reset();
    EXPECT_EQ(avg.count(), 0u);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(4, 10.0); // buckets [0,10) [10,20) [20,30) [30,40)
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(100); // overflow
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, HistogramNegativeSamplesUnderflow)
{
    // The bug class this guards: a negative sample cast to size_t
    // wrapped to a huge index and silently landed in overflow.
    Histogram h(4, 10.0);
    h.sample(-5.0);
    h.sample(-1000.0);
    h.sample(3.0);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_DOUBLE_EQ(h.min(), -1000.0);
    EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(Stats, HistogramTracksTrueMinMax)
{
    Histogram h(4, 10.0);
    // Before any sample, min/max read 0 (not stale extremes).
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    // All-negative samples: max must not stay at a default of 0.
    h.sample(-3.0);
    h.sample(-7.0);
    EXPECT_DOUBLE_EQ(h.min(), -7.0);
    EXPECT_DOUBLE_EQ(h.max(), -3.0);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

namespace
{

/** Exact nearest-rank quantile over a sorted sample vector. */
double
exactQuantile(std::vector<double> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    size_t rank = size_t(std::ceil(q * double(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

} // namespace

TEST(Stats, PercentilesMatchExactQuantilesWithinOneBucket)
{
    // Deterministic pseudo-random-ish spread across the bucket range.
    Histogram h(64, 8.0); // range [0, 512)
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i) {
        const double v = double((i * 37 + 11) % 500);
        samples.push_back(v);
        h.sample(v);
    }
    for (double q : {0.50, 0.90, 0.99, 0.999}) {
        const double exact = exactQuantile(samples, q);
        const double est = h.percentile(q);
        // The estimate is the upper edge of the containing bucket:
        // never below the exact quantile, within one width above.
        EXPECT_GE(est, exact) << "q=" << q;
        EXPECT_LE(est, exact + h.bucketWidth()) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.p50(), h.percentile(0.50));
    EXPECT_DOUBLE_EQ(h.p99(), h.percentile(0.99));
    EXPECT_DOUBLE_EQ(h.p999(), h.percentile(0.999));
}

TEST(Stats, PercentileEdgeCases)
{
    Histogram empty(4, 10.0);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    // A single sample is every percentile.
    Histogram one(4, 10.0);
    one.sample(7.0);
    // Upper bucket edge would be 10; clamped to the true max.
    EXPECT_DOUBLE_EQ(one.p50(), 7.0);
    EXPECT_DOUBLE_EQ(one.p999(), 7.0);

    // Overflow samples report the tracked true max, underflow the
    // true min; out-of-range q is clamped.
    Histogram h(4, 10.0); // range [0, 40)
    h.sample(-5.0);
    h.sample(15.0);
    h.sample(1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(-3.0), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 20.0); // Bucket [10,20) edge.
}

TEST(Stats, PercentileAllSamplesOneBucket)
{
    Histogram h(8, 100.0);
    for (int i = 0; i < 50; ++i)
        h.sample(42.0);
    // Upper edge would be 100, but the estimate clamps to the max.
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(Stats, HistogramRejectsBadGeometry)
{
    EXPECT_THROW(Histogram(4, 0.0), FatalError);
    EXPECT_THROW(Histogram(4, -1.0), FatalError);
    EXPECT_THROW(Histogram(0, 4.0), FatalError);
    EXPECT_DOUBLE_EQ(Histogram(4, 2.5).bucketWidth(), 2.5);
}

// ---------------------------------------------------------------------
// Matrix.
// ---------------------------------------------------------------------

TEST(Matrix, AccessAndBounds)
{
    Matrix<int> m(3, 4, 7);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.at(2, 3), 7);
    m.at(1, 2) = 42;
    EXPECT_EQ(m(1, 2), 42);
    EXPECT_EQ(m.count(7), 11u);
    EXPECT_THROW(m.at(3, 0), PanicError);
    EXPECT_THROW(m.at(0, 4), PanicError);

    Matrix<int> same(3, 4, 7);
    same(1, 2) = 42;
    EXPECT_TRUE(m == same);
    m.fill(0);
    EXPECT_EQ(m.count(0), 12u);
}

// ---------------------------------------------------------------------
// TextTable.
// ---------------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t("demo");
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer-name", "22"});
    EXPECT_EQ(t.rows(), 2u);

    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Header columns align: "value" starts at the same offset in both
    // data rows (the longer name widens the first column everywhere).
    const auto line_start = out.find("x ");
    ASSERT_NE(line_start, std::string::npos);
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

// ---------------------------------------------------------------------
// JsonWriter.
// ---------------------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndEscaping)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "mesa \"quoted\"")
        .field("pes", 128)
        .field("speedup", 1.5)
        .field("ok", true)
        .key("series")
        .beginArray()
        .value(uint64_t(1))
        .value(uint64_t(2))
        .value(uint64_t(3))
        .end()
        .key("nested")
        .beginObject()
        .field("x", 7)
        .end()
        .end();
    EXPECT_TRUE(w.balanced());
    const std::string out = w.str();
    EXPECT_EQ(out,
              "{\"name\":\"mesa \\\"quoted\\\"\",\"pes\":128,"
              "\"speedup\":1.5,\"ok\":true,"
              "\"series\":[1,2,3],\"nested\":{\"x\":7}}");
}

TEST(JsonWriter, AutoClosesUnbalancedScopes)
{
    JsonWriter w;
    w.beginObject().key("a").beginArray().value(1);
    EXPECT_FALSE(w.balanced());
    EXPECT_EQ(w.str(), "{\"a\":[1]}");
}

TEST(JsonWriter, ControlCharactersEscaped)
{
    JsonWriter w;
    w.beginObject().field("s", std::string("a\nb\tc")).end();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\nb\\tc\"}");
}

TEST(JsonWriter, BackslashAndRawControlBytesEscaped)
{
    JsonWriter w;
    w.beginObject()
        .field("path", std::string("C:\\tmp\\x"))
        .field("ctl", std::string("a\x01"
                                  "b"))
        .end();
    EXPECT_EQ(w.str(),
              "{\"path\":\"C:\\\\tmp\\\\x\",\"ctl\":\"a\\u0001b\"}");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter w;
    w.beginObject()
        .field("nan", std::numeric_limits<double>::quiet_NaN())
        .field("inf", std::numeric_limits<double>::infinity())
        .field("ninf", -std::numeric_limits<double>::infinity())
        .field("ok", 1.5)
        .end();
    EXPECT_EQ(w.str(),
              "{\"nan\":null,\"inf\":null,\"ninf\":null,\"ok\":1.5}");
}

TEST(JsonWriter, StrClosesDeeplyNestedScopes)
{
    JsonWriter w;
    w.beginObject().key("a").beginObject().key("b").beginArray().value(
        1);
    EXPECT_FALSE(w.balanced());
    // str() appends the pending closers without mutating the writer.
    EXPECT_EQ(w.str(), "{\"a\":{\"b\":[1]}}");
    EXPECT_EQ(w.str(), "{\"a\":{\"b\":[1]}}");
    w.end().end().end();
    EXPECT_TRUE(w.balanced());
}

TEST(JsonWriter, EmptyContainersAndSiblingCommas)
{
    JsonWriter w;
    w.beginObject()
        .key("empty_obj").beginObject().end()
        .key("empty_arr").beginArray().end()
        .field("after", 1)
        .end();
    EXPECT_EQ(w.str(),
              "{\"empty_obj\":{},\"empty_arr\":[],\"after\":1}");
}

// ---------------------------------------------------------------------
// JSON reader: it parses files from disk, so hostile input must fail
// cleanly.
// ---------------------------------------------------------------------

TEST(JsonParse, NestingPastTheCapIsRejected)
{
    const auto arrays = [](int depth) {
        return std::string(size_t(depth), '[') +
               std::string(size_t(depth), ']');
    };
    EXPECT_TRUE(parseJson(arrays(MaxJsonDepth)).has_value());
    EXPECT_FALSE(parseJson(arrays(MaxJsonDepth + 1)).has_value());

    std::string objects;
    for (int i = 0; i <= MaxJsonDepth; ++i)
        objects += "{\"k\":";
    objects += "0" + std::string(size_t(MaxJsonDepth) + 1, '}');
    EXPECT_FALSE(parseJson(objects).has_value());

    // Unbounded recursion overflowed an 8 MiB stack on this input.
    EXPECT_FALSE(parseJson(std::string(1'000'000, '[')).has_value());
}

TEST(JsonParse, MutatedProfBaselineFailsCleanly)
{
    std::ifstream f(std::string(MESA_SOURCE_DIR) +
                    "/baselines/mesa_prof_baseline.json");
    ASSERT_TRUE(f);
    const std::string text((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    const auto doc = parseJson(text);
    ASSERT_TRUE(doc && doc->isObject());

    SplitMix64 rng(22);
    const std::string structural = "{}[]\",:\\0-e.";
    constexpr int Mutations = 250;
    int parsed = 0;
    for (int i = 0; i < Mutations; ++i) {
        std::string m = text;
        const size_t at = rng.below(m.size());
        switch (rng.below(4)) {
          case 0: // bit flip
            m[at] = char(m[at] ^ (1 << rng.below(8)));
            break;
          case 1: // a byte the grammar cares about
            m[at] = structural[rng.below(structural.size())];
            break;
          case 2: // truncation
            m.resize(at);
            break;
          default: // a deep run of openers
            m.insert(at, size_t(rng.range(1, 2 * MaxJsonDepth)), '[');
            break;
        }
        const auto out = parseJson(m);
        parsed += out.has_value();
    }
    // Flips inside strings and numbers still parse; the rest fail.
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, Mutations);
}

// ---------------------------------------------------------------------
// Logging.
// ---------------------------------------------------------------------

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("broken ", 42), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        panic("value=", 7, " end");
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7 end"),
                  std::string::npos);
    }
    // MESA_ASSERT passes on true, throws with context on false.
    MESA_ASSERT(1 + 1 == 2);
    EXPECT_THROW(MESA_ASSERT(false, "context"), PanicError);
}

} // namespace
