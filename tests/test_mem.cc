/**
 * @file
 * Memory-system tests: main memory, set-associative caches, the
 * two-level hierarchy with AMAT counters, and the accelerator-side
 * load/store unit (ordering, forwarding, invalidation, ports).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/lsq.hh"
#include "mem/memory.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace
{

using namespace mesa;
using namespace mesa::mem;
using riscv::Op;

TEST(MainMemory, ReadWriteWidths)
{
    MainMemory m;
    m.write32(0x1000, 0xDEADBEEF);
    EXPECT_EQ(m.read32(0x1000), 0xDEADBEEFu);
    EXPECT_EQ(m.read16(0x1000), 0xBEEFu);
    EXPECT_EQ(m.read16(0x1002), 0xDEADu);
    EXPECT_EQ(m.read8(0x1003), 0xDEu);

    m.write8(0x1001, 0x42);
    EXPECT_EQ(m.read32(0x1000), 0xDEAD42EFu);

    // Unaligned access.
    m.write32(0x2002, 0x11223344);
    EXPECT_EQ(m.read32(0x2002), 0x11223344u);

    // Cross-page access.
    m.write32(0x2FFE, 0xAABBCCDD);
    EXPECT_EQ(m.read32(0x2FFE), 0xAABBCCDDu);

    // Untouched memory reads zero.
    EXPECT_EQ(m.read32(0x999000), 0u);
}

TEST(MainMemory, FloatAccessAndSnapshot)
{
    MainMemory m;
    m.writeFloat(0x3000, 3.25f);
    EXPECT_FLOAT_EQ(m.readFloat(0x3000), 3.25f);

    auto snap = m.snapshot();
    EXPECT_EQ(snap.size(), m.residentPages());
    m.writeFloat(0x3000, 9.5f);
    // Snapshot is a deep copy.
    MainMemory m2;
    EXPECT_FLOAT_EQ(m.readFloat(0x3000), 9.5f);
    const auto &page = snap.at(0x3000 >> 12);
    float old;
    std::memcpy(&old, page.data(), 4);
    EXPECT_FLOAT_EQ(old, 3.25f);
}

TEST(MainMemory, WriteBlockMatchesByteWrites)
{
    std::vector<uint8_t> data(3 * MainMemory::PageSize + 123);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 37 + 11);
    const uint32_t base = 0x4000 - 77; // starts mid-page, crosses 4 edges
    MainMemory block, bytes;
    block.writeBlock(base, data.data(), data.size());
    for (size_t i = 0; i < data.size(); ++i)
        bytes.write8(base + uint32_t(i), data[i]);
    EXPECT_EQ(block.snapshot(), bytes.snapshot());
    EXPECT_EQ(block.residentPages(), 5u);

    // A zero-length block touches nothing.
    block.writeBlock(0x900000, data.data(), 0);
    EXPECT_EQ(block.residentPages(), 5u);
}

TEST(MainMemory, EveryWriteMovesTheGenerationOfEachPageItTouches)
{
    MainMemory m;
    m.write8(0x1000, 1);
    m.write8(0x2000, 1);
    m.write8(0x3000, 1);
    const uint64_t *g1 = m.pageGenPtr(0x1000);
    const uint64_t *g2 = m.pageGenPtr(0x2000);
    const uint64_t *g3 = m.pageGenPtr(0x3000);
    ASSERT_TRUE(g1 && g2 && g3);

    // Alternate pages so the write memo both hits and misses.
    uint64_t before = *g1;
    m.write8(0x1004, 2);
    EXPECT_GT(*g1, before);
    before = *g2;
    m.write16(0x2006, 2);
    EXPECT_GT(*g2, before);
    before = *g2;
    m.write32(0x2008, 2); // memo hit
    EXPECT_GT(*g2, before);
    before = *g1;
    m.write32(0x1001, 2); // unaligned
    EXPECT_GT(*g1, before);
    before = *g1;
    m.writeFloat(0x1010, 1.5f);
    EXPECT_GT(*g1, before);

    // A block crossing the 0x1000/0x2000/0x3000 edges moves all three.
    const uint64_t b1 = *g1, b2 = *g2, b3 = *g3;
    std::vector<uint8_t> data(MainMemory::PageSize + 64, 0x7f);
    m.writeBlock(0x2000 - 32, data.data(), data.size());
    EXPECT_GT(*g1, b1);
    EXPECT_GT(*g2, b2);
    EXPECT_GT(*g3, b3);

    // Writing the same value still moves the generation.
    before = *g3;
    m.write8(0x3000, m.read8(0x3000));
    EXPECT_GT(*g3, before);
}

TEST(MainMemory, ClearResetsTheWriteMemo)
{
    MainMemory m;
    m.write32(0x5000, 0x11111111); // memo now names page 5
    const uint64_t epoch = m.epoch();
    m.clear();
    EXPECT_GT(m.epoch(), epoch);
    EXPECT_EQ(m.residentPages(), 0u);
    EXPECT_EQ(m.read32(0x5000), 0u);
    EXPECT_EQ(m.pageGenPtr(0x5000), nullptr);
    // Same page again: must allocate a fresh page, not reuse the
    // freed one the memo and the directory named.
    m.write32(0x5004, 0x22222222);
    EXPECT_EQ(m.residentPages(), 1u);
    EXPECT_EQ(m.read32(0x5000), 0u);
    EXPECT_EQ(m.read32(0x5004), 0x22222222u);
}

TEST(MainMemory, MoveConstructionResetsTheWriteMemoOnBothSides)
{
    MainMemory a;
    a.write32(0x6000, 0xaaaaaaaa); // a's memo names page 6
    MainMemory b(std::move(a));
    EXPECT_EQ(b.read32(0x6000), 0xaaaaaaaau);

    // The moved-from memory is empty and writes into its own page.
    EXPECT_EQ(a.residentPages(), 0u); // NOLINT(bugprone-use-after-move)
    a.write32(0x6000, 0xbbbbbbbb);
    EXPECT_EQ(a.read32(0x6000), 0xbbbbbbbbu);
    EXPECT_EQ(b.read32(0x6000), 0xaaaaaaaau);

    b.write32(0x6004, 0xcccccccc);
    EXPECT_EQ(b.read32(0x6004), 0xccccccccu);
    EXPECT_EQ(a.read32(0x6004), 0u);
}

TEST(MainMemory, MoveAssignmentResetsTheWriteMemoOnBothSides)
{
    MainMemory a, b;
    a.write32(0x7000, 0xaaaaaaaa); // a's memo names page 7
    b.write32(0x7000, 0xdddddddd); // b's memo names its own page 7
    const uint64_t b_epoch = b.epoch();
    const uint64_t a_epoch = a.epoch();
    b = std::move(a);
    EXPECT_GT(b.epoch(), b_epoch); // b's old pages are gone
    EXPECT_GT(a.epoch(), a_epoch); // so are a's
    EXPECT_EQ(b.read32(0x7000), 0xaaaaaaaau);

    // b must write into the page it now owns, not its freed one.
    b.write32(0x7004, 0xeeeeeeee);
    EXPECT_EQ(b.read32(0x7004), 0xeeeeeeeeu);
    EXPECT_EQ(b.read32(0x7000), 0xaaaaaaaau);

    // a must not write into b's page.
    a.write32(0x7000, 0xbbbbbbbb); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.read32(0x7000), 0xbbbbbbbbu);
    EXPECT_EQ(b.read32(0x7000), 0xaaaaaaaau);
    EXPECT_EQ(a.residentPages(), 1u);
}

TEST(MainMemory, PagesVisitedInPlaceAndZeroTest)
{
    MainMemory m;
    m.write8(0x1000, 0); // resident but all zero
    m.write8(0x2fff, 9);
    size_t visited = 0;
    m.forEachPage([&](uint32_t pn, auto bytes) {
        ++visited;
        EXPECT_EQ(bytes.size(), MainMemory::PageSize);
        EXPECT_EQ(isZeroPage(bytes), pn == 1);
        if (pn == 2) {
            EXPECT_EQ(bytes[0xfff], 9);
        }
    });
    EXPECT_EQ(visited, 2u);

    // Word-wise zero test with a sub-word tail.
    std::vector<uint8_t> v(13, 0);
    EXPECT_TRUE(isZeroPage(v));
    v[12] = 1;
    EXPECT_FALSE(isZeroPage(v));
    v[12] = 0;
    v[3] = 1;
    EXPECT_FALSE(isZeroPage(v));
    EXPECT_TRUE(isZeroPage({}));
}

TEST(MainMemory, DirectoryCoversPageZeroAndTheTopPage)
{
    MainMemory m;
    EXPECT_EQ(m.read32(0x0), 0u);
    EXPECT_EQ(m.pageGenPtr(0x0), nullptr);
    EXPECT_EQ(m.pageGenPtr(0xFFFFF000u), nullptr);
    EXPECT_EQ(m.residentPages(), 0u); // reads never allocate

    m.write32(0x0, 0x01020304);
    m.write32(0xFFFFFFFCu, 0xa1b2c3d4);
    m.write8(0xFFFFF000u, 0x5a);
    EXPECT_EQ(m.read32(0x0), 0x01020304u);
    EXPECT_EQ(m.read32(0xFFFFFFFCu), 0xa1b2c3d4u);
    EXPECT_EQ(m.read8(0xFFFFF000u), 0x5au);
    EXPECT_EQ(m.residentPages(), 2u);
    EXPECT_NE(m.pageGenPtr(0x0), nullptr);
    EXPECT_NE(m.pageGenPtr(0xFFFFFFFFu), nullptr);
    const auto span = m.residentSpan();
    EXPECT_EQ(span.first, 0u);
    EXPECT_EQ(span.second, uint64_t(1) << 32);
    m.write8(0x00345000u, 1); // written last, visited in the middle
    std::vector<uint32_t> visited;
    m.forEachPage([&](uint32_t pn, auto) { visited.push_back(pn); });
    EXPECT_EQ(visited, (std::vector<uint32_t>{0x0, 0x345, 0xFFFFF}));

    // Neighbours in the same leaf stay absent.
    EXPECT_EQ(m.pageGenPtr(0x1000), nullptr);
    EXPECT_EQ(m.pageGenPtr(0xFFFFE000u), nullptr);
    EXPECT_EQ(m.read32(0xFFFFEFFCu), 0u);
}

TEST(MainMemory, UnalignedReadAcrossAPageBoundary)
{
    MainMemory m;
    m.write8(0x1FFE, 0x11);
    m.write8(0x1FFF, 0x22);
    m.write8(0x2000, 0x33);
    m.write8(0x2001, 0x44);
    EXPECT_EQ(m.read32(0x1FFE), 0x44332211u);
    EXPECT_EQ(m.read16(0x1FFF), 0x3322u);
    m.write32(0x2FFD, 0xddccbbaa); // three bytes in page 2, one in 3
    EXPECT_EQ(m.read32(0x2FFD), 0xddccbbaau);
    EXPECT_EQ(m.read8(0x3000), 0xddu);
    EXPECT_EQ(m.read8(0x3001), 0u);

    // Half the word on a page that is not resident reads as zero, and
    // the edges of a directory leaf (256 KiB) and of a mid node
    // (16 MiB) are page edges like any other.
    EXPECT_EQ(m.read32(0x4FFE), 0u);
    for (const uint32_t edge : {0x40000u, 0x1000000u}) {
        m.write16(edge - 2, 0xbeef);
        EXPECT_EQ(m.read32(edge - 2), 0x0000beefu);
        m.write16(edge, 0xcafe);
        EXPECT_EQ(m.read32(edge - 2), 0xcafebeefu);
    }

    // The top of the address space wraps to page 0.
    m.write8(0xFFFFFFFFu, 0x99);
    m.write8(0x0, 0x77);
    EXPECT_EQ(m.read16(0xFFFFFFFFu), 0x7799u);
}

TEST(MainMemory, PageGenPtrIsStableWhileThePageLives)
{
    MainMemory m;
    m.write8(0x10000, 1);
    const uint64_t *gen = m.pageGenPtr(0x10000);
    ASSERT_NE(gen, nullptr);
    // Fill pages across many leaves and two mid nodes: the pointer
    // must not move.
    for (uint32_t pn = 0; pn < 600; ++pn)
        m.write8(pn * 0x1000u * 7u + 0x20000u, uint8_t(pn));
    EXPECT_EQ(m.pageGenPtr(0x10000), gen);
    EXPECT_EQ(m.pageGenPtr(0x10FFF), gen);
    const uint64_t before = *gen;
    m.write8(0x10800, 2);
    EXPECT_GT(*gen, before);

    // Moving the memory moves its pages, not their addresses.
    MainMemory n(std::move(m));
    EXPECT_EQ(n.pageGenPtr(0x10000), gen);
    // NOLINTBEGIN(bugprone-use-after-move): moved-from means empty.
    EXPECT_EQ(m.pageGenPtr(0x10000), nullptr);
    EXPECT_EQ(m.read8(0x10800), 0u);
    // NOLINTEND(bugprone-use-after-move)
}

TEST(Cache, HitsAndMisses)
{
    CacheParams p{1024, 2, 64, 1};
    Cache c("t", p);
    EXPECT_FALSE(c.access(0x0, false)); // cold miss
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_TRUE(c.access(0x3C, false)); // same line
    EXPECT_FALSE(c.access(0x40, false));
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 2 sets -> way capacity 2 per set.
    CacheParams p{256, 2, 64, 1};
    Cache c("t", p);
    ASSERT_EQ(c.numSets(), 2u);
    // Three lines mapping to set 0: 0x000, 0x080, 0x100.
    c.access(0x000, false);
    c.access(0x080, false);
    c.access(0x000, false); // touch 0x000 -> 0x080 becomes LRU
    c.access(0x100, false); // evicts 0x080
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x080));
    EXPECT_TRUE(c.probe(0x100));
}

TEST(Cache, DirtyWritebacks)
{
    CacheParams p{128, 1, 64, 1}; // direct-mapped, 2 sets
    Cache c("t", p);
    c.access(0x000, true);  // dirty
    c.access(0x080, false); // evicts dirty 0x000 -> writeback
    EXPECT_EQ(c.writebacks(), 1u);
    c.access(0x100, false); // evicts clean 0x080 -> no writeback
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, FlatLayoutFlushAndPerSetLru)
{
    // 4 sets x 4 ways of 64B lines; set s holds lines whose line
    // number is s mod 4, so 0x100 * k + 0x40 * s walks set s.
    CacheParams p{1024, 4, 64, 1};
    Cache c("t", p);
    ASSERT_EQ(c.numSets(), 4u);
    auto lineOf = [](uint32_t set, uint32_t way) {
        return 0x100 * way + 0x40 * set;
    };
    for (uint32_t s = 0; s < 4; ++s)
        for (uint32_t w = 0; w < 4; ++w)
            EXPECT_FALSE(c.access(lineOf(s, w), w % 2 == 0));
    for (uint32_t s = 0; s < 4; ++s)
        for (uint32_t w = 0; w < 4; ++w)
            EXPECT_TRUE(c.probe(lineOf(s, w)));

    // Each set evicts its own LRU way, in its own order: set s
    // re-touches every way except way s, so way s is the victim of
    // the set's next miss and no other set loses a line.
    for (uint32_t s = 0; s < 4; ++s) {
        for (uint32_t w = 0; w < 4; ++w) {
            if (w != s) {
                EXPECT_TRUE(c.access(lineOf(s, w), false));
            }
        }
    }
    for (uint32_t s = 0; s < 4; ++s) {
        EXPECT_FALSE(c.access(lineOf(s, 4), false));
        for (uint32_t w = 0; w < 5; ++w)
            EXPECT_EQ(c.probe(lineOf(s, w)), w != s)
                << "set " << s << " way " << w;
    }
    // Ways 0 and 2 were written; sets 0 and 2 evicted one of them.
    EXPECT_EQ(c.writebacks(), 2u);

    c.flush();
    for (uint32_t s = 0; s < 4; ++s)
        for (uint32_t w = 0; w < 5; ++w)
            EXPECT_FALSE(c.probe(lineOf(s, w)));
    // Flushed lines are invalid, not dirty: refills write nothing back.
    for (uint32_t s = 0; s < 4; ++s)
        for (uint32_t w = 0; w < 5; ++w)
            c.access(lineOf(s, w), false);
    EXPECT_EQ(c.writebacks(), 2u);
}

TEST(Cache, BadGeometryRejected)
{
    EXPECT_THROW((Cache("t", CacheParams{100, 3, 48, 1})),
                 mesa::FatalError);
    EXPECT_THROW((Cache("t", CacheParams{1024, 0, 64, 1})),
                 mesa::FatalError);
    // Three sets of four 64-byte ways: not a power of two.
    EXPECT_THROW((Cache("t", CacheParams{768, 4, 64, 1})),
                 mesa::FatalError);
    EXPECT_NO_THROW((Cache("t", CacheParams{1024, 4, 64, 1})));
}

TEST(Cache, DefaultGeometriesMapSetsAndTags)
{
    // Line number modulo the set count picks the set; the rest is the
    // tag. assoc + 1 lines one set-span apart share a set, so the
    // last evicts the first; the next line over is another set.
    const HierarchyParams defaults;
    for (const CacheParams &p : {defaults.l1, defaults.l2}) {
        Cache c("t", p);
        const size_t sets = p.size_bytes / p.line_bytes / p.assoc;
        ASSERT_EQ(c.numSets(), sets);
        const uint32_t span = uint32_t(sets * p.line_bytes);
        const uint32_t base = 0x40 + 5 * uint32_t(p.line_bytes);
        // Same tag, set s + sets/2: every set-index bit takes part.
        EXPECT_FALSE(c.access(base, false));
        EXPECT_FALSE(c.probe(base + span / 2));
        c.flush();
        for (uint32_t w = 0; w <= p.assoc; ++w)
            EXPECT_FALSE(c.access(base + w * span, false));
        EXPECT_FALSE(c.probe(base));
        for (uint32_t w = 1; w <= p.assoc; ++w)
            EXPECT_TRUE(c.probe(base + w * span));
        // Neighbouring sets and a same-set line of another tag.
        EXPECT_FALSE(c.probe(base + uint32_t(p.line_bytes)));
        EXPECT_FALSE(c.probe(base - uint32_t(p.line_bytes)));
        EXPECT_FALSE(c.access(base + uint32_t(p.line_bytes), false));
        EXPECT_TRUE(c.probe(base + span)); // other set, nothing evicted
        // Every byte of a line hits the same set and tag.
        EXPECT_TRUE(c.access(base + span + uint32_t(p.line_bytes) - 1,
                             false));
        // The top tag of the address space is a tag like any other.
        const uint32_t top = 0xFFFFFFFFu - uint32_t(p.line_bytes) + 1;
        EXPECT_FALSE(c.access(top, false));
        EXPECT_TRUE(c.probe(0xFFFFFFFFu));
        EXPECT_FALSE(c.probe(top - span));
    }
}

TEST(Hierarchy, LatencyComposition)
{
    HierarchyParams p;
    p.l1 = {1024, 2, 64, 2};
    p.l2 = {16384, 4, 64, 10};
    p.dram_latency = 100;
    MemHierarchy h(p);

    // Cold: L1 miss + L2 miss + DRAM.
    EXPECT_EQ(h.accessLatency(0x0, false), 2u + 10u + 100u);
    // Warm: L1 hit.
    EXPECT_EQ(h.accessLatency(0x0, false), 2u);
    EXPECT_EQ(h.dramAccesses(), 1u);
    EXPECT_GT(h.amat(), 0.0);
}

TEST(Hierarchy, SharedL2)
{
    HierarchyParams p;
    Cache shared("l2", p.l2);
    MemHierarchy a(p, &shared);
    MemHierarchy b(p, &shared);

    a.accessLatency(0x5000, false); // a warms the shared L2
    // b misses its own L1 but hits the shared L2.
    const uint32_t lat = b.accessLatency(0x5000, false);
    EXPECT_EQ(lat, p.l1.hit_latency + p.l2.hit_latency);
    EXPECT_EQ(b.dramAccesses(), 0u);
}

TEST(Hierarchy, SharedL2IsTheOnlyL2)
{
    // A hierarchy over a shared L2 holds no L2 of its own: l2() and
    // the registered stats both resolve to the shared cache.
    HierarchyParams p;
    Cache shared("shared-l2", p.l2);
    MemHierarchy h(p, &shared);
    EXPECT_EQ(&h.l2(), &shared);
    EXPECT_EQ(&std::as_const(h).l2(), &shared);

    StatsRegistry reg;
    h.registerStats(reg, "cpu.");
    h.accessLatency(0x7000, false); // L1 miss, shared L2 miss
    h.accessLatency(0x7000, false); // L1 hit
    EXPECT_EQ(shared.misses(), 1u);
    EXPECT_EQ(reg.value("cpu.l2.misses"), 1.0);
    shared.access(0x7000, false); // another core's hit, same counters
    EXPECT_EQ(reg.value("cpu.l2.hits"), 1.0);

    // Without a shared L2 the hierarchy still owns one.
    MemHierarchy own(p);
    EXPECT_NE(&own.l2(), &shared);
    EXPECT_EQ(own.accessLatency(0x7000, false),
              p.l1.hit_latency + p.l2.hit_latency + p.dram_latency);
    EXPECT_EQ(own.l2().misses(), 1u);
    own.l1().flush();
    EXPECT_EQ(own.accessLatency(0x7000, false),
              p.l1.hit_latency + p.l2.hit_latency);
    EXPECT_EQ(shared.misses(), 1u);
}

TEST(Hierarchy, NextLinePrefetcherHelpsStreams)
{
    HierarchyParams with;
    with.next_line_prefetch = true;
    HierarchyParams without;
    MemHierarchy hp(with), hn(without);

    uint64_t cyc_with = 0, cyc_without = 0;
    for (uint32_t i = 0; i < 4096; i += 4) {
        cyc_with += hp.accessLatency(0x40000 + i, false);
        cyc_without += hn.accessLatency(0x40000 + i, false);
    }
    EXPECT_LT(cyc_with, cyc_without)
        << "forward stream should hit prefetched lines";
    // The prefetcher fetches each next line exactly once: DRAM
    // traffic must not blow up.
    EXPECT_LE(hp.dramAccesses(), hn.dramAccesses() + 2);
}

TEST(Hierarchy, PrefetchWarmsWithoutAmatNoise)
{
    HierarchyParams p;
    MemHierarchy h(p);
    h.prefetch(0x8000);
    EXPECT_EQ(h.accesses(), 0u); // AMAT untouched
    EXPECT_EQ(h.accessLatency(0x8000, false), p.l1.hit_latency);
}

// ---------------------------------------------------------------------
// Load/store unit.
// ---------------------------------------------------------------------

struct LsuFixture : ::testing::Test
{
    MainMemory memory;
    MemHierarchy hierarchy;
    PortPool ports{2};
    LoadStoreUnit lsu{memory, hierarchy, ports, 16};
};

TEST_F(LsuFixture, StoreLoadForwardingSameIteration)
{
    lsu.beginIteration();
    lsu.store(1, 0x1000, 42, Op::Sw, 10);
    const LoadResult r = lsu.load(2, 0x1000, Op::Lw, 5);
    EXPECT_TRUE(r.forwarded);
    EXPECT_EQ(r.value, 42u);
    // Forwarded one broadcast cycle after the store data (cycle 10).
    EXPECT_EQ(r.done_cycle, 11u);
    EXPECT_TRUE(r.invalidated); // load was ready before the store
    EXPECT_EQ(lsu.forwards(), 1u);
}

TEST_F(LsuFixture, OlderLoadDoesNotForwardFromYoungerStore)
{
    lsu.beginIteration();
    lsu.store(5, 0x1000, 42, Op::Sw, 0);
    const LoadResult r = lsu.load(3, 0x1000, Op::Lw, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_EQ(r.value, 0u); // memory value, not the younger store's
}

TEST_F(LsuFixture, CommitInProgramOrder)
{
    lsu.beginIteration();
    // Two stores to the same address; the older one is ready later.
    lsu.store(3, 0x2000, 3, Op::Sw, 90);
    lsu.store(7, 0x2000, 7, Op::Sw, 50);
    lsu.commitStores();
    // Program order: seq 3 then seq 7 -> final value is 7.
    EXPECT_EQ(memory.read32(0x2000), 7u);
}

TEST_F(LsuFixture, StoresArriveInProgramOrder)
{
    // The device loop buffers stores in seq order; commit relies on
    // it, so an older (or repeated) seq after a younger one panics.
    lsu.beginIteration();
    lsu.store(7, 0x2000, 7, Op::Sw, 50);
    EXPECT_THROW(lsu.store(3, 0x2000, 3, Op::Sw, 90), mesa::PanicError);
    EXPECT_THROW(lsu.store(7, 0x2004, 7, Op::Sw, 50), mesa::PanicError);
    // A new iteration starts a new order.
    lsu.commitStores();
    lsu.beginIteration();
    EXPECT_NO_THROW(lsu.store(3, 0x2000, 3, Op::Sw, 90));
}

TEST_F(LsuFixture, OverlappingStoresCommitInProgramOrder)
{
    // One iteration, four stores over the bytes of one word, ready in
    // the reverse of program order, then a store to another line.
    // Default hierarchy: a cold write costs 2 + 18 + 120 cycles, a
    // warm one 2.
    lsu.beginIteration();
    memory.write32(0x8000, 0x99999999);
    lsu.store(1, 0x8000, 0x11223344, Op::Sw, 40);
    lsu.store(2, 0x8001, 0xAA, Op::Sb, 30);
    lsu.store(3, 0x8002, 0xBBCC, Op::Sh, 20);
    lsu.store(4, 0x8003, 0xDD, Op::Sb, 10);
    lsu.store(5, 0xA000, 0xEEEEEEEE, Op::Sw, 0);
    // Before commit a load sees exactly its older stores.
    EXPECT_EQ(lsu.peek(2, 0x8000, Op::Lw), 0x11223344u);
    EXPECT_EQ(lsu.peek(4, 0x8000, Op::Lw), 0xBBCCAA44u);
    EXPECT_EQ(lsu.peek(9, 0x8000, Op::Lw), 0xDDCCAA44u);
    EXPECT_EQ(memory.read32(0x8000), 0x99999999u);

    // In-order commit: seq 1 issues at 40 and each later store one
    // cycle after its predecessor (41, 42, 43, 44), so the cold store
    // to 0xA000 completes at 44 + 140.
    EXPECT_EQ(lsu.commitStores(), 44u + 140u);
    EXPECT_EQ(memory.read32(0x8000), 0xDDCCAA44u);
    EXPECT_EQ(memory.read32(0xA000), 0xEEEEEEEEu);
}

TEST_F(LsuFixture, PeekAppliesOlderStores)
{
    lsu.beginIteration();
    memory.write32(0x3000, 0x11111111);
    lsu.store(2, 0x3000, 0xAABBCCDD, Op::Sw, 0);
    lsu.store(4, 0x3001, 0xEE, Op::Sb, 0);
    EXPECT_EQ(lsu.peek(3, 0x3000, Op::Lw), 0xAABBCCDDu);
    EXPECT_EQ(lsu.peek(5, 0x3000, Op::Lw), 0xAABBEEDDu);
    EXPECT_EQ(lsu.peek(1, 0x3000, Op::Lw), 0x11111111u);
}

TEST_F(LsuFixture, YoungestOlderStoreForwards)
{
    lsu.beginIteration();
    // Three stores to one address interleaved with another address;
    // each carries a distinct value and ready cycle.
    lsu.store(1, 0x7000, 101, Op::Sw, 10);
    lsu.store(2, 0x7004, 202, Op::Sw, 20);
    lsu.store(3, 0x7000, 303, Op::Sw, 30);
    lsu.store(6, 0x7000, 606, Op::Sw, 60);
    // seq 4 sees seq 3 (youngest older), never seq 6 (younger).
    LoadResult r = lsu.load(4, 0x7000, Op::Lw, 0);
    EXPECT_TRUE(r.forwarded);
    EXPECT_EQ(r.value, 303u);
    EXPECT_EQ(r.done_cycle, 31u);
    // seq 2 sees only seq 1.
    r = lsu.load(2, 0x7000, Op::Lw, 50);
    EXPECT_TRUE(r.forwarded);
    EXPECT_EQ(r.value, 101u);
    EXPECT_EQ(r.done_cycle, 51u);
    EXPECT_FALSE(r.invalidated);
    // seq 7 sees seq 6; seq 1 sees none of them.
    EXPECT_EQ(lsu.load(7, 0x7000, Op::Lw, 0).value, 606u);
    r = lsu.load(1, 0x7000, Op::Lw, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_EQ(r.value, 0u);
    EXPECT_EQ(lsu.forwards(), 3u);
    // A committed buffer forwards nothing.
    lsu.commitStores();
    r = lsu.load(9, 0x7000, Op::Lw, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_EQ(r.value, 606u);
}

TEST_F(LsuFixture, SubWordStoreAtTopOfAddressSpace)
{
    // The peek window [base, base + 8) of 0xFFFFFFF8 ends past 2^32;
    // it must still see the older buffered byte store.
    lsu.beginIteration();
    lsu.store(1, 0xFFFFFFF9u, 0xA5, Op::Sb, 0);
    const LoadResult r = lsu.load(2, 0xFFFFFFF9u, Op::Lbu, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_TRUE(r.invalidated);
    EXPECT_EQ(r.value, 0xA5u);
    EXPECT_EQ(lsu.peek(2, 0xFFFFFFF8u, Op::Lw), 0x0000A500u);
    EXPECT_EQ(lsu.peek(1, 0xFFFFFFF9u, Op::Lbu), 0u); // not older
    lsu.commitStores();
    EXPECT_EQ(memory.read8(0xFFFFFFF9u), 0xA5u);
}

TEST_F(LsuFixture, PartialWidthOverlapInvalidates)
{
    lsu.beginIteration();
    lsu.store(1, 0x4000, 0xFF, Op::Sb, 20);
    const LoadResult r = lsu.load(2, 0x4000, Op::Lw, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_TRUE(r.invalidated);
    EXPECT_EQ(r.value & 0xFFu, 0xFFu);
    EXPECT_GE(r.done_cycle, 20u);
}

TEST_F(LsuFixture, PortContentionSerializes)
{
    lsu.beginIteration();
    // Four loads all ready at cycle 0 with 2 ports: issue cycles must
    // spread (0, 0, 1, 1).
    uint64_t max_done = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const LoadResult r =
            lsu.load(i, 0x5000 + 64 * i, Op::Lw, 0);
        max_done = std::max(max_done, r.done_cycle);
    }
    // A single access takes hierarchy latency L; with serialization
    // the last one finishes at >= 1 + L.
    MemHierarchy fresh;
    const uint32_t single = fresh.accessLatency(0x9000, false);
    EXPECT_GE(max_done, 1u + single);
}

TEST_F(LsuFixture, AmatCountersPerEntry)
{
    lsu.beginIteration();
    lsu.load(0, 0x6000, Op::Lw, 0);
    lsu.load(0, 0x6000, Op::Lw, 100); // second, now a cache hit
    EXPECT_GT(lsu.entryAmat(0), 0.0);
    EXPECT_GT(lsu.overallAmat(), 0.0);
    lsu.resetStats();
    EXPECT_EQ(lsu.loads(), 0u);
    EXPECT_EQ(lsu.entryAmat(0), 0.0);
}

TEST(PortPool, IdealWhenHuge)
{
    PortPool pool(64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(pool.acquire(0), 0u);
    EXPECT_EQ(pool.acquire(0), 1u);
    pool.reset();
    EXPECT_EQ(pool.acquire(0), 0u);
}

} // namespace
