/**
 * @file
 * Flat sparse byte-addressable main memory backing both the CPU
 * emulator and the accelerator's load/store entries. Pages are
 * allocated lazily so large address spaces cost nothing until touched.
 *
 * Every page carries a monotonically increasing write-generation
 * counter so consumers that cache derived views of memory (the
 * emulator's decoded basic-block cache) can validate with one integer
 * compare instead of re-reading the bytes. clear() bumps a separate
 * epoch counter, which is the signal that any cached page pointer is
 * dead (pages are otherwise never deallocated).
 *
 * Pages are found through a three-level page directory indexed by
 * slices of the page number (root, mid node, leaf of pages). The root
 * lives in the object; each mid node and leaf is allocated by the
 * first write into its range. A read is three indexed loads that
 * never hash and never allocate,
 * and touches no mutable state: concurrent readers of one memory
 * stay race-free. The leaves own the pages, so whole-memory walks
 * visit them in page-number order.
 *
 * The write path remembers the last page it resolved, so a run of
 * writes to one page (loading a program or a data set) costs one
 * compare. Const reads never touch that memo.
 */

#ifndef MESA_MEM_MEMORY_HH
#define MESA_MEM_MEMORY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mesa::mem
{

/** Sparse paged physical memory with little-endian accessors. */
class MainMemory
{
  public:
    static constexpr uint32_t PageShift = 12;
    static constexpr uint32_t PageSize = 1u << PageShift;

    MainMemory() = default;

    /** Take @p o's pages; @p o is left empty, as after clear(). */
    MainMemory(MainMemory &&o) noexcept
        : root_(std::move(o.root_)), resident_(o.resident_),
          epoch_(o.epoch_)
    {
        o.clear();
    }

    /**
     * Take @p o's pages. Both memories drop their write memo (it would
     * name a page the other object now owns) and move their epoch,
     * since every page either held before is gone from it.
     */
    MainMemory &
    operator=(MainMemory &&o) noexcept
    {
        if (this != &o) {
            root_ = std::move(o.root_);
            resident_ = o.resident_;
            memo_ = nullptr;
            epoch_ = std::max(epoch_, o.epoch_) + 1;
            o.clear();
        }
        return *this;
    }

    uint8_t
    read8(uint32_t addr) const
    {
        const Page *p = findPage(addr);
        return p ? p->bytes[addr & (PageSize - 1)] : 0;
    }

    void
    write8(uint32_t addr, uint8_t v)
    {
        Page &p = page(addr);
        ++p.gen;
        p.bytes[addr & (PageSize - 1)] = v;
    }

    uint16_t
    read16(uint32_t addr) const
    {
        return uint16_t(read8(addr)) | (uint16_t(read8(addr + 1)) << 8);
    }

    void
    write16(uint32_t addr, uint16_t v)
    {
        write8(addr, uint8_t(v));
        write8(addr + 1, uint8_t(v >> 8));
    }

    uint32_t
    read32(uint32_t addr) const
    {
        // Fast path for aligned access within one page.
        if ((addr & 3) == 0) {
            const Page *p = findPage(addr);
            if (!p)
                return 0;
            uint32_t v;
            std::memcpy(&v, p->bytes.data() + (addr & (PageSize - 1)), 4);
            return v;
        }
        return uint32_t(read16(addr)) | (uint32_t(read16(addr + 2)) << 16);
    }

    void
    write32(uint32_t addr, uint32_t v)
    {
        if ((addr & 3) == 0) {
            Page &p = page(addr);
            ++p.gen;
            std::memcpy(p.bytes.data() + (addr & (PageSize - 1)), &v, 4);
            return;
        }
        write16(addr, uint16_t(v));
        write16(addr + 2, uint16_t(v >> 16));
    }

    float
    readFloat(uint32_t addr) const
    {
        return std::bit_cast<float>(read32(addr));
    }

    void
    writeFloat(uint32_t addr, float v)
    {
        write32(addr, std::bit_cast<uint32_t>(v));
    }

    /**
     * Copy a block of bytes into memory (program/data loading), one
     * page-sized chunk at a time: one page lookup and one generation
     * bump per page touched. Addresses wrap at 2^32 like write8's.
     */
    void
    writeBlock(uint32_t addr, const void *src, size_t len)
    {
        const auto *bytes = static_cast<const uint8_t *>(src);
        while (len > 0) {
            const uint32_t off = addr & (PageSize - 1);
            const size_t n = std::min<size_t>(len, PageSize - off);
            Page &p = page(addr);
            ++p.gen;
            std::memcpy(p.bytes.data() + off, bytes, n);
            addr += uint32_t(n);
            bytes += n;
            len -= n;
        }
    }

    /** Number of resident (touched) pages. */
    size_t residentPages() const { return resident_; }

    /**
     * Bounding byte span [lo, hi) over all resident pages ({0, 0}
     * when nothing is resident). Program, inputs, and outputs of a
     * loaded workload all fall inside this box, which makes it the
     * natural memory region to certify offloads against.
     */
    std::pair<uint64_t, uint64_t>
    residentSpan() const
    {
        if (resident_ == 0)
            return {0, 0};
        uint32_t min_pn = UINT32_MAX;
        uint32_t max_pn = 0;
        forEachPage([&](uint32_t pn, auto) {
            min_pn = std::min(min_pn, pn);
            max_pn = pn; // visited in ascending order
        });
        return {uint64_t(min_pn) << PageShift,
                (uint64_t(max_pn) + 1) << PageShift};
    }

    /**
     * Visit every resident page in place as (page number, its PageSize
     * bytes), in ascending page-number order.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (uint32_t r = 0; r < root_.size(); ++r) {
            const Mid *mid = root_[r].get();
            if (!mid)
                continue;
            for (uint32_t m = 0; m < mid->size(); ++m) {
                const Leaf *leaf = (*mid)[m].get();
                if (!leaf)
                    continue;
                for (uint32_t l = 0; l < leaf->size(); ++l) {
                    if (const Page *pg = (*leaf)[l].get()) {
                        const uint32_t pn =
                            (((r << MidBits) | m) << LeafBits) | l;
                        fn(pn, std::span<const uint8_t, PageSize>(
                                   pg->bytes));
                    }
                }
            }
        }
    }

    /** Drop all contents. Invalidates every cached page pointer. */
    void
    clear()
    {
        for (auto &mid : root_)
            mid.reset();
        resident_ = 0;
        memo_ = nullptr;
        ++epoch_;
    }

    /**
     * Epoch counter, bumped by clear(). A consumer holding pointers
     * into pages (see pageGenPtr) must drop them when this changes.
     */
    uint64_t epoch() const { return epoch_; }

    /**
     * Stable pointer to the write-generation counter of the page
     * holding @p addr, or nullptr when the page is not resident. Every
     * write moves the counter of each page it touches (a writeBlock
     * bumps it once per page, not once per byte), so an unchanged
     * value means unchanged bytes. The pointer stays valid until
     * clear() (pages are heap objects, never individually freed);
     * revalidate against epoch() before dereferencing across calls to
     * clear().
     */
    const uint64_t *
    pageGenPtr(uint32_t addr) const
    {
        const Page *p = findPage(addr);
        return p ? &p->gen : nullptr;
    }

    /**
     * Deep snapshot for golden-model comparisons: returns a copy of all
     * resident pages keyed by page number.
     */
    std::unordered_map<uint32_t, std::vector<uint8_t>>
    snapshot() const
    {
        std::unordered_map<uint32_t, std::vector<uint8_t>> s;
        forEachPage([&](uint32_t pn, auto bytes) {
            s.emplace(pn, std::vector<uint8_t>(bytes.begin(), bytes.end()));
        });
        return s;
    }

  private:
    struct Page
    {
        std::array<uint8_t, PageSize> bytes;
        /// Moves on every write to the page; a writeBlock bumps it
        /// once per page it touches.
        uint64_t gen = 0;
    };

    // Page-number bits resolved at each directory level, top first:
    // the root splits the 4 GiB space into 16 MiB spans, a mid node
    // splits a span into 256 KiB leaves, a leaf owns up to 64 pages.
    // Nodes stay small (2 KiB root, 512 B below) because a loaded
    // workload touches only a few scattered ranges. The root sits in
    // the object, saving one allocation per memory.
    static constexpr uint32_t RootBits = 8, MidBits = 6, LeafBits = 6;
    static_assert(PageShift + RootBits + MidBits + LeafBits == 32);
    using Leaf = std::array<std::unique_ptr<Page>, 1u << LeafBits>;
    using Mid = std::array<std::unique_ptr<Leaf>, 1u << MidBits>;
    using Root = std::array<std::unique_ptr<Mid>, 1u << RootBits>;

    static uint32_t
    rootIndex(uint32_t pn)
    {
        return pn >> (MidBits + LeafBits);
    }

    static uint32_t
    midIndex(uint32_t pn)
    {
        return (pn >> LeafBits) & ((1u << MidBits) - 1);
    }

    static uint32_t
    leafIndex(uint32_t pn)
    {
        return pn & ((1u << LeafBits) - 1);
    }

    /** Resolve (allocating on first touch) the page for a write. */
    Page &
    page(uint32_t addr)
    {
        const uint32_t pn = addr >> PageShift;
        if (memo_ && memo_pn_ == pn)
            return *memo_;
        return walk(pn);
    }

    /** page() past the memo. Kept out of line so that the memo hit,
     *  which a run of sequential writes (loading a data set) takes
     *  almost every time, inlines into every write. */
    [[gnu::noinline]] Page &
    walk(uint32_t pn)
    {
        // make_unique value-initialises: every new node entry is null.
        std::unique_ptr<Mid> &mid = root_[rootIndex(pn)];
        if (!mid)
            mid = std::make_unique<Mid>();
        std::unique_ptr<Leaf> &leaf = (*mid)[midIndex(pn)];
        if (!leaf)
            leaf = std::make_unique<Leaf>();
        std::unique_ptr<Page> &slot = (*leaf)[leafIndex(pn)];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->bytes.fill(0);
            ++resident_;
        }
        memo_pn_ = pn;
        memo_ = slot.get();
        return *slot;
    }

    const Page *
    findPage(uint32_t addr) const
    {
        const uint32_t pn = addr >> PageShift;
        const Mid *mid = root_[rootIndex(pn)].get();
        if (!mid)
            return nullptr;
        const Leaf *leaf = (*mid)[midIndex(pn)].get();
        return leaf ? (*leaf)[leafIndex(pn)].get() : nullptr;
    }

    /// Page directory; owns every resident page.
    Root root_;
    size_t resident_ = 0; ///< Pages allocated since the last clear().
    uint64_t epoch_ = 0;
    /// Write memo: the page page() returned last (nullptr = none).
    /// Reset by clear() and by both sides of a move.
    Page *memo_ = nullptr;
    uint32_t memo_pn_ = 0;
};

/** True when every byte of @p bytes is zero; tests a word at a time. */
inline bool
isZeroPage(std::span<const uint8_t> bytes)
{
    const uint8_t *p = bytes.data();
    size_t n = bytes.size();
    for (; n >= 8; p += 8, n -= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        if (w != 0)
            return false;
    }
    for (; n > 0; ++p, --n)
        if (*p != 0)
            return false;
    return true;
}

} // namespace mesa::mem

#endif // MESA_MEM_MEMORY_HH
