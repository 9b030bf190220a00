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
 * The write path remembers the last page it resolved, so a run of
 * writes to one page costs one hash lookup. Const reads never touch
 * that memo: concurrent readers of one memory stay race-free.
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
        : pages_(std::move(o.pages_)), epoch_(o.epoch_)
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
            pages_ = std::move(o.pages_);
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
    size_t residentPages() const { return pages_.size(); }

    /**
     * Bounding byte span [lo, hi) over all resident pages ({0, 0}
     * when nothing is resident). Program, inputs, and outputs of a
     * loaded workload all fall inside this box, which makes it the
     * natural memory region to certify offloads against.
     */
    std::pair<uint64_t, uint64_t>
    residentSpan() const
    {
        if (pages_.empty())
            return {0, 0};
        uint32_t min_pn = UINT32_MAX;
        uint32_t max_pn = 0;
        for (const auto &[pn, pg] : pages_) {
            min_pn = std::min(min_pn, pn);
            max_pn = std::max(max_pn, pn);
        }
        return {uint64_t(min_pn) << PageShift,
                (uint64_t(max_pn) + 1) << PageShift};
    }

    /**
     * Visit every resident page in place as (page number, its PageSize
     * bytes), in unspecified order.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &[pn, pg] : pages_)
            fn(pn, std::span<const uint8_t, PageSize>(pg->bytes));
    }

    /** Drop all contents. Invalidates every cached page pointer. */
    void
    clear()
    {
        pages_.clear();
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
     * clear() (pages are never individually freed and unordered_map
     * nodes do not move on rehash); revalidate against epoch() before
     * dereferencing across calls to clear().
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
        for (const auto &[pn, pg] : pages_)
            s.emplace(pn, std::vector<uint8_t>(pg->bytes.begin(),
                                               pg->bytes.end()));
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

    /** Resolve (allocating on first touch) the page for a write. */
    Page &
    page(uint32_t addr)
    {
        const uint32_t pn = addr >> PageShift;
        if (memo_ && memo_pn_ == pn)
            return *memo_;
        auto it = pages_.find(pn);
        if (it == pages_.end()) {
            auto p = std::make_unique<Page>();
            p->bytes.fill(0);
            it = pages_.emplace(pn, std::move(p)).first;
        }
        memo_pn_ = pn;
        memo_ = it->second.get();
        return *memo_;
    }

    const Page *
    findPage(uint32_t addr) const
    {
        auto it = pages_.find(addr >> PageShift);
        return it == pages_.end() ? nullptr : it->second.get();
    }

    std::unordered_map<uint32_t, std::unique_ptr<Page>> pages_;
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
