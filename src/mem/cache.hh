/**
 * @file
 * Set-associative cache model with LRU replacement and a two-level
 * hierarchy (per-core L1, shared L2, DRAM) that returns per-access
 * latency. Per-instruction AMAT counters feed MESA's DFG node weights
 * for memory operations (paper §3.1, §4.2).
 */

#ifndef MESA_MEM_CACHE_HH
#define MESA_MEM_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/stats.hh"
#include "util/stats_registry.hh"

namespace mesa::mem
{

/** Geometry and timing parameters for one cache level. */
struct CacheParams
{
    size_t size_bytes = 64 * 1024;
    size_t assoc = 4;
    size_t line_bytes = 64;
    uint32_t hit_latency = 2;  ///< Cycles to serve a hit at this level.
};

/**
 * One level of set-associative cache with true-LRU replacement.
 * Models tags only (data lives in MainMemory); write-allocate,
 * write-back policy. Line size and set count must be powers of two,
 * so a set index and tag are a shift and a mask of the address.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheParams &params);

    /**
     * Look up an address, allocating the line on miss.
     * @return true on hit.
     */
    bool access(uint32_t addr, bool write);

    /** Probe without modifying state (no allocation, no LRU update). */
    bool probe(uint32_t addr) const;

    /** Invalidate every line (e.g., on offload boundary flushes). */
    void flush();

    uint32_t hitLatency() const { return params_.hit_latency; }
    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t writebacks() const { return writebacks_.value(); }

    /** Live counters, for linking into a StatsRegistry. */
    const Counter &hitCounter() const { return hits_; }
    const Counter &missCounter() const { return misses_; }
    const Counter &writebackCounter() const { return writebacks_; }

    double
    missRate() const
    {
        const uint64_t total = hits() + misses();
        return total ? double(misses()) / double(total) : 0.0;
    }

    const std::string &name() const { return name_; }
    size_t numSets() const { return num_sets_; }

  private:
    /** All-zero bytes are the invalid line, so zeroed storage from
     *  calloc holds a flushed cache without touching it. */
    struct Line
    {
        uint32_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;  ///< Larger = more recently used.
    };

    struct FreeLines
    {
        void operator()(Line *lines) const { std::free(lines); }
    };

    /** Index in lines_ of the first way of @p addr's set. */
    size_t
    setBase(uint32_t addr) const
    {
        return ((addr >> line_shift_) & set_mask_) * params_.assoc;
    }

    /** Address bits above the set index. Shifted 64-bit: when sets
     *  times line bytes reach 2^32 no tag bits are left. */
    uint32_t
    tagOf(uint32_t addr) const
    {
        return uint32_t(uint64_t(addr) >> tag_shift_);
    }

    std::string name_;
    CacheParams params_;
    size_t num_sets_;    ///< A power of two (checked on construction).
    unsigned line_shift_;
    unsigned tag_shift_; ///< line_shift_ + log2(num_sets_).
    size_t set_mask_;    ///< num_sets_ - 1.
    /** Set-major: set s occupies [s * assoc, (s + 1) * assoc). One
     *  calloc'd allocation however many sets the geometry has; when
     *  calloc gets fresh zero pages from the OS, construction writes
     *  none of them. */
    std::unique_ptr<Line[], FreeLines> lines_;
    size_t num_lines_;
    uint64_t access_clock_ = 0;

    Counter hits_{"hits"};
    Counter misses_{"misses"};
    Counter writebacks_{"writebacks"};
};

/** Parameters for the full memory hierarchy. */
struct HierarchyParams
{
    CacheParams l1{64 * 1024, 4, 64, 2};           // paper: 64KB L1
    CacheParams l2{8 * 1024 * 1024, 8, 64, 18};    // paper: unified 8MB L2
    uint32_t dram_latency = 120;                   ///< Cycles to DRAM.

    /** Next-line prefetch into L1 on every demand miss. */
    bool next_line_prefetch = false;
};

/**
 * Two-level cache hierarchy + DRAM. accessLatency() walks L1 -> L2 ->
 * DRAM and returns the total cycles for this access; an Average tracks
 * the running AMAT that MESA samples as measured load latency.
 */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyParams &params = {});

    /**
     * Construct with an externally owned, shared L2 (multicore: each
     * core keeps a private L1 but all cores contend in one L2). The
     * hierarchy then holds no L2 of its own.
     */
    MemHierarchy(const HierarchyParams &params, Cache *shared_l2);

    /** Access an address; returns total latency in cycles. */
    uint32_t accessLatency(uint32_t addr, bool write);

    /**
     * Warm the hierarchy for a predicted future access (speculative
     * prefetch an iteration ahead, paper §4.2). Does not perturb the
     * AMAT statistic; DRAM traffic is still counted.
     */
    void prefetch(uint32_t addr);

    /** Running average memory access time over all accesses. */
    double amat() const { return amat_.mean(); }

    uint64_t accesses() const { return amat_.count(); }
    Cache &l1() { return l1_; }
    Cache &l2() { return shared_l2_ ? *shared_l2_ : *own_l2_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const
    {
        return shared_l2_ ? *shared_l2_ : *own_l2_;
    }
    uint32_t dramLatency() const { return params_.dram_latency; }

    /** Accesses that went all the way to DRAM (L2 misses seen here). */
    uint64_t dramAccesses() const { return dram_accesses_.value(); }

    /**
     * Link the hierarchy's live counters (L1/L2 hits, misses,
     * writebacks, DRAM accesses, AMAT) into @p registry under
     * @p prefix (e.g. "accel.mem.").
     */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix) const;

    void
    resetStats()
    {
        amat_.reset();
        dram_accesses_.reset();
    }

  private:
    HierarchyParams params_;
    Cache l1_;
    std::optional<Cache> own_l2_; ///< Engaged iff no shared L2 is given.
    Cache *shared_l2_ = nullptr;
    Average amat_;
    Counter dram_accesses_{"dram_accesses"};
};

} // namespace mesa::mem

#endif // MESA_MEM_CACHE_HH
