#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "util/logging.hh"

namespace mesa::mem
{

Cache::Cache(std::string name, const CacheParams &params)
    : name_(std::move(name)), params_(params)
{
    if (params_.line_bytes == 0 ||
        (params_.line_bytes & (params_.line_bytes - 1)) != 0) {
        fatal("cache ", name_, ": line size must be a power of two");
    }
    if (params_.assoc == 0)
        fatal("cache ", name_, ": associativity must be nonzero");
    const size_t lines = params_.size_bytes / params_.line_bytes;
    if (lines == 0 || lines % params_.assoc != 0)
        fatal("cache ", name_, ": size/assoc/line geometry invalid");
    num_sets_ = lines / params_.assoc;
    // Sets and tags are cut from the address by shift and mask.
    if (!std::has_single_bit(num_sets_))
        fatal("cache ", name_, ": set count ", num_sets_,
              " is not a power of two");
    line_shift_ = unsigned(std::countr_zero(params_.line_bytes));
    tag_shift_ = line_shift_ + unsigned(std::countr_zero(num_sets_));
    set_mask_ = num_sets_ - 1;
    static_assert(std::is_trivially_copyable_v<Line> &&
                  std::is_trivially_destructible_v<Line>);
    num_lines_ = lines;
    lines_.reset(static_cast<Line *>(std::calloc(lines, sizeof(Line))));
    if (!lines_)
        fatal("cache ", name_, ": cannot allocate ", lines, " lines");
}

bool
Cache::access(uint32_t addr, bool write)
{
    Line *const set = &lines_[setBase(addr)];
    Line *const set_end = set + params_.assoc;
    const uint32_t tag = tagOf(addr);
    ++access_clock_;

    for (Line *line = set; line != set_end; ++line) {
        if (line->valid && line->tag == tag) {
            line->lru = access_clock_;
            line->dirty = line->dirty || write;
            ++hits_;
            return true;
        }
    }

    // Miss: allocate, evicting the LRU way.
    ++misses_;
    Line *victim = set;
    for (Line *line = set; line != set_end; ++line) {
        if (!line->valid) {
            victim = line;
            break;
        }
        if (line->lru < victim->lru)
            victim = line;
    }
    if (victim->valid && victim->dirty)
        ++writebacks_;
    victim->valid = true;
    victim->dirty = write;
    victim->tag = tag;
    victim->lru = access_clock_;
    return false;
}

bool
Cache::probe(uint32_t addr) const
{
    const Line *const set = &lines_[setBase(addr)];
    const uint32_t tag = tagOf(addr);
    for (size_t w = 0; w < params_.assoc; ++w)
        if (set[w].valid && set[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    std::fill_n(lines_.get(), num_lines_, Line{});
}

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : MemHierarchy(params, nullptr)
{
}

MemHierarchy::MemHierarchy(const HierarchyParams &params, Cache *shared_l2)
    : params_(params), l1_("l1", params.l1), shared_l2_(shared_l2)
{
    if (!shared_l2_)
        own_l2_.emplace("l2", params.l2);
}

uint32_t
MemHierarchy::accessLatency(uint32_t addr, bool write)
{
    Cache &level2 = l2();
    uint32_t latency = l1_.hitLatency();
    if (!l1_.access(addr, write)) {
        latency += level2.hitLatency();
        if (!level2.access(addr, write)) {
            latency += params_.dram_latency;
            ++dram_accesses_;
        }
        // A demand miss optionally triggers a next-line prefetch
        // (hides the latency of forward streaming accesses).
        if (params_.next_line_prefetch)
            prefetch(addr + uint32_t(params_.l1.line_bytes));
    }
    amat_.sample(latency);
    return latency;
}

void
MemHierarchy::registerStats(StatsRegistry &registry,
                            const std::string &prefix) const
{
    auto linkCache = [&](const Cache &c, const std::string &p) {
        registry.linkCounter(p + "hits", c.hitCounter());
        registry.linkCounter(p + "misses", c.missCounter());
        registry.linkCounter(p + "writebacks", c.writebackCounter());
    };
    linkCache(l1(), prefix + "l1.");
    linkCache(l2(), prefix + "l2.");
    registry.linkCounter(prefix + "dram_accesses", dram_accesses_);
    registry.linkAverage(prefix + "amat", amat_);
}

void
MemHierarchy::prefetch(uint32_t addr)
{
    Cache &level2 = l2();
    if (!l1_.access(addr, false)) {
        if (!level2.access(addr, false))
            ++dram_accesses_;
    }
}

} // namespace mesa::mem
