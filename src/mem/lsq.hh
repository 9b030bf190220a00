/**
 * @file
 * Accelerator-side load/store unit (paper Fig. 5): entries are ordered
 * by LDFG sequence number (original program order), loads may issue
 * out-of-order as soon as their addresses are generated, stores commit
 * in order, and matching store->load pairs forward data directly.
 * Entries share a limited number of memory ports; contention delays
 * issue to the next free port cycle.
 */

#ifndef MESA_MEM_LSQ_HH
#define MESA_MEM_LSQ_HH

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/memory.hh"
#include "riscv/isa.hh"
#include "util/slot_pool.hh"
#include "util/stats.hh"

namespace mesa::mem
{

/**
 * A pool of memory ports shared by all load/store units of an
 * accelerator (tiled instances share the same physical ports). Each
 * access occupies a port for one issue cycle.
 */
class PortPool
{
  public:
    explicit PortPool(unsigned num_ports);

    /** Earliest cycle >= request with a free port; books the port. */
    uint64_t acquire(uint64_t request_cycle);

    unsigned size() const { return pool_.capacity(); }

    /**
     * Cycles accesses spent queued behind busy ports since the last
     * reset(): sum over acquire() calls of booked - requested. Feeds
     * the profiler's memory-port contention counter.
     */
    uint64_t contentionWait() const { return wait_cycles_; }

    void
    reset()
    {
        pool_.reset();
        wait_cycles_ = 0;
    }

  private:
    SlotPool pool_;
    uint64_t wait_cycles_ = 0;
};

/** Completion record for one load. */
struct LoadResult
{
    uint32_t value = 0;       ///< Loaded (or forwarded) value.
    uint64_t done_cycle = 0;  ///< Cycle the data is available.
    bool forwarded = false;   ///< Served by store->load forwarding.
    bool invalidated = false; ///< Re-issued after an older-store match.
};

/**
 * Load/store entries shared by all PEs of one accelerator instance.
 *
 * The unit is driven in program order by the execution engine (which
 * walks the LDFG), so "older store" is any store already buffered this
 * iteration. Timing is decoupled from that order: each access issues
 * at its operands-ready cycle, subject to port availability.
 */
class LoadStoreUnit
{
  public:
    /** @param entries one past the largest LDFG seq the unit will
     *         see (the configuration's slot count) */
    LoadStoreUnit(MainMemory &mem, MemHierarchy &hierarchy,
                  PortPool &ports, size_t entries);

    /** Clear per-iteration store buffer state. */
    void beginIteration();

    /**
     * Issue a load for LDFG entry seq.
     *
     * @param seq LDFG (program-order) index of the load
     * @param addr effective address
     * @param op load opcode (width/signedness)
     * @param ready_cycle cycle the address operand is available
     */
    LoadResult load(unsigned seq, uint32_t addr, riscv::Op op,
                    uint64_t ready_cycle);

    /**
     * Read the program-order-correct value a load at seq would see
     * (memory patched with older buffered stores) without modeling
     * timing or consuming a port. Used for the members of a
     * vectorized load group: the leader pays for the wide access.
     */
    uint32_t peek(unsigned seq, uint32_t addr, riscv::Op op) const;

    /**
     * Buffer a store for in-order commit at the end of the iteration.
     * Stores must arrive in increasing seq order; an older store after
     * a younger one panics.
     *
     * @param ready_cycle cycle both address and data are available
     */
    void store(unsigned seq, uint32_t addr, uint32_t value, riscv::Op op,
               uint64_t ready_cycle);

    /**
     * Commit all buffered stores to memory in program order.
     * @return the cycle the last store committed.
     */
    uint64_t commitStores();

    /** Per-entry average memory access time: a load's completion
     *  minus its ready cycle, 1 for a buffered store. */
    double entryAmat(unsigned seq) const;

    /** Average over all entries. */
    double overallAmat() const;

    uint64_t loads() const { return loads_.value(); }
    uint64_t stores() const { return stores_.value(); }
    uint64_t forwards() const { return forwards_.value(); }
    uint64_t invalidations() const { return invalidations_.value(); }
    unsigned numPorts() const { return ports_.size(); }

    void resetStats();

  private:
    /** Read a value of the op's width from memory. */
    uint32_t readMem(uint32_t addr, riscv::Op op) const;

    /** Write a value of the op's width to memory. */
    void writeMem(uint32_t addr, uint32_t value, riscv::Op op);

    struct PendingStore
    {
        unsigned seq;
        uint32_t addr;
        uint32_t value;
        riscv::Op op;
        uint64_t ready_cycle;
    };

    MainMemory &mem_;
    MemHierarchy &hierarchy_;
    PortPool &ports_;
    /** Buffered stores in push order, which store() checks is
     *  program (seq) order; a handful per iteration, so forwarding
     *  scans it newest-first. */
    std::vector<PendingStore> store_buffer_;
    /** Tight [min, max] byte range covered by buffered stores; lets
     *  peek() skip the patch scan when the load cannot overlap. Held
     *  64-bit so a store ending at the top of the 32-bit address
     *  space does not wrap. */
    uint64_t store_lo_ = UINT64_MAX;
    uint64_t store_hi_ = 0;
    /** Per-entry latency averages indexed by LDFG seq, sized once
     *  for the configuration, so an access samples without a bounds
     *  check or a resize. */
    std::vector<CycleAverage> entry_amat_;

    Counter loads_{"loads"};
    Counter stores_{"stores"};
    Counter forwards_{"forwards"};
    Counter invalidations_{"invalidations"};
};

} // namespace mesa::mem

#endif // MESA_MEM_LSQ_HH
