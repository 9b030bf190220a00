/**
 * @file
 * Cycle-timeline event tracer: components record begin/end spans and
 * instant events on named tracks, timestamped in simulated cycles, and
 * the whole timeline exports as Chrome trace-event JSON (load it in
 * Perfetto or chrome://tracing). Tracing is off by default and the
 * active() check is the only cost at an instrumented site — the same
 * idiom as the logger's level check, so disabled runs pay nothing
 * measurable.
 *
 * Timeline model: the simulator has no global cycle loop (see
 * ARCHITECTURE.md "Timing philosophy"), so the tracer keeps a *time
 * base* that phase drivers move as simulated time interleaves between
 * components. The controller advances the base past each accelerator
 * epoch; components with only a local timeline (the accelerator
 * engine, the LS entries) emit through the *Local variants, which add
 * the base. The CPU-side drivers publish the core's committed cycle
 * via setCycle() so passive observers (the region monitor) can stamp
 * events with now() without owning a clock.
 */

#ifndef MESA_UTIL_TRACE_HH
#define MESA_UTIL_TRACE_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mesa
{

/** One named argument attached to a trace event. */
struct TraceArg
{
    TraceArg(std::string k, double v)
        : key(std::move(k)), num(v), is_num(true)
    {}
    TraceArg(std::string k, uint64_t v)
        : key(std::move(k)), num(double(v)), is_num(true)
    {}
    TraceArg(std::string k, int v)
        : key(std::move(k)), num(double(v)), is_num(true)
    {}
    TraceArg(std::string k, std::string v)
        : key(std::move(k)), str(std::move(v))
    {}
    TraceArg(std::string k, const char *v)
        : key(std::move(k)), str(v)
    {}

    std::string key;
    std::string str;
    double num = 0.0;
    bool is_num = false;
};

/** One recorded timeline event. */
struct TraceEvent
{
    uint16_t track = 0;       ///< Index into the track-name table.
    bool instant = false;     ///< Instant event ("i") vs span ("X").
    std::string name;
    uint64_t start = 0;       ///< Absolute simulated cycle.
    uint64_t duration = 0;    ///< Span length (0 for instants).
    std::vector<TraceArg> args;
};

/**
 * The global event tracer. All emission goes through the singleton;
 * sites must guard with Tracer::active() so a disabled tracer costs
 * one branch and performs zero allocations or writes.
 *
 * Thread safety: the singleton is a Meyers static (first use from any
 * worker thread is race-free), the enabled flag is atomic, and event
 * emission takes an internal mutex so concurrent emitters never tear
 * the buffers. Event *order* under concurrent emission is whatever
 * the lock arbitration yields, which is why parallelForOrdered()
 * downgrades to its serial path while the tracer records — the
 * exported timeline must be deterministic (see util/parallel.hh).
 * Inspection/export accessors are not synchronized: quiesce workers
 * (join the pool) before exporting.
 */
class Tracer
{
  public:
    static Tracer &global();

    /** Is tracing enabled? The per-site gate — check before emitting. */
    static bool
    active()
    {
        return global().enabled_.load(std::memory_order_relaxed);
    }

    void
    enable(bool on = true)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    // ----- time base (see file comment) -----
    void setBase(uint64_t base) { base_ = base; }
    uint64_t base() const { return base_; }
    /** Publish the driving component's current local cycle. */
    void setCycle(uint64_t cycle) { cycle_ = cycle; }
    /** Current absolute simulated cycle: base + published cycle. */
    uint64_t now() const { return base_ + cycle_; }

    // ----- emission (absolute timestamps) -----
    void span(const std::string &track, const std::string &name,
              uint64_t start, uint64_t duration,
              std::initializer_list<TraceArg> args = {});
    void instant(const std::string &track, const std::string &name,
                 uint64_t at, std::initializer_list<TraceArg> args = {});

    // ----- emission (local timestamps, shifted by the base) -----
    void
    spanLocal(const std::string &track, const std::string &name,
              uint64_t start, uint64_t duration,
              std::initializer_list<TraceArg> args = {})
    {
        span(track, name, base_ + start, duration, args);
    }

    void
    instantLocal(const std::string &track, const std::string &name,
                 uint64_t at, std::initializer_list<TraceArg> args = {})
    {
        instant(track, name, base_ + at, args);
    }

    // ----- inspection / export -----
    size_t eventCount() const { return events_.size(); }
    const std::vector<TraceEvent> &events() const { return events_; }
    const std::vector<std::string> &tracks() const { return tracks_; }
    uint64_t droppedEvents() const { return dropped_; }

    /**
     * Write the whole timeline as a Chrome trace-event JSON array:
     * one thread_name metadata record per track, then every span
     * ("ph":"X") and instant ("ph":"i") with cycle timestamps.
     */
    void exportJson(std::ostream &os) const;

    /** Forget all recorded events, tracks, and the time base. */
    void clear();

    /** Cap on buffered events; further emissions count as dropped. */
    void setMaxEvents(size_t n) { max_events_ = n; }

  private:
    Tracer() = default;

    uint16_t trackId(const std::string &track);

    std::atomic<bool> enabled_{false};
    std::mutex emit_m_; ///< Guards events_/tracks_/dropped_ writes.
    uint64_t base_ = 0;
    uint64_t cycle_ = 0;
    uint64_t dropped_ = 0;
    size_t max_events_ = 4'000'000;
    std::vector<std::string> tracks_;
    std::vector<TraceEvent> events_;
};

} // namespace mesa

#endif // MESA_UTIL_TRACE_HH
