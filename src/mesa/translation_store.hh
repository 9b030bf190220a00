/**
 * @file
 * Persistent cross-run translation cache: serializes fully translated
 * regions (PreparedRegion — LDFG, placement, configuration, options,
 * certificate) to a directory of per-entry files, so a later process
 * warm-starts the same program without re-running LDFG encode (T1),
 * instruction mapping (T2), or configuration generation (T3).
 *
 * The store is pure simulator-side memoization of prepare(): the
 * modeled hardware timing (encode/mapping/config cycles) is carried
 * inside the serialized entry, so every output — campaign JSON,
 * profiler reports, service digests, stats — is byte-identical with
 * and without a cache directory.
 *
 * Keying: a translated region is a pure function of the loop body,
 * the parallel hint, the region bounds, the prepare-relevant MESA
 * parameters (accelerator geometry, mapper window, optimization
 * switches), and the blocked-PE set. Entries are keyed by CRCs of all
 * of these; any difference is a different file name, so geometry or
 * blocked-set changes can never serve a stale translation.
 *
 * Integrity: every file carries a magic, a format version, an echo of
 * its key, and a whole-file CRC-32. One field list per type writes and
 * reads it, and the reader range-checks every count and index; the
 * config's CRC and the verifier's LDFG pass check what is in range. A
 * truncated, bit-flipped, version-skewed, misnamed, out-of-range or
 * inconsistent file is ignored (counted, never trusted) and the region is
 * translated cold — after which the entry is rewritten, self-healing
 * the store. Writes go to a temp file
 * followed by an atomic rename, so concurrent writers (campaign
 * shards) and crashed runs never publish a partial entry.
 *
 * The process-global store is inert until setDirectory() is called
 * (the CLIs' --cache-dir flag); without it every call is a cheap
 * no-op and the controller behaves exactly as before.
 */

#ifndef MESA_MESA_TRANSLATION_STORE_HH
#define MESA_MESA_TRANSLATION_STORE_HH

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesa/controller.hh"

namespace mesa::core
{

/** Composite key of one persisted translation. */
struct TranslationKey
{
    uint32_t region_start = 0;
    uint32_t region_end = 0;
    uint32_t body_tag = 0;   ///< CRC over the body's (pc, raw) pairs.
    uint32_t params_crc = 0; ///< paramsFingerprint(MesaParams).
    uint32_t blocked_crc = 0; ///< blockedPeDigest(faulty PEs).
    bool parallel_hint = false;
};

/**
 * CRC-32 fingerprint over every MesaParams field prepare() depends
 * on. Deliberately a superset (cheap insurance): a changed field that
 * could not affect translation only costs a cold run.
 */
uint32_t paramsFingerprint(const MesaParams &params);

/** Order-independent digest of a blocked-PE coordinate set. */
uint32_t blockedPeDigest(const std::vector<ic::Coord> &coords);

/** The process-global persistent translation store. */
class TranslationStore
{
  public:
    static TranslationStore &global();

    /**
     * Point the store at a directory (created if absent); an empty
     * string disables it again. Call once at startup, before any
     * controller runs.
     */
    void setDirectory(const std::string &dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &directory() const { return dir_; }

    /** File path an entry for @p key lives at (test introspection). */
    std::string entryPath(const TranslationKey &key) const;

    /**
     * Probe the store. On Hit, @p out holds the deserialized region
     * (integrity-checked: whole-file CRC, key echo, the config's own
     * semantic CRC, and the LDFG's wiring against a rename replay of
     * its instructions all verified). Every other outcome leaves
     * @p out untouched and the caller translates cold.
     */
    PersistOutcome load(const TranslationKey &key,
                        PreparedRegion &out) const;

    /** Persist a freshly translated region (temp file + rename). */
    PersistOutcome store(const TranslationKey &key,
                         const PreparedRegion &prep) const;

  private:
    TranslationStore() = default;

    std::string dir_;
    mutable std::mutex mutex_; ///< Guards setDirectory vs file ops.

    /**
     * In-process memo over the disk entries: a file is parsed at most
     * once per process; later probes of the same key copy the live
     * object (a few µs) instead of re-reading and re-deserializing
     * (tens of µs — more than a cold translation for small bodies).
     * Populated on load only, never on store, so a fresh process (or
     * a test corrupting files on disk) always exercises the full
     * integrity-checked disk path first.
     */
    mutable std::unordered_map<std::string,
                               std::shared_ptr<const PreparedRegion>>
        memo_;
};

} // namespace mesa::core

#endif // MESA_MESA_TRANSLATION_STORE_HH
