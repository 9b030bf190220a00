/**
 * @file
 * Persistent translation-store tests: warm starts from disk must be
 * indistinguishable from cold translation (state, memory, offload
 * stats), and every corruption mode — truncation, flipped bytes,
 * version skew, key mismatch, an index out of range behind a valid
 * CRC — must fall back to cold translation with the right
 * mesa.cache.persist_* counter bumped, never serve a wrong config. A
 * seeded mutation pass checks that the loader fails closed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <unistd.h>

#include "accel/fault_plane.hh"
#include "interconnect/interconnect.hh"
#include "mesa/translate.hh"
#include "mesa/translation_store.hh"
#include "util/archive.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/stats_registry.hh"

#include "helpers.hh"

namespace
{

namespace fs = std::filesystem;
using namespace mesa;

/** One offload run with live persist counters captured. */
struct PersistRun
{
    test::OffloadRun run;
    std::map<std::string, double> stats;
};

PersistRun
runOnce(const workloads::Kernel &kernel, const core::MesaParams &params,
        const accel::FaultPlane &faults = {})
{
    mem::MainMemory memory;
    kernel.plant(memory);

    core::MesaController mesa(params, memory);
    StatsRegistry reg;
    mesa.attachStats(&reg);
    mesa.accelerator().injectFaults(faults);

    riscv::Emulator emu(memory);
    kernel.enterLoop(emu);

    PersistRun out;
    out.run.stats = mesa.offloadLoop(kernel.loopBody(), emu.state(),
                                     kernel.parallel);
    emu.run(50'000'000);

    mesa.attachStats(nullptr);
    reg.materialize();
    out.run.state = emu.state();
    out.run.memory = memory.snapshot();
    out.stats = reg.flatValues();
    return out;
}

/** The runs must be indistinguishable in every observable. */
void
expectSameRun(const test::OffloadRun &a, const test::OffloadRun &b)
{
    ASSERT_EQ(a.stats.has_value(), b.stats.has_value());
    if (a.stats) {
        EXPECT_EQ(a.stats->encode_cycles, b.stats->encode_cycles);
        EXPECT_EQ(a.stats->mapping_cycles, b.stats->mapping_cycles);
        EXPECT_EQ(a.stats->config_cycles, b.stats->config_cycles);
        EXPECT_EQ(a.stats->accel_cycles, b.stats->accel_cycles);
        EXPECT_EQ(a.stats->accel_iterations, b.stats->accel_iterations);
        EXPECT_EQ(a.stats->tile_factor, b.stats->tile_factor);
        EXPECT_EQ(a.stats->pipelined, b.stats->pipelined);
        EXPECT_EQ(a.stats->model_latency, b.stats->model_latency);
    }
    EXPECT_EQ(a.state.pc, b.state.pc);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(a.state.x[size_t(i)], b.state.x[size_t(i)]) << "x" << i;
        EXPECT_EQ(a.state.f[size_t(i)], b.state.f[size_t(i)]) << "f" << i;
    }
    EXPECT_TRUE(test::sameMemory(a.memory, b.memory));
}

// Field offsets in a format-1 entry: magic, version and the 21-byte
// key echo, then the LDFG's u64 node count and its first node (an
// instruction of 20 bytes — op first — then the node id and src1).
constexpr ptrdiff_t HeaderBytes = 4 + 4 + 21;
constexpr ptrdiff_t FirstNodeOp = HeaderBytes + 8;
constexpr ptrdiff_t FirstNodeSrc1 = FirstNodeOp + 20 + 4;
// A certificate ends the entry: trip.ind_base, first (8), step (8),
// bound_base (4), bound_off (8), per_iter_cycle_bound (8), then the
// 4-byte file CRC.
constexpr ptrdiff_t IndBase = -(4 + 8 + 8 + 4 + 8 + 8 + 4);

/** The key an entry file echoes in its header. */
core::TranslationKey
keyOf(const std::string &bytes)
{
    core::TranslationKey key;
    BinaryReader in(bytes.data() + 8, bytes.size() - 8);
    in(key.region_start, key.region_end, key.body_tag, key.params_crc,
       key.blocked_crc, key.parallel_hint);
    return key;
}

/** Byte offsets of the LDFG fields the tamper rows rewrite. */
struct LdfgLayout
{
    std::vector<size_t> live_in1; ///< Each node's first live-in.
    size_t live_ins = 0;          ///< The live-in set's first entry.
};

/** Walk an entry's LDFG: per node, the instruction and seven i32
 *  fields (id, src1, src2, live_in1, live_in2, prev_dest_writer,
 *  prev_dest_live_in), the guard and consumer lists (a u64 count,
 *  then i32s) and three f64 latencies; then the live-in set. */
LdfgLayout
ldfgLayout(const std::string &bytes)
{
    const auto u64At = [&](size_t at) {
        uint64_t v = 0;
        BinaryReader(bytes.data() + at, 8)(v);
        return v;
    };
    LdfgLayout out;
    const uint64_t nodes = u64At(HeaderBytes);
    size_t at = HeaderBytes + 8;
    for (uint64_t i = 0; i < nodes; ++i) {
        out.live_in1.push_back(at + 20 + 3 * 4);
        at += 20 + 7 * 4;
        for (int list = 0; list < 2; ++list)
            at += 8 + 4 * u64At(at);
        at += 3 * 8;
    }
    out.live_ins = at + 8;
    return out;
}

/** Every test gets a private store directory; the global store is
 *  always disabled again on the way out. */
class PersistTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               ("mesa_persist_" + std::string(info->name()) + "_" +
                std::to_string(::getpid()));
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        core::TranslationStore::global().setDirectory("");
        fs::remove_all(dir_);
    }

    void
    enableStore()
    {
        core::TranslationStore::global().setDirectory(dir_.string());
    }

    std::vector<fs::path>
    cacheFiles() const
    {
        std::vector<fs::path> out;
        if (!fs::exists(dir_))
            return out;
        for (const auto &e : fs::directory_iterator(dir_))
            if (e.path().extension() == ".mesatc")
                out.push_back(e.path());
        std::sort(out.begin(), out.end());
        return out;
    }

    static std::string
    readFile(const fs::path &p)
    {
        std::ifstream f(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
    }

    static void
    writeFile(const fs::path &p, const std::string &bytes)
    {
        std::ofstream f(p, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), std::streamsize(bytes.size()));
    }

    /** Recompute the trailing whole-file CRC after tampering, so the
     *  tampered field (not the checksum) is what load() rejects. */
    static void
    refreshCrc(std::string &bytes)
    {
        ASSERT_GE(bytes.size(), 4u);
        const uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
        bytes[bytes.size() - 4] = char(crc);
        bytes[bytes.size() - 3] = char(crc >> 8);
        bytes[bytes.size() - 2] = char(crc >> 16);
        bytes[bytes.size() - 1] = char(crc >> 24);
    }

    /** Apply @p tamper to the only entry and refresh its CRC. A fresh
     *  load() must refuse the entry as corrupt, and the next run must
     *  translate cold, exactly as before. */
    void
    expectRejected(const workloads::Kernel &kernel,
                   const core::MesaParams &params,
                   const std::function<void(std::string &)> &tamper)
    {
        enableStore();
        const PersistRun cold = runOnce(kernel, params);
        const auto files = cacheFiles();
        ASSERT_EQ(files.size(), 1u);
        std::string bytes = readFile(files[0]);
        tamper(bytes);
        refreshCrc(bytes);
        writeFile(files[0], bytes);

        // Checked before any run trusts the entry.
        auto &store = core::TranslationStore::global();
        store.setDirectory(dir_.string()); // drop the memo: read disk
        core::PreparedRegion prep;
        ASSERT_EQ(store.load(keyOf(bytes), prep),
                  core::PersistOutcome::Corrupt);

        const PersistRun recovered = runOnce(kernel, params);
        expectSameRun(cold.run, recovered.run);
        EXPECT_EQ(recovered.stats.at("mesa.cache.persist_corrupt"), 1.0);
        EXPECT_EQ(recovered.stats.at("mesa.cache.persist_hits"), 0.0);
    }

    /** expectRejected() for an i32 set to @p value at @p offset (from
     *  the end when negative). */
    void
    expectIndexRejected(const workloads::Kernel &kernel,
                        const core::MesaParams &params, ptrdiff_t offset,
                        int32_t value)
    {
        expectRejected(kernel, params, [&](std::string &bytes) {
            const size_t at = offset >= 0 ? size_t(offset)
                                          : bytes.size() - size_t(-offset);
            ASSERT_LT(at + 4, bytes.size());
            for (size_t i = 0; i < 4; ++i)
                bytes[at + i] = char(uint32_t(value) >> (8 * i));
        });
    }

    fs::path dir_;
};

/** Store @p kernel's loop translated around @p blocked PEs, as a
 *  relocation after a self test would, and return its key. */
core::TranslationKey
storeAroundBlocked(const workloads::Kernel &kernel,
                   const std::vector<ic::Coord> &blocked)
{
    const core::MesaParams params;
    const auto body = kernel.loopBody();
    const ic::AccelNocInterconnect noc(params.accel.rows, params.accel.cols,
                                       params.accel.noc_slice_width);
    core::TranslatePolicy policy = params.translatePolicy(kernel.parallel);
    policy.blocked = blocked;
    auto tr = core::translate(body, params.accel, noc, policy);
    EXPECT_TRUE(tr.has_value());
    core::PreparedRegion prep;
    if (tr)
        static_cast<core::Translation &>(prep) = std::move(*tr);
    const uint32_t start = body.front().pc;
    const uint32_t end = body.back().pc + 4;
    prep.body_tag = core::bodyCrc(body);
    prep.config = prep.lower(core::ConfigBlock(params.accel), start, end);
    const core::TranslationKey key{
        .region_start = start,
        .region_end = end,
        .body_tag = prep.body_tag,
        .params_crc = core::paramsFingerprint(params),
        .blocked_crc = core::blockedPeDigest(blocked),
        .parallel_hint = kernel.parallel};
    EXPECT_EQ(core::TranslationStore::global().store(key, prep),
              core::PersistOutcome::Stored);
    return key;
}

TEST_F(PersistTest, WarmRunMatchesColdAndUncached)
{
    const auto kernel = workloads::makeNn(256);
    core::MesaParams params;

    const PersistRun plain = runOnce(kernel, params); // no store
    enableStore();
    const PersistRun cold = runOnce(kernel, params); // miss + store
    const PersistRun warm = runOnce(kernel, params); // disk hit

    ASSERT_TRUE(plain.run.stats.has_value());
    expectSameRun(plain.run, cold.run);
    expectSameRun(plain.run, warm.run);

    EXPECT_EQ(cold.stats.at("mesa.cache.persist_misses"), 1.0);
    EXPECT_EQ(cold.stats.at("mesa.cache.persist_stores"), 1.0);
    EXPECT_EQ(cold.stats.at("mesa.cache.persist_hits"), 0.0);
    EXPECT_EQ(warm.stats.at("mesa.cache.persist_hits"), 1.0);
    EXPECT_EQ(warm.stats.at("mesa.cache.persist_stores"), 0.0);
    EXPECT_EQ(cacheFiles().size(), 1u);

    // Without a store directory the persist counters are not even
    // registered — the stats surface is byte-identical to before.
    EXPECT_EQ(plain.stats.count("mesa.cache.persist_hits"), 0u);
}

TEST_F(PersistTest, CertificateLessEntryMatchesColdTranslation)
{
    // Fault mode without certificate gating once stored entries with
    // no certificate under the same file name. A hit on such an entry
    // derives the certificate as a cold translation does, so a hung
    // offload is still cut at its proven trip count.
    const auto kernel = workloads::makeHotspot(256);
    core::MesaParams params;
    params.fault.enabled = true;
    params.fault.watchdog_cycles = 20'000;
    accel::FaultPlane hang;
    hang.stuck_branches.push_back({4});

    const PersistRun plain = runOnce(kernel, params, hang); // no store
    ASSERT_TRUE(plain.run.stats.has_value());
    EXPECT_TRUE(plain.run.stats->trip_watchdog);

    enableStore();
    runOnce(kernel, params, hang);
    const auto files = cacheFiles();
    ASSERT_EQ(files.size(), 1u);
    auto &store = core::TranslationStore::global();
    const core::TranslationKey key = keyOf(readFile(files[0]));
    core::PreparedRegion prep;
    store.setDirectory(dir_.string()); // drop the memo: read disk
    ASSERT_EQ(store.load(key, prep), core::PersistOutcome::Hit);
    ASSERT_NE(prep.cert, nullptr);
    prep.cert = nullptr;
    ASSERT_EQ(store.store(key, prep), core::PersistOutcome::Stored);
    store.setDirectory(dir_.string());
    ASSERT_EQ(store.load(key, prep), core::PersistOutcome::Hit);
    ASSERT_EQ(prep.cert, nullptr);

    store.setDirectory(dir_.string());
    const PersistRun warm = runOnce(kernel, params, hang);
    EXPECT_EQ(warm.stats.at("mesa.cache.persist_hits"), 1.0);
    expectSameRun(plain.run, warm.run);
    ASSERT_TRUE(warm.run.stats.has_value());
    EXPECT_EQ(warm.run.stats->trip_watchdog, plain.run.stats->trip_watchdog);
    EXPECT_EQ(warm.run.stats->cpu_reexec_instructions,
              plain.run.stats->cpu_reexec_instructions);
    EXPECT_EQ(warm.run.stats->fallback, plain.run.stats->fallback);
}

TEST_F(PersistTest, TruncatedFileFallsBackColdAndHeals)
{
    const auto kernel = workloads::makeNn(256);
    core::MesaParams params;
    enableStore();
    const PersistRun cold = runOnce(kernel, params);

    const auto files = cacheFiles();
    ASSERT_EQ(files.size(), 1u);
    const std::string full = readFile(files[0]);
    writeFile(files[0], full.substr(0, full.size() / 2));

    const PersistRun recovered = runOnce(kernel, params);
    expectSameRun(cold.run, recovered.run);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_corrupt"), 1.0);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_hits"), 0.0);
    // Self-healing: the cold fallback re-stored a good entry.
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_stores"), 1.0);
    const PersistRun healed = runOnce(kernel, params);
    EXPECT_EQ(healed.stats.at("mesa.cache.persist_hits"), 1.0);
    expectSameRun(cold.run, healed.run);
}

TEST_F(PersistTest, FlippedPayloadByteFallsBackCold)
{
    const auto kernel = workloads::makeNn(256);
    core::MesaParams params;
    enableStore();
    const PersistRun cold = runOnce(kernel, params);

    const auto files = cacheFiles();
    ASSERT_EQ(files.size(), 1u);
    std::string bytes = readFile(files[0]);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x40; // payload bit flip, stale CRC
    writeFile(files[0], bytes);

    const PersistRun recovered = runOnce(kernel, params);
    expectSameRun(cold.run, recovered.run);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_corrupt"), 1.0);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_hits"), 0.0);
}

TEST_F(PersistTest, VersionSkewFallsBackCold)
{
    const auto kernel = workloads::makeNn(256);
    core::MesaParams params;
    enableStore();
    const PersistRun cold = runOnce(kernel, params);

    const auto files = cacheFiles();
    ASSERT_EQ(files.size(), 1u);
    std::string bytes = readFile(files[0]);
    bytes[4] = char(0x7f); // version field (offset 4), CRC refreshed
    refreshCrc(bytes);
    writeFile(files[0], bytes);

    const PersistRun recovered = runOnce(kernel, params);
    expectSameRun(cold.run, recovered.run);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_version_skew"),
              1.0);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_hits"), 0.0);
}

TEST_F(PersistTest, KeyEchoMismatchFallsBackCold)
{
    const auto kernel = workloads::makeNn(256);
    core::MesaParams params;
    enableStore();
    const PersistRun cold = runOnce(kernel, params);

    const auto files = cacheFiles();
    ASSERT_EQ(files.size(), 1u);
    std::string bytes = readFile(files[0]);
    bytes[8] ^= 0x01; // region_start echo (offset 8), CRC refreshed
    refreshCrc(bytes);
    writeFile(files[0], bytes);

    const PersistRun recovered = runOnce(kernel, params);
    expectSameRun(cold.run, recovered.run);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_key_mismatch"),
              1.0);
    EXPECT_EQ(recovered.stats.at("mesa.cache.persist_hits"), 0.0);
}

TEST_F(PersistTest, GeometryMismatchIsAMissNotAWrongConfig)
{
    const auto kernel = workloads::makeNn(256);
    core::MesaParams m128;
    enableStore();
    const PersistRun big = runOnce(kernel, m128);
    ASSERT_EQ(cacheFiles().size(), 1u);

    // A different fabric geometry keys a different entry: the M-64
    // run must miss (never load the M-128 config) and store its own.
    core::MesaParams m64;
    m64.accel = accel::AccelParams::byName("M-64");
    const PersistRun small = runOnce(kernel, m64);
    EXPECT_EQ(small.stats.at("mesa.cache.persist_hits"), 0.0);
    EXPECT_EQ(small.stats.at("mesa.cache.persist_misses"), 1.0);
    EXPECT_EQ(cacheFiles().size(), 2u);

    core::TranslationStore::global().setDirectory("");
    const PersistRun small_plain = runOnce(kernel, m64);
    expectSameRun(small_plain.run, small.run);
    (void)big;
}

TEST_F(PersistTest, BlockedPeSetChangesTheKey)
{
    // Quarantined-PE sets are part of the key: a config mapped around
    // blocked PEs must never be served to a healthy fabric or vice
    // versa.
    const uint32_t none = core::blockedPeDigest({});
    const uint32_t one = core::blockedPeDigest({{1, 2}});
    const uint32_t other = core::blockedPeDigest({{2, 1}});
    EXPECT_NE(none, one);
    EXPECT_NE(one, other);

    core::TranslationKey a;
    a.blocked_crc = one;
    core::TranslationKey b;
    b.blocked_crc = other;
    const auto &store = core::TranslationStore::global();
    EXPECT_NE(store.entryPath(a), store.entryPath(b));
}

TEST_F(PersistTest, ParamsFingerprintSeesPrepareRelevantKnobs)
{
    core::MesaParams base;
    const uint32_t fp = core::paramsFingerprint(base);

    core::MesaParams geom = base;
    geom.accel = accel::AccelParams::byName("M-64");
    EXPECT_NE(core::paramsFingerprint(geom), fp);

    core::MesaParams tiling = base;
    tiling.enable_tiling = !tiling.enable_tiling;
    EXPECT_NE(core::paramsFingerprint(tiling), fp);

    core::MesaParams unroll = base;
    unroll.unroll_factor += 1;
    EXPECT_NE(core::paramsFingerprint(unroll), fp);
}

// An index that a later stage dereferences must be range-checked at
// load time. The config's semantic CRC does not cover the LDFG or the
// certificate, so a file tampered there with a refreshed whole-file
// CRC reaches the field checks.

TEST_F(PersistTest, CertificateRegisterOutOfRangeIsCorrupt)
{
    // absint::instantiate reads the induction register's value, so
    // ind_base 200 would index past the 64 unified registers.
    core::MesaParams params;
    params.fault.enabled = true;
    params.fault.certificate_gating = true;
    expectIndexRejected(workloads::makeNn(256), params, IndBase, 200);
}

TEST_F(PersistTest, LdfgSourcePastNodeCountIsCorrupt)
{
    expectIndexRejected(workloads::makeNn(256), core::MesaParams{},
                        FirstNodeSrc1, 1'000'000);
}

TEST_F(PersistTest, OpPastNumOpsIsCorrupt)
{
    expectIndexRejected(workloads::makeNn(256), core::MesaParams{},
                        FirstNodeOp, int32_t(riscv::Op::NumOps));
}

// In-range LDFG tampering: every index stays in bounds, so only the
// verifier's rename replay can tell the graph from its instructions.

TEST_F(PersistTest, LdfgLiveInWiringFlipIsCorrupt)
{
    // Node 9 names another register as its first live-in.
    expectRejected(workloads::makeNn(256), core::MesaParams{},
                   [](std::string &bytes) {
                       const size_t at = ldfgLayout(bytes).live_in1.at(9);
                       bytes[at] ^= 0x01;
                   });
}

TEST_F(PersistTest, LdfgLiveInSetFlipIsCorrupt)
{
    // The live-in set holds another register.
    expectRejected(workloads::makeNn(256), core::MesaParams{},
                   [](std::string &bytes) {
                       const size_t at = ldfgLayout(bytes).live_ins;
                       bytes[at] ^= 0x01;
                   });
}

TEST_F(PersistTest, MutatedEntriesFailClosed)
{
    enableStore();
    // Real entries: certified (fault mode, certificate gating), tiled
    // (nn on the default array), folded (srad on M-64) and mapped
    // around blocked PEs.
    core::MesaParams certified;
    certified.fault.enabled = true;
    certified.fault.certificate_gating = true;
    runOnce(workloads::makeNn(256), certified);
    runOnce(workloads::makeNn(256), core::MesaParams{});
    core::MesaParams m64;
    m64.accel = accel::AccelParams::byName("M-64");
    m64.enable_time_multiplexing = true;
    runOnce(workloads::makeSrad(256), m64);
    storeAroundBlocked(workloads::makeHotspot(256), {{0, 0}, {1, 2}});

    auto &store = core::TranslationStore::global();
    std::vector<std::string> entries;
    bool saw_cert = false, saw_tiles = false, saw_fold = false,
         saw_blocked = false;
    for (const fs::path &path : cacheFiles()) {
        entries.push_back(readFile(path));
        const core::TranslationKey key = keyOf(entries.back());
        core::PreparedRegion prep;
        store.setDirectory(dir_.string()); // drop the memo: read disk
        ASSERT_EQ(store.load(key, prep), core::PersistOutcome::Hit)
            << path;
        saw_cert |= prep.cert != nullptr;
        saw_tiles |= prep.config.tileCount() > 1;
        saw_fold |= prep.config.time_multiplex > 1;
        saw_blocked |= key.blocked_crc != core::blockedPeDigest({});
    }
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_TRUE(saw_cert && saw_tiles && saw_fold && saw_blocked);

    SplitMix64 rng(22);
    std::map<core::PersistOutcome, int> outcomes;
    for (const std::string &entry : entries) {
        const core::TranslationKey key = keyOf(entry);
        const fs::path path = store.entryPath(key);
        // u64 fields holding small values: mostly container counts.
        std::vector<size_t> small_u64;
        for (size_t at = HeaderBytes; at + 8 <= entry.size() - 4; ++at) {
            uint64_t v = 0;
            BinaryReader(entry.data() + at, 8)(v);
            if (v > 0 && v < 4096)
                small_u64.push_back(at);
        }
        for (int i = 0; i < 300; ++i) {
            std::string m = entry;
            const size_t at = rng.below(m.size() - 4);
            switch (rng.below(3)) {
              case 0: // bit flips
                for (uint64_t n = rng.range(1, 3); n > 0; --n) {
                    const size_t flip = rng.below(m.size() - 4);
                    m[flip] = char(m[flip] ^ (1 << rng.below(8)));
                }
                break;
              case 1: // truncation
                m.resize(at + 4);
                break;
              default: { // an inflated count
                const size_t c = small_u64[rng.below(small_u64.size())];
                const uint64_t big = uint64_t(1) << rng.range(12, 63);
                for (size_t b = 0; b < 8; ++b)
                    m[c + b] = char(big >> (8 * b));
                break;
              }
            }
            refreshCrc(m);
            writeFile(path, m);
            store.setDirectory(dir_.string());
            core::PreparedRegion prep;
            const core::PersistOutcome outcome = store.load(key, prep);
            EXPECT_NE(outcome, core::PersistOutcome::Miss);
            ++outcomes[outcome];
        }
        writeFile(path, entry);
    }
    // Most mutations are refused. Those that leave every field in
    // range still load; loading them must not crash either.
    EXPECT_GT(outcomes[core::PersistOutcome::Corrupt], 600);
    EXPECT_GT(outcomes[core::PersistOutcome::Hit], 0);
}

} // namespace
