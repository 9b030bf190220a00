#include "mesa/translation_store.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <type_traits>

#include "util/archive.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "verify/verifier.hh"

namespace mesa::core
{

namespace fs = std::filesystem;
using riscv::Instruction;

namespace
{

/** File format version; bump on any layout change. */
constexpr uint32_t StoreMagic = 0x4354534d; // "MSTC"
constexpr uint32_t StoreVersion = 1;

/** Sanity cap on entry files: a translated region is a few KB; far
 *  larger files are garbage regardless of their CRC. */
constexpr uint64_t MaxEntryBytes = 64u << 20;

/** In-process memo bound: distinct translated regions per run are
 *  typically in the dozens; past this the memo simply restarts. */
constexpr size_t MaxMemoEntries = 256;

/** Largest placement grid an entry may claim. Real geometries are
 *  orders of magnitude smaller; a larger one is garbage that would
 *  otherwise size the Sdfg allocation. Tile and fold factors never
 *  exceed it either. */
constexpr int64_t MaxGridCells = 1 << 20;

/** Fields a later stage uses as an index, by the range they index. */
enum Index
{
    Opcode, ///< riscv::Op, below NumOps.
    RegNum, ///< Architectural register number of an instruction.
    Reg,    ///< Unified register, or -1 for none.
    Node,   ///< LDFG node id, or NoNode.
    Factor, ///< Tile or fold factor, at least 1.
};

/**
 * The store's archives add to the plain field lists of util/archive.hh
 * the fields a later stage uses as an index. The writer stores them as
 * they are; the reader fails the stream on one outside its range and
 * leaves it at the bottom of the range, so the steps after it stay in
 * bounds. The field lists add the checks that span fields (the grid
 * size, slot positions, Sdfg placements) on the reading side.
 */
class Writer : public BinaryWriter
{
  public:
    using BinaryWriter::operator();

    template <class... T>
    void
    operator()(Index, const T &...v)
    {
        (*this)(v...);
    }
};

class Reader : public BinaryReader
{
  public:
    using BinaryReader::BinaryReader;
    using BinaryReader::list;
    using BinaryReader::operator();

    template <class... T>
    void
    operator()(Index kind, T &...v)
    {
        (ranged(v, kind), ...);
    }

    /** The LDFG's node list: its length bounds every node id read
     *  after its count. */
    template <class Fn>
    void
    list(std::vector<dfg::LdfgNode> &nodes, size_t min_bytes, Fn fn)
    {
        // The base sizes the list before the first element.
        BinaryReader::list(nodes, min_bytes, [&](dfg::LdfgNode &n) {
            nodes_ = nodes.size();
            fn(n);
        });
    }

  private:
    template <class T>
    void
    ranged(T &v, Index kind)
    {
        int64_t lo = 0;
        int64_t hi = 0;
        switch (kind) {
          case Opcode: hi = int64_t(riscv::Op::NumOps); break;
          case RegNum: hi = riscv::NumIntRegs; break;
          case Reg: lo = -1; hi = riscv::NumUnifiedRegs; break;
          case Node: lo = dfg::NoNode; hi = int64_t(nodes_); break;
          case Factor: lo = 1; hi = MaxGridCells + 1; break;
        }
        // Check the wire value: an enum conversion could wrap it.
        std::conditional_t<std::is_enum_v<T>, uint32_t, T> raw{};
        (*this)(raw);
        const bool in = int64_t(raw) >= lo && int64_t(raw) < hi;
        check(in);
        v = T(in ? int64_t(raw) : lo);
    }

    size_t nodes_ = 0;
};

/** Hand a const object to a field list (the writer never mutates). */
template <class T>
T &
mut(const T &v)
{
    return const_cast<T &>(v);
}

// ----- the field lists: one per persisted type, both directions -----

template <class Ar>
void
io(Ar &ar, Instruction &inst)
{
    ar(Opcode, inst.op);
    ar(RegNum, inst.rd, inst.rs1, inst.rs2, inst.rs3);
    ar(inst.imm, inst.raw, inst.pc);
}

template <class Ar>
void
io(Ar &ar, dfg::LdfgNode &n)
{
    io(ar, n.inst);
    ar(Node, n.id, n.src1, n.src2);
    ar(Reg, n.live_in1, n.live_in2);
    ar(Node, n.prev_dest_writer);
    ar(Reg, n.prev_dest_live_in);
    ar.list(n.guards, 4, [&](auto &id) { ar(Node, id); });
    ar.list(n.consumers, 4, [&](auto &id) { ar(Node, id); });
    ar(n.op_latency, n.edge_lat1, n.edge_lat2);
}

/** The graph keeps its parts private: they are written in place and
 *  read into locals that fromParts() reassembles. */
template <class Ar>
void
io(Ar &ar, dfg::Ldfg &g)
{
    std::vector<dfg::LdfgNode> read_nodes;
    std::set<int> read_live_ins, read_written;
    auto &nodes = Ar::Reading ? read_nodes : mut(g.nodes());
    auto &live_ins = Ar::Reading ? read_live_ins : mut(g.liveIns());
    auto &written = Ar::Reading ? read_written : mut(g.writtenRegs());
    std::array<dfg::NodeId, riscv::NumUnifiedRegs> rename;
    for (int reg = 0; reg < riscv::NumUnifiedRegs; ++reg)
        rename[size_t(reg)] = g.finalRename().lookup(reg);

    // A serialized node takes at least 88 bytes.
    ar.list(nodes, 88, [&](dfg::LdfgNode &n) { io(ar, n); });
    ar.list(live_ins, 4, [&](auto &reg) { ar(Reg, reg); });
    ar.list(written, 4, [&](auto &reg) { ar(Reg, reg); });
    for (dfg::NodeId &id : rename)
        ar(Node, id);

    if constexpr (Ar::Reading) {
        dfg::RenameTable table;
        for (int reg = 0; reg < riscv::NumUnifiedRegs; ++reg)
            table.update(reg, rename[size_t(reg)]);
        g = dfg::Ldfg::fromParts(std::move(nodes), std::move(live_ins),
                                 std::move(written), table);
    }
}

/** Sparse: the dimensions, then (node, row, col) per occupied cell in
 *  row-major order. */
template <class Ar>
void
io(Ar &ar, dfg::Sdfg &g)
{
    int rows = g.rows();
    int cols = g.cols();
    ar(rows, cols);
    std::vector<std::pair<dfg::NodeId, ic::Coord>> cells;
    if constexpr (Ar::Reading) {
        ar.check(rows >= 0 && cols >= 0 &&
                 int64_t(rows) * cols <= MaxGridCells);
        g = ar.ok() ? dfg::Sdfg(rows, cols) : dfg::Sdfg();
    } else {
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                if (g.at({r, c}) != dfg::NoNode)
                    cells.push_back({g.at({r, c}), {r, c}});
    }
    ar.list(cells, 12, [&](auto &cell) {
        ar(Node, cell.first);
        ar(cell.second.r, cell.second.c);
        if constexpr (Ar::Reading)
            ar.check(cell.first != dfg::NoNode &&
                     g.place(cell.first, cell.second));
    });
}

template <class Ar>
void
io(Ar &ar, MapResult &m)
{
    io(ar, m.sdfg);
    ar.list(m.unmapped, 4, [&](auto &id) { ar(Node, id); });
    ar.list(m.completion, 8, [&](auto &v) { ar(v); });
    ar(m.model_latency, m.mapping_cycles);
    ar.list(m.imap_trace, 8, [&](ImapTraceEntry &e) {
        ar(e.instruction);
        for (uint32_t &cycles : e.stage_cycles)
            ar(cycles);
        ar(e.total);
    });
}

template <class Ar>
void
io(Ar &ar, accel::AcceleratorConfig &cfg)
{
    ar(cfg.region_start, cfg.region_end, cfg.resume_pc);
    ar(cfg.rows, cfg.cols);
    // A serialized slot takes at least 86 bytes.
    ar.list(cfg.slots, 86, [&](accel::PeSlot &s) {
        ar(Node, s.node);
        io(ar, s.inst);
        ar(s.pos.r, s.pos.c);
        if constexpr (Ar::Reading) // unplaced, or a cell of the grid
            ar.check(s.pos == ic::Coord{} ||
                     (s.pos.r >= 0 && s.pos.r < cfg.rows && s.pos.c >= 0 &&
                      s.pos.c < cfg.cols));
        ar(Node, s.src1, s.src2);
        ar(Reg, s.live_in1, s.live_in2);
        ar.list(s.guards, 4, [&](auto &id) { ar(Node, id); });
        ar(Node, s.prev_dest_writer);
        ar(Reg, s.prev_dest_live_in);
        ar(s.op_latency);
        ar(Node, s.forward_from_store);
        ar(s.vector_group, s.vector_leader, s.prefetch, s.prefetch_stride);
    });
    ar.list(cfg.live_ins, 4, [&](auto &reg) { ar(Reg, reg); });
    ar.list(cfg.live_outs, 8, [&](auto &kv) {
        ar(Reg, kv.first);
        ar(Node, kv.second);
    });
    ar.list(cfg.inductions, 12, [&](dfg::InductionReg &ind) {
        ar(Reg, ind.unified_reg);
        ar(Node, ind.update_node);
        ar(ind.step);
    });
    ar.list(cfg.imm_overrides, 8, [&](auto &kv) {
        ar(Node, kv.first);
        ar(kv.second);
    });
    ar.list(cfg.instances, 16, [&](accel::TileInstance &t) {
        ar(t.origin.r, t.origin.c);
        ar.list(t.reg_offsets, 8, [&](auto &kv) {
            ar(Reg, kv.first);
            ar(kv.second);
        });
    });
    ar(cfg.pipelined);
    ar(Factor, cfg.time_multiplex);
    ar(cfg.config_words, cfg.model_latency, cfg.crc);
}

template <class Ar>
void
io(Ar &ar, absint::BodyCertificate &cert)
{
    ar(cert.nodes, cert.mem_nodes, cert.converged, cert.fixpoint_rounds);
    ar.list(cert.footprint, 32, [&](absint::FootprintEntry &f) {
        ar(Node, f.node);
        ar(f.pc);
        ar(Opcode, f.op);
        ar(f.is_store, f.size, f.known);
        ar(Reg, f.base);
        ar(f.lo, f.hi, f.step, f.stride_mod, f.stride_rem);
    });
    absint::TripBound &t = cert.trip;
    ar(t.valid);
    ar(Opcode, t.op);
    ar(t.ind_is_lhs);
    ar(Reg, t.ind_base);
    ar(t.first, t.step);
    ar(Reg, t.bound_base);
    ar(t.bound_off, cert.per_iter_cycle_bound);
}

template <class Ar>
void
io(Ar &ar, PreparedRegion &prep)
{
    io(ar, prep.ldfg);
    io(ar, prep.map);
    io(ar, prep.config);
    ConfigOptions &o = prep.options;
    ar(o.enable_forwarding, o.enable_vectorization, o.enable_prefetch);
    ar(Factor, o.tile_factor);
    ar(o.pipelined);
    ar(Factor, o.time_multiplex);
    ar.list(o.live_in_adjustments, 8, [&](auto &kv) {
        ar(Reg, kv.first);
        ar(kv.second);
    });
    ar(o.resume_pc, prep.encode_cycles);
    ar(Factor, prep.max_tiles);
    ar(prep.body_tag);
    // The certificate is optional: a presence flag, then its fields.
    bool has_cert = prep.cert != nullptr;
    ar(has_cert);
    if (!has_cert)
        return;
    if constexpr (Ar::Reading) {
        auto cert = std::make_shared<absint::BodyCertificate>();
        io(ar, *cert);
        prep.cert = std::move(cert);
    } else {
        io(ar, mut(*prep.cert));
    }
}

template <class Ar>
void
io(Ar &ar, TranslationKey &key)
{
    ar(key.region_start, key.region_end, key.body_tag, key.params_crc,
       key.blocked_crc, key.parallel_hint);
}

/** An entry's fixed prefix: magic, version, and the key it is stored
 *  under. load() compares a file's prefix with it byte for byte. */
Writer
header(const TranslationKey &key)
{
    Writer w;
    w(StoreMagic, StoreVersion);
    io(w, mut(key));
    return w;
}

/** Unique temp-file suffix per writer (atomic publish via rename). */
std::atomic<uint64_t> temp_seq{0};

} // namespace

uint32_t
paramsFingerprint(const MesaParams &p)
{
    Crc32 crc;
    // Accelerator geometry and timing.
    crc.add32(uint32_t(p.accel.rows));
    crc.add32(uint32_t(p.accel.cols));
    crc.add32(p.accel.mem_ports);
    crc.add32(p.accel.pe_issue_interval);
    crc.addByte(p.accel.ideal_memory);
    crc.add64(std::bit_cast<uint64_t>(p.accel.dram_accesses_per_cycle));
    crc.addByte(p.accel.fp_slices);
    crc.add32(uint32_t(p.accel.noc_slice_width));
    crc.add64(std::bit_cast<uint64_t>(p.accel.fallback_bus_latency));
    const dfg::OpLatencyConfig &lat = p.accel.op_latency;
    for (double d : {lat.int_alu, lat.int_mul, lat.int_div, lat.fp_alu,
                     lat.fp_mul, lat.fp_div, lat.load, lat.store,
                     lat.branch, lat.jump})
        crc.add64(std::bit_cast<uint64_t>(d));
    crc.add32(p.accel.config_words_per_cycle);
    crc.add64(p.accel.watchdog_cycles);
    // Mapper window.
    crc.add32(uint32_t(p.mapper.cand_rows));
    crc.add32(uint32_t(p.mapper.cand_cols));
    crc.add64(std::bit_cast<uint64_t>(p.mapper.fallback_bus_latency));
    // The mapper's full-grid rescan, always on; still hashed so the
    // fingerprint (and every entry's file name) stays what it was.
    crc.addByte(1);
    // Optimization switches that steer prepare().
    crc.addByte(p.enable_tiling);
    crc.addByte(p.enable_pipelining);
    crc.addByte(p.enable_vectorization);
    crc.addByte(p.enable_forwarding);
    crc.addByte(p.enable_prefetch);
    crc.addByte(p.enable_time_multiplexing);
    crc.add32(uint32_t(p.max_time_multiplex));
    crc.addByte(p.enable_unrolling);
    crc.add32(uint32_t(p.unroll_factor));
    crc.addByte(p.verify_before_offload);
    crc.add64(std::bit_cast<uint64_t>(p.max_unmapped_frac));
    // Fault-mode switches that change what prepare() produces.
    crc.addByte(p.fault.enabled);
    crc.addByte(p.fault.checked_mode);
    crc.addByte(p.fault.certificate_gating);
    return crc.value();
}

uint32_t
blockedPeDigest(const std::vector<ic::Coord> &coords)
{
    std::vector<ic::Coord> sorted = coords;
    std::sort(sorted.begin(), sorted.end(),
              [](ic::Coord a, ic::Coord b) {
                  return a.r != b.r ? a.r < b.r : a.c < b.c;
              });
    Crc32 crc;
    for (ic::Coord pos : sorted) {
        crc.add32(uint32_t(pos.r));
        crc.add32(uint32_t(pos.c));
    }
    return crc.value();
}

TranslationStore &
TranslationStore::global()
{
    static TranslationStore store;
    return store;
}

void
TranslationStore::setDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dir_ = dir;
    memo_.clear(); // a different directory is a different store
    if (dir_.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        logWarn("mesa", "cannot create cache directory ", dir_, ": ",
                ec.message(), " — persistent cache disabled");
        dir_.clear();
    }
}

std::string
TranslationStore::entryPath(const TranslationKey &key) const
{
    char name[96];
    std::snprintf(name, sizeof(name),
                  "r%08x_b%08x_p%08x_f%08x_%c.mesatc",
                  key.region_start, key.body_tag, key.params_crc,
                  key.blocked_crc, key.parallel_hint ? 'p' : 's');
    return (fs::path(dir_) / name).string();
}

PersistOutcome
TranslationStore::load(const TranslationKey &key,
                       PreparedRegion &out) const
{
    if (!enabled())
        return PersistOutcome::Disabled;

    const std::string path = entryPath(key);
    {
        // In-process memo: the same entry is never re-parsed. The
        // shared_ptr is copied under the lock; the (heavier) object
        // copy happens outside it.
        std::shared_ptr<const PreparedRegion> hit;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = memo_.find(path);
            if (it != memo_.end())
                hit = it->second;
        }
        if (hit) {
            out = *hit;
            return PersistOutcome::Hit;
        }
    }

    std::ifstream f(path, std::ios::binary);
    if (!f)
        return PersistOutcome::Miss;
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    const std::string head = header(key).data();
    if (!f.good() || bytes.size() < head.size() + 4 ||
        bytes.size() > MaxEntryBytes)
        return PersistOutcome::Corrupt;

    // Whole-file CRC over everything before the trailing CRC word.
    const size_t body_len = bytes.size() - 4;
    uint32_t stored_crc = 0;
    BinaryReader tail(bytes.data() + body_len, 4);
    tail(stored_crc);
    if (crc32(bytes.data(), body_len) != stored_crc)
        return PersistOutcome::Corrupt;

    // The prefix field holding the first differing byte decides.
    const size_t differ = size_t(
        std::mismatch(head.begin(), head.end(), bytes.begin()).first -
        head.begin());
    if (differ < sizeof(StoreMagic))
        return PersistOutcome::Corrupt;
    if (differ < sizeof(StoreMagic) + sizeof(StoreVersion))
        return PersistOutcome::VersionSkew;
    if (differ < head.size())
        return PersistOutcome::KeyMismatch;

    Reader r(bytes.data() + head.size(), body_len - head.size());
    PreparedRegion prep;
    io(r, prep);
    if (!r.ok() || r.remaining() != 0)
        return PersistOutcome::Corrupt;
    // Belt and braces: the config's own semantic CRC must re-derive,
    // the same gate the controller applies before streaming. A wrong
    // configuration can never be served from disk.
    if (accel::configCrc(prep.config) != prep.config.crc ||
        prep.body_tag != key.body_tag)
        return PersistOutcome::Corrupt;
    // The CRC does not cover the LDFG, which the optimizer re-lowers
    // and relocation re-maps: its wiring, live-in and written sets
    // must agree with a rename replay of its own instructions.
    if (!verify::verifyLdfg(prep.ldfg).clean())
        return PersistOutcome::Corrupt;
    out = prep;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (memo_.size() >= MaxMemoEntries)
            memo_.clear(); // crude but bounded; entries are small
        memo_.emplace(path,
                      std::make_shared<const PreparedRegion>(
                          std::move(prep)));
    }
    return PersistOutcome::Hit;
}

PersistOutcome
TranslationStore::store(const TranslationKey &key,
                        const PreparedRegion &prep) const
{
    if (!enabled())
        return PersistOutcome::Disabled;

    Writer w = header(key);
    io(w, mut(prep));
    w(crc32(w.data().data(), w.data().size())); // whole-file CRC
    const std::string &bytes = w.data();

    const std::string path = entryPath(key);
    const std::string tmp =
        path + ".tmp" +
        std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return PersistOutcome::StoreFailed;
        f.write(bytes.data(), std::streamsize(bytes.size()));
        if (!f.good())
            return PersistOutcome::StoreFailed;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return PersistOutcome::StoreFailed;
    }
    return PersistOutcome::Stored;
}

} // namespace mesa::core
