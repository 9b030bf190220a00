/**
 * @file
 * Rodinia-like kernel suite. Each builder assembles the benchmark's
 * hot loop as it comes out of a -O3 RV32G compile: pointer-increment
 * induction, FP arithmetic on loaded values, a conditional backward
 * branch closing the loop. Dataset generators fill memory with
 * deterministic pseudo-random values.
 */

#include "workloads/kernel.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "riscv/isa.hh"
#include "util/logging.hh"

namespace mesa::workloads
{

using namespace riscv::reg;
using riscv::Assembler;

namespace
{

// Array bases, 1 MiB apart.
constexpr uint32_t ArrA = 0x00100000;
constexpr uint32_t ArrB = 0x00200000;
constexpr uint32_t ArrC = 0x00300000;
constexpr uint32_t ArrD = 0x00400000;

constexpr uint32_t ProgBase = 0x1000;

/** Deterministic LCG for dataset generation. */
uint32_t
lcg(uint32_t &s)
{
    s = s * 1664525u + 1013904223u;
    return s;
}

/** Uniform float in [lo, hi). */
float
frand(uint32_t &s, float lo = 0.0f, float hi = 1.0f)
{
    const float u = float(lcg(s) >> 8) / float(1u << 24);
    return lo + u * (hi - lo);
}

void
fillFloats(mem::MainMemory &m, uint32_t base, uint64_t count,
           uint32_t seed, float lo, float hi)
{
    uint32_t s = seed;
    for (uint64_t i = 0; i < count; ++i)
        m.writeFloat(base + uint32_t(4 * i), frand(s, lo, hi));
}

/**
 * Reserve an output buffer by touching its pages with zeroes. Real
 * offload regions include pre-allocated output arrays; making them
 * resident up front keeps the workload's memory region honest for
 * static footprint certification without changing observable data
 * (absent pages read as zero anyway).
 */
void
reserveBytes(mem::MainMemory &m, uint32_t base, uint64_t bytes)
{
    if (bytes == 0)
        return;
    for (uint64_t off = 0; off < bytes; off += mem::MainMemory::PageSize)
        m.write8(base + uint32_t(off), 0);
    m.write8(base + uint32_t(bytes - 1), 0);
}

void
setF(riscv::ArchState &st, int fr, float v)
{
    st.f[size_t(fr)] = std::bit_cast<uint32_t>(v);
}

/** Finish a kernel: record the loop range and program. */
void
finalize(Kernel &k, const Assembler &as, uint32_t loop_start)
{
    k.program = as.assemble();
    k.loop_start = loop_start;
    // The loop ends at the ecall (one past the backward branch).
    k.loop_end = k.program.labelPc("exit");
}

} // namespace

Kernel
makeNn(uint64_t n)
{
    Kernel k;
    k.name = "nn";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    as.flw(ft0, 0, a0);       // lat[i]
    as.flw(ft1, 0, a1);       // lng[i]
    as.fsub_s(ft0, ft0, fa0); // - target_lat
    as.fsub_s(ft1, ft1, fa1); // - target_lng
    as.fmul_s(ft0, ft0, ft0);
    as.fmul_s(ft1, ft1, ft1);
    as.fadd_s(ft0, ft0, ft1);
    as.fsqrt_s(ft2, ft0);
    as.fsw(ft2, 0, a2);       // dist[i]
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.addi(a2, a2, 4);
    as.blt(a0, a3, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n, 1, -90.0f, 90.0f);
        fillFloats(m, ArrB, n, 2, -180.0f, 180.0f);
        reserveBytes(m, ArrC, 4 * n); // dist[] output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrC + uint32_t(4 * b);
        st.x[a3] = ArrA + uint32_t(4 * e);
        setF(st, fa0, 37.4f);
        setF(st, fa1, -122.1f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeKmeans(uint64_t n)
{
    Kernel k;
    k.name = "kmeans";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // 4-feature point vs one centroid (fa0..fa3).
    as.flw(ft0, 0, a0);
    as.fsub_s(ft0, ft0, fa0);
    as.fmul_s(ft0, ft0, ft0);
    as.flw(ft1, 4, a0);
    as.fsub_s(ft1, ft1, fa1);
    as.fmul_s(ft1, ft1, ft1);
    as.flw(ft2, 8, a0);
    as.fsub_s(ft2, ft2, fa2);
    as.fmul_s(ft2, ft2, ft2);
    as.flw(ft3, 12, a0);
    as.fsub_s(ft3, ft3, fa3);
    as.fmul_s(ft3, ft3, ft3);
    as.fadd_s(ft0, ft0, ft1);
    as.fadd_s(ft2, ft2, ft3);
    as.fadd_s(ft0, ft0, ft2);
    as.fsw(ft0, 0, a1);
    as.addi(a0, a0, 16);
    as.addi(a1, a1, 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, 4 * n, 3, 0.0f, 10.0f);
        reserveBytes(m, ArrC, 4 * n); // membership distance output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(16 * b);
        st.x[a1] = ArrC + uint32_t(4 * b);
        st.x[a2] = ArrA + uint32_t(16 * e);
        setF(st, fa0, 5.0f);
        setF(st, fa1, 2.5f);
        setF(st, fa2, 7.5f);
        setF(st, fa3, 1.25f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeHotspot(uint64_t n)
{
    Kernel k;
    k.name = "hotspot";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // t_new[i] = t[i] + c*(t[i-1] + t[i+1] - 2 t[i]) + p[i]
    as.flw(ft0, 0, a0);   // t[i]
    as.flw(ft1, -4, a0);  // t[i-1]
    as.flw(ft2, 4, a0);   // t[i+1]
    as.flw(ft3, 0, a1);   // p[i]
    as.fadd_s(ft4, ft1, ft2);
    as.fmul_s(ft5, ft0, fa1); // 2*t[i]
    as.fsub_s(ft4, ft4, ft5);
    as.fmul_s(ft4, ft4, fa0); // *c
    as.fadd_s(ft4, ft4, ft0);
    as.fadd_s(ft4, ft4, ft3);
    as.fsw(ft4, 0, a2);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.addi(a2, a2, 4);
    as.blt(a0, a3, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n + 2, 4, 20.0f, 90.0f); // t (padded)
        fillFloats(m, ArrB, n + 2, 5, 0.0f, 2.0f);   // power
        reserveBytes(m, ArrC, 4 * (n + 2)); // t_next output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * (b + 1)); // interior points
        st.x[a1] = ArrB + uint32_t(4 * (b + 1));
        st.x[a2] = ArrC + uint32_t(4 * (b + 1));
        st.x[a3] = ArrA + uint32_t(4 * (e + 1));
        setF(st, fa0, 0.1f);
        setF(st, fa1, 2.0f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeCfd(uint64_t n)
{
    Kernel k;
    k.name = "cfd";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // Flux-like computation over (rho, mx, my, mz).
    as.flw(ft0, 0, a0);
    as.flw(ft1, 4, a0);
    as.flw(ft2, 8, a0);
    as.flw(ft3, 12, a0);
    as.fmul_s(ft4, ft1, ft1);
    as.fmul_s(ft5, ft2, ft2);
    as.fmul_s(ft6, ft3, ft3);
    as.fadd_s(ft4, ft4, ft5);
    as.fadd_s(ft4, ft4, ft6);
    as.fadd_s(ft7, ft0, fa0); // rho + 1
    as.fdiv_s(ft4, ft4, ft7); // |m|^2 / (rho+1)
    as.fmul_s(ft5, ft0, fa1); // 0.4 * rho
    as.fadd_s(ft5, ft5, ft4); // pressure-ish
    as.fmul_s(ft6, ft1, ft5);
    as.fmul_s(ft7, ft2, ft5);
    as.fsw(ft5, 0, a1);
    as.fsw(ft6, 4, a1);
    as.fsw(ft7, 8, a1);
    as.addi(a0, a0, 16);
    as.addi(a1, a1, 16);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, 4 * n, 6, 0.5f, 1.5f);
        reserveBytes(m, ArrC, 16 * n); // flux output (16B stride)
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(16 * b);
        st.x[a1] = ArrC + uint32_t(16 * b);
        st.x[a2] = ArrA + uint32_t(16 * e);
        setF(st, fa0, 1.0f);
        setF(st, fa1, 0.4f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeBackprop(uint64_t n)
{
    Kernel k;
    k.name = "backprop";
    k.parallel = false; // reduction carries fa0 across iterations
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    as.flw(ft0, 0, a0); // weight
    as.flw(ft1, 0, a1); // input
    as.fmul_s(ft2, ft0, ft1);
    as.fadd_s(fa0, fa0, ft2); // running sum (loop-carried)
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.fsw(fa0, 0, a3); // store the sum after the loop
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n, 7, -1.0f, 1.0f);
        fillFloats(m, ArrB, n, 8, 0.0f, 1.0f);
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrA + uint32_t(4 * e);
        st.x[a3] = ArrC;
        setF(st, fa0, 0.0f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeBfs(uint64_t n)
{
    Kernel k;
    k.name = "bfs";
    k.parallel = true; // per-level edge scans are parallel
    k.fp = false;
    k.iterations = n; // total inner (edge-scan) iterations
    // Level-by-level frontier marking: an outer loop over BFS levels
    // re-enters a short inner edge scan each time, and the visited[]
    // stores have data-dependent addresses. Repeated offload overhead
    // plus untileable stores make bfs the paper's worst citizen.
    constexpr uint32_t NumNodes = 1u << 17;
    const uint32_t Levels = uint32_t(std::max<uint64_t>(4, n / 256));

    Assembler as(ProgBase);
    as.label("outer");
    as.add(a6, a6, s5);  // this level's edge-scan bound
    const uint32_t loop = as.here();
    as.label("loop");
    as.lw(t0, 0, a0);   // edge destination index
    as.slli(t1, t0, 2);
    as.add(t1, t1, a4); // &visited[dst] (data-dependent address)
    as.lw(t2, 0, t1);
    as.bne(t2, zero, "skip"); // already visited?
    as.sw(a5, 0, t1);         // mark with level (predicated)
    as.label("skip");
    as.addi(a0, a0, 4);
    as.blt(a0, a6, "loop");
    as.label("exit");
    as.addi(s2, s2, 1);
    as.blt(s2, s3, "outer");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        uint32_t s = 9;
        for (uint64_t i = 0; i < n; ++i)
            m.write32(ArrA + uint32_t(4 * i), lcg(s) % NumNodes);
        // visited[]: sparse pre-marked nodes, one page-sized block at
        // a time (a whole-array buffer would raise peak RSS).
        constexpr uint32_t PageWords = mem::MainMemory::PageSize / 4;
        static_assert(NumNodes % PageWords == 0);
        std::array<uint32_t, PageWords> page;
        for (uint32_t base = 0; base < NumNodes; base += PageWords) {
            for (uint32_t j = 0; j < PageWords; ++j)
                page[j] = ((base + j) % 7 == 0) ? 1 : 0;
            m.writeBlock(ArrB + 4 * base, page.data(), sizeof(page));
        }
    };
    k.init_range = [Levels](riscv::ArchState &st, uint64_t b,
                            uint64_t e) {
        const uint32_t chunk_bytes =
            std::max(4u, uint32_t(4 * (e - b) / Levels));
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a6] = ArrA + uint32_t(4 * b); // advanced per level
        st.x[s5] = chunk_bytes;
        st.x[a4] = ArrB;
        st.x[a5] = 1; // mark value (idempotent across threads)
        st.x[s2] = 0;
        st.x[s3] = Levels;
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeSrad(uint64_t n)
{
    Kernel k;
    k.name = "srad";
    k.parallel = true;
    k.fp = true;
    k.iterations = n / 4; // 4 elements per iteration (unrolled)

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // Four unrolled diffusion updates: ~78-instruction body, too
    // large for M-64's 64-PE capacity (fails C1 there) but mappable
    // on M-128/M-512 — matching the paper's SRAD qualification note.
    for (int u = 0; u < 4; ++u) {
        const int32_t off = 4 * u;
        as.flw(ft0, off, a0);      // center
        as.flw(ft1, off - 4, a0);  // west
        as.flw(ft2, off + 4, a0);  // east
        as.flw(ft3, off, a1);      // north row
        as.flw(ft4, off, a2);      // south row
        as.fsub_s(ft5, ft1, ft0);
        as.fsub_s(ft6, ft2, ft0);
        as.fsub_s(ft7, ft3, ft0);
        as.fsub_s(fs0, ft4, ft0);
        as.fadd_s(ft5, ft5, ft6);
        as.fadd_s(ft7, ft7, fs0);
        as.fadd_s(ft5, ft5, ft7);
        as.fmul_s(ft6, ft5, ft5);
        as.fadd_s(ft6, ft6, fa1); // + eps
        as.fdiv_s(ft5, ft5, ft6);
        as.fmul_s(ft5, ft5, fa0); // * lambda
        as.fadd_s(ft5, ft0, ft5);
        as.fsw(ft5, off, a3);
    }
    as.addi(a0, a0, 16);
    as.addi(a1, a1, 16);
    as.addi(a2, a2, 16);
    as.addi(a3, a3, 16);
    as.blt(a0, a4, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n + 8, 10, 0.1f, 1.0f);
        fillFloats(m, ArrB, n + 8, 11, 0.1f, 1.0f);
        fillFloats(m, ArrC, n + 8, 12, 0.1f, 1.0f);
        reserveBytes(m, ArrD, 4 * (n + 8)); // diffused image output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(16 * b + 4);
        st.x[a1] = ArrB + uint32_t(16 * b + 4);
        st.x[a2] = ArrC + uint32_t(16 * b + 4);
        st.x[a3] = ArrD + uint32_t(16 * b + 4);
        st.x[a4] = ArrA + uint32_t(16 * e + 4);
        setF(st, fa0, 0.25f);
        setF(st, fa1, 0.05f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeLud(uint64_t n)
{
    Kernel k;
    k.name = "lud";
    k.parallel = false; // running reduction
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    as.flw(ft0, 0, a0); // row element
    as.flw(ft1, 0, a1); // column element (strided)
    as.fmul_s(ft2, ft0, ft1);
    as.fsub_s(fa0, fa0, ft2);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 256); // column stride: poor locality
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.fsw(fa0, 0, a3);
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n, 13, -1.0f, 1.0f);
        fillFloats(m, ArrB, 64 * n, 14, -1.0f, 1.0f);
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(256 * b);
        st.x[a2] = ArrA + uint32_t(4 * e);
        st.x[a3] = ArrC;
        setF(st, fa0, 1.0f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makePathfinder(uint64_t n)
{
    Kernel k;
    k.name = "pathfinder";
    k.parallel = true;
    k.fp = false;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // dst[i] = cost[i] + min(prev[i-1], prev[i], prev[i+1]);
    // -O3 emits branchless mins: min(a,b) = a ^ ((a^b) & -(b<a)).
    as.lw(t0, 0, a0);  // prev[i-1]
    as.lw(t1, 4, a0);  // prev[i]
    as.lw(t2, 8, a0);  // prev[i+1]
    as.slt(t3, t1, t0);
    as.sub(t3, zero, t3);
    as.xor_(t4, t1, t0);
    as.and_(t4, t4, t3);
    as.xor_(t0, t0, t4); // t0 = min(prev[i-1], prev[i])
    as.slt(t3, t2, t0);
    as.sub(t3, zero, t3);
    as.xor_(t4, t2, t0);
    as.and_(t4, t4, t3);
    as.xor_(t0, t0, t4); // t0 = min(t0, prev[i+1])
    as.lw(t4, 0, a1);  // cost[i]
    as.add(t0, t0, t4);
    as.sw(t0, 0, a2);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.addi(a2, a2, 4);
    as.blt(a0, a3, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        uint32_t s = 15;
        for (uint64_t i = 0; i < n + 2; ++i)
            m.write32(ArrA + uint32_t(4 * i), lcg(s) % 1000);
        for (uint64_t i = 0; i < n; ++i)
            m.write32(ArrB + uint32_t(4 * i), lcg(s) % 10);
        reserveBytes(m, ArrC, 4 * n); // dst[] output row
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrC + uint32_t(4 * b);
        st.x[a3] = ArrA + uint32_t(4 * e);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeBtree(uint64_t n)
{
    Kernel k;
    k.name = "b+tree";
    k.parallel = false;
    k.fp = false;
    k.mesa_supported = false; // inner key-scan loop disqualifies (C2)
    k.iterations = n;
    constexpr uint32_t KeysPerNode = 16;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("outer");
    as.lw(t0, 0, a0);   // query key
    as.addi(t1, a4, 0); // key array cursor
    as.addi(t3, zero, 0);
    as.label("inner");
    as.lw(t2, 0, t1);
    as.bge(t2, t0, "found"); // first key >= query
    as.addi(t1, t1, 4);
    as.addi(t3, t3, 1);
    as.blt(t3, a5, "inner");
    as.label("found");
    as.sw(t3, 0, a1);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.blt(a0, a3, "outer");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        uint32_t s = 16;
        for (uint64_t i = 0; i < n; ++i)
            m.write32(ArrA + uint32_t(4 * i), lcg(s) % 4096);
        // Sorted key array: 16 ascending keys spanning the range.
        for (uint32_t i = 0; i < KeysPerNode; ++i)
            m.write32(ArrB + 4 * i, (i + 1) * 256);
        reserveBytes(m, ArrC, 4 * n); // found-index output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrC + uint32_t(4 * b);
        st.x[a3] = ArrA + uint32_t(4 * e);
        st.x[a4] = ArrB;
        st.x[a5] = KeysPerNode;
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeStreamcluster(uint64_t n)
{
    Kernel k;
    k.name = "streamcluster";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // 8-dimension weighted distance to a center (fa0..fa3 reused).
    for (int d = 0; d < 8; ++d) {
        const uint8_t freg = uint8_t(ft0 + (d % 4));
        as.flw(freg, 4 * d, a0);
        as.fsub_s(freg, freg, uint8_t(fa0 + (d % 4)));
        as.fmul_s(freg, freg, freg);
        if (d == 0)
            as.fsgnj_s(ft4, ft0, ft0); // acc = first term
        else
            as.fadd_s(ft4, ft4, freg);
    }
    as.flw(ft5, 0, a1); // weight
    as.fmul_s(ft4, ft4, ft5);
    as.fsw(ft4, 0, a2);
    as.addi(a0, a0, 32);
    as.addi(a1, a1, 4);
    as.addi(a2, a2, 4);
    as.blt(a0, a3, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, 8 * n, 17, 0.0f, 4.0f);
        fillFloats(m, ArrB, n, 18, 0.5f, 2.0f);
        reserveBytes(m, ArrC, 4 * n); // weighted-distance output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(32 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrC + uint32_t(4 * b);
        st.x[a3] = ArrA + uint32_t(32 * e);
        setF(st, fa0, 2.0f);
        setF(st, fa1, 1.0f);
        setF(st, fa2, 3.0f);
        setF(st, fa3, 0.5f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeLavaMd(uint64_t n)
{
    Kernel k;
    k.name = "lavaMD";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    as.flw(ft0, 0, a0); // dx
    as.flw(ft1, 4, a0); // dy
    as.flw(ft2, 8, a0); // dz
    as.fmul_s(ft3, ft0, ft0);
    as.fmul_s(ft4, ft1, ft1);
    as.fmul_s(ft5, ft2, ft2);
    as.fadd_s(ft3, ft3, ft4);
    as.fadd_s(ft3, ft3, ft5);
    as.fadd_s(ft3, ft3, fa0); // + eps
    as.fdiv_s(ft4, fa1, ft3); // 1 / r^2
    as.fmul_s(ft5, ft4, ft4);
    as.flw(ft6, 0, a1);       // accumulate into own force slot
    as.fadd_s(ft6, ft6, ft5);
    as.fsw(ft6, 0, a1);
    as.addi(a0, a0, 12);
    as.addi(a1, a1, 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, 3 * n, 19, -2.0f, 2.0f);
        fillFloats(m, ArrB, n, 20, 0.0f, 0.1f);
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(12 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrA + uint32_t(12 * e);
        setF(st, fa0, 0.01f);
        setF(st, fa1, 1.0f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeGaussian(uint64_t n)
{
    Kernel k;
    k.name = "gaussian";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // a[j] -= m * b[j]
    as.flw(ft0, 0, a0);
    as.flw(ft1, 0, a1);
    as.fmul_s(ft2, ft1, fa0);
    as.fsub_s(ft0, ft0, ft2);
    as.fsw(ft0, 0, a0);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n, 21, -4.0f, 4.0f);
        fillFloats(m, ArrB, n, 22, -4.0f, 4.0f);
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrA + uint32_t(4 * e);
        setF(st, fa0, 0.75f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeHeartwall(uint64_t n)
{
    Kernel k;
    k.name = "heartwall";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // Normalized cross-correlation step: template vs frame window.
    as.flw(ft0, 0, a0);       // frame[i]
    as.flw(ft1, 0, a1);       // template[i]
    as.fsub_s(ft2, ft0, fa0); // - frame mean
    as.fsub_s(ft3, ft1, fa1); // - template mean
    as.fmul_s(ft4, ft2, ft3); // covariance term
    as.fmul_s(ft5, ft2, ft2); // frame variance term
    as.fmul_s(ft6, ft3, ft3); // template variance term
    as.fadd_s(ft5, ft5, fa2); // + eps
    as.fmul_s(ft7, ft5, ft6);
    as.fsqrt_s(ft7, ft7);
    as.fdiv_s(ft4, ft4, ft7); // normalized correlation
    as.fsw(ft4, 0, a2);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.addi(a2, a2, 4);
    as.blt(a0, a3, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n, 23, 0.0f, 255.0f);
        fillFloats(m, ArrB, n, 24, 0.0f, 255.0f);
        reserveBytes(m, ArrC, 4 * n); // correlation output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(4 * b);
        st.x[a1] = ArrB + uint32_t(4 * b);
        st.x[a2] = ArrC + uint32_t(4 * b);
        st.x[a3] = ArrA + uint32_t(4 * e);
        setF(st, fa0, 127.5f);
        setF(st, fa1, 127.5f);
        setF(st, fa2, 0.5f);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeLeukocyte(uint64_t n)
{
    Kernel k;
    k.name = "leukocyte";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // GICOV-like gradient step over a cell boundary sample.
    as.flw(ft0, 0, a0);       // gradient x
    as.flw(ft1, 4, a0);       // gradient y
    as.flw(ft2, 0, a1);       // sin(theta) table
    as.flw(ft3, 4, a1);       // cos(theta) table
    as.fmul_s(ft4, ft0, ft3); // gx * cos
    as.fmul_s(ft5, ft1, ft2); // gy * sin
    as.fadd_s(ft4, ft4, ft5); // directional derivative
    as.fmul_s(ft5, ft4, ft4); // squared (variance numerator)
    as.fsw(ft4, 0, a2);
    as.fsw(ft5, 4, a2);
    as.addi(a0, a0, 8);
    as.addi(a1, a1, 8);
    as.addi(a2, a2, 8);
    as.blt(a0, a3, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, 2 * n, 25, -8.0f, 8.0f);
        fillFloats(m, ArrB, 2 * n, 26, -1.0f, 1.0f);
        reserveBytes(m, ArrC, 8 * n); // derivative + variance output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        st.x[a0] = ArrA + uint32_t(8 * b);
        st.x[a1] = ArrB + uint32_t(8 * b);
        st.x[a2] = ArrC + uint32_t(8 * b);
        st.x[a3] = ArrA + uint32_t(8 * e);
    };
    finalize(k, as, loop);
    return k;
}

Kernel
makeHotspot3d(uint64_t n)
{
    Kernel k;
    k.name = "hotspot3D";
    k.parallel = true;
    k.fp = true;
    k.iterations = n;
    constexpr int32_t Plane = 256; // z-stride in elements

    Assembler as(ProgBase);
    const uint32_t loop = as.here();
    as.label("loop");
    // 7-point 3D stencil: west/east from the row, north/south from
    // padded neighbor rows, above/below from adjacent planes.
    as.flw(ft0, 0, a0);            // center
    as.flw(ft1, -4, a0);           // west
    as.flw(ft2, 4, a0);            // east
    as.flw(ft3, 0, a1);            // north row
    as.flw(ft4, 0, a2);            // south row
    as.flw(ft5, -4 * Plane, a0);   // below plane
    as.flw(ft6, 4 * Plane, a0);    // above plane
    as.fadd_s(ft7, ft1, ft2);
    as.fadd_s(ft7, ft7, ft3);
    as.fadd_s(ft7, ft7, ft4);
    as.fadd_s(ft7, ft7, ft5);
    as.fadd_s(ft7, ft7, ft6);
    as.fmul_s(fs0, ft0, fa1);      // 6 * center
    as.fsub_s(ft7, ft7, fs0);
    as.fmul_s(ft7, ft7, fa0);      // * thermal coefficient
    as.fadd_s(ft7, ft7, ft0);
    as.fsw(ft7, 0, a4);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, 4);
    as.addi(a2, a2, 4);
    as.addi(a4, a4, 4);
    as.blt(a0, a5, "loop");
    as.label("exit");
    as.ecall();

    k.init_data = [n](mem::MainMemory &m) {
        fillFloats(m, ArrA, n + 2 * Plane + 8, 27, 20.0f, 90.0f);
        fillFloats(m, ArrB, n + 8, 28, 20.0f, 90.0f);
        fillFloats(m, ArrC, n + 8, 29, 20.0f, 90.0f);
        reserveBytes(m, ArrD, 4 * (n + 8)); // t_next output
    };
    k.init_range = [](riscv::ArchState &st, uint64_t b, uint64_t e) {
        // a0 points into the middle plane (offset by one plane).
        st.x[a0] = ArrA + uint32_t(4 * (Plane + 1 + b));
        st.x[a1] = ArrB + uint32_t(4 * (b + 1));
        st.x[a2] = ArrC + uint32_t(4 * (b + 1));
        st.x[a4] = ArrD + uint32_t(4 * (b + 1));
        st.x[a5] = ArrA + uint32_t(4 * (Plane + 1 + e));
        setF(st, fa0, 0.06f);
        setF(st, fa1, 6.0f);
    };
    finalize(k, as, loop);
    return k;
}

// rodiniaSuite / kernelByName live in suite.cc on the roster registry.

} // namespace mesa::workloads
