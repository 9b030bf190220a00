/**
 * @file
 * Whole-pipeline fuzzing: randomly generated loop bodies (integer and
 * FP dataflow, loads/stores with overlapping addresses, predicated
 * regions, random loop-carried temporaries) are offloaded through the
 * full encode -> map -> configure -> execute stack and compared
 * bit-for-bit against the functional emulator. The controller is
 * always given the parallel hint, so the fuzzer also attacks the
 * tiling-safety analysis: a loop with a carried recurrence that gets
 * tiled anyway shows up as a mismatch here.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "absint/certificate.hh"
#include "dfg/unroll.hh"
#include "helpers.hh"
#include "mesa/translate.hh"
#include "riscv/assembler.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "verify/verifier.hh"

namespace
{

using namespace mesa;
using namespace mesa::test;
using namespace mesa::riscv::reg;
using riscv::Assembler;

constexpr uint32_t ArrIn = 0x00100000;
constexpr uint32_t ArrOut = 0x00200000;

struct GeneratedLoop
{
    workloads::Kernel kernel;
    int int_ops = 0;
    int fp_ops = 0;
    int loads = 0;
    int stores = 0;
    int branches = 0;
};

/** Generate a random but well-formed loop body. */
GeneratedLoop
generate(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto pick = [&](int lo, int hi) {
        return int(std::uniform_int_distribution<int>(lo, hi)(rng));
    };

    GeneratedLoop gen;
    Assembler as;

    // Register pools. a0/a1 are pointer inductions, a2 the bound;
    // a3..a5 and fa0..fa2 are constant live-ins.
    std::vector<uint8_t> int_regs = {t0, t1, t2, t3, t4, s2, s3};
    std::vector<uint8_t> fp_regs = {ft0, ft1, ft2, ft3, ft4, ft5};
    std::vector<uint8_t> int_ready = {a3, a4, a5};
    std::vector<uint8_t> fp_ready = {fa0, fa1, fa2};

    as.label("loop");
    const int body_ops = pick(6, 22);
    int until_join = 0; // inside a predicated region when > 0
    int label_id = 0;

    for (int i = 0; i < body_ops; ++i) {
        if (until_join > 0 && --until_join == 0)
            as.label("join" + std::to_string(label_id));

        const int kind = pick(0, 9);
        if (kind <= 3) {
            // Integer ALU op with random initialized sources.
            const uint8_t rd =
                int_regs[size_t(pick(0, int(int_regs.size()) - 1))];
            const uint8_t rs1 =
                int_ready[size_t(pick(0, int(int_ready.size()) - 1))];
            const uint8_t rs2 =
                int_ready[size_t(pick(0, int(int_ready.size()) - 1))];
            switch (pick(0, 6)) {
              case 0: as.add(rd, rs1, rs2); break;
              case 1: as.sub(rd, rs1, rs2); break;
              case 2: as.xor_(rd, rs1, rs2); break;
              case 3: as.and_(rd, rs1, rs2); break;
              case 4: as.or_(rd, rs1, rs2); break;
              case 5: as.mul(rd, rs1, rs2); break;
              case 6: as.slt(rd, rs1, rs2); break;
            }
            int_ready.push_back(rd);
            ++gen.int_ops;
        } else if (kind <= 5) {
            // FP op.
            const uint8_t rd =
                fp_regs[size_t(pick(0, int(fp_regs.size()) - 1))];
            const uint8_t rs1 =
                fp_ready[size_t(pick(0, int(fp_ready.size()) - 1))];
            const uint8_t rs2 =
                fp_ready[size_t(pick(0, int(fp_ready.size()) - 1))];
            switch (pick(0, 3)) {
              case 0: as.fadd_s(rd, rs1, rs2); break;
              case 1: as.fsub_s(rd, rs1, rs2); break;
              case 2: as.fmul_s(rd, rs1, rs2); break;
              case 3: as.fmin_s(rd, rs1, rs2); break;
            }
            fp_ready.push_back(rd);
            ++gen.fp_ops;
        } else if (kind == 6) {
            // Load from the input stream.
            const uint8_t rd =
                int_regs[size_t(pick(0, int(int_regs.size()) - 1))];
            as.lw(rd, 4 * pick(0, 3), a0);
            int_ready.push_back(rd);
            ++gen.loads;
        } else if (kind == 7) {
            // FP load.
            const uint8_t rd =
                fp_regs[size_t(pick(0, int(fp_regs.size()) - 1))];
            as.flw(rd, 4 * pick(0, 3), a0);
            fp_ready.push_back(rd);
            ++gen.fp_ops;
            ++gen.loads;
        } else if (kind == 8) {
            // Store a computed value to the output stream.
            const uint8_t rs =
                int_ready[size_t(pick(0, int(int_ready.size()) - 1))];
            if (rs >= 32) // never happens for int pool, guard anyway
                continue;
            as.sw(rs, 4 * pick(0, 3), a1);
            ++gen.stores;
        } else if (until_join == 0 && i + 2 < body_ops) {
            // Open a predicated region guarding the next 1..3 ops.
            const uint8_t rs =
                int_ready[size_t(pick(0, int(int_ready.size()) - 1))];
            ++label_id;
            if (pick(0, 1))
                as.beq(rs, zero, "join" + std::to_string(label_id));
            else
                as.bne(rs, zero, "join" + std::to_string(label_id));
            until_join = pick(1, 3);
            ++gen.branches;
        }
    }
    if (until_join > 0)
        as.label("join" + std::to_string(label_id));

    // Always store something so the loop has an observable effect.
    as.sw(int_ready.back() < 32 ? int_ready.back() : a3, 12, a1);
    as.fsw(fp_ready.back(), 16, a1);
    as.addi(a0, a0, 4);
    as.addi(a1, a1, pick(1, 5) * 4);
    as.blt(a0, a2, "loop");
    as.label("exit");
    as.ecall();

    auto &k = gen.kernel;
    k.name = "fuzz-" + std::to_string(seed);
    k.parallel = true; // the controller must decide tiling safety
    k.iterations = 96;
    k.program = as.assemble();
    k.loop_start = k.program.labelPc("loop");
    k.loop_end = k.program.labelPc("exit");
    k.init_data = [seed](mem::MainMemory &m) {
        std::mt19937 r(seed ^ 0x5A5A5A5A);
        for (uint32_t i = 0; i < 4096; i += 4)
            m.write32(ArrIn + i, uint32_t(r()));
        // Make the output stream resident too (zero pages compare
        // equal to absent ones, so this is observationally neutral):
        // the absint footprint certifier classifies store targets
        // against the resident region, and an honest in-region
        // verdict needs the outputs inside it.
        for (uint32_t i = 0; i < 2 * mem::MainMemory::PageSize; i += 4)
            m.write32(ArrOut + i, 0);
    };
    const uint32_t out_step = [&] {
        // Recover the a1 step from the assembled body (penultimate
        // addi before the branch).
        const auto body = k.loopBody();
        return uint32_t(body[body.size() - 2].imm);
    }();
    k.init_range = [seed, out_step](riscv::ArchState &st, uint64_t b,
                                    uint64_t e) {
        std::mt19937 r(seed ^ 0x33CC33CC);
        st.x[a0] = ArrIn + uint32_t(4 * b);
        st.x[a1] = ArrOut + uint32_t(out_step * b);
        st.x[a2] = ArrIn + uint32_t(4 * e);
        st.x[a3] = uint32_t(r());
        st.x[a4] = uint32_t(r());
        st.x[a5] = uint32_t(r() % 7); // small value: branches vary
        st.f[fa0] = uint32_t(r());
        st.f[fa1] = uint32_t(r());
        st.f[fa2] = std::bit_cast<uint32_t>(1.5f);
        // Temporaries start live: loop-carried uses read these.
        for (uint8_t reg : {t0, t1, t2, t3, t4, s2, s3})
            st.x[reg] = uint32_t(r());
        for (uint8_t reg : {ft0, ft1, ft2, ft3, ft4, ft5})
            st.f[reg] = uint32_t(r());
    };
    return gen;
}

class PipelineFuzz
    : public ::testing::TestWithParam<std::tuple<uint32_t, int>>
{
  protected:
    /** Configuration axis: default / small-folded / unrolled. */
    static core::MesaParams
    configFor(int axis)
    {
        core::MesaParams params;
        switch (axis) {
          case 1:
            // Tiny folded array: every body time-multiplexes.
            params.accel.rows = 4;
            params.accel.cols = 4;
            params.accel.mem_ports = 8;
            params.enable_time_multiplexing = true;
            params.max_time_multiplex = 4;
            break;
          case 2:
            params.enable_unrolling = true;
            break;
          default:
            break;
        }
        return params;
    }
};

TEST_P(PipelineFuzz, RandomLoopMatchesEmulatorExactly)
{
    const auto [seed, axis] = GetParam();
    const GeneratedLoop gen = generate(seed);
    const auto &kernel = gen.kernel;

    const GoldenResult want = runReference(kernel);

    const OffloadRun run = runWithOffload(kernel, configFor(axis));
    if (!run.stats.has_value())
        GTEST_SKIP() << "body did not map (acceptable)";

    EXPECT_TRUE(sameMemory(run.memory, want.memory))
        << "seed " << seed << " axis " << axis << " ops i"
        << gen.int_ops << " f" << gen.fp_ops << " l" << gen.loads
        << " s" << gen.stores << " b" << gen.branches << " tiles "
        << run.stats->tile_factor;
    EXPECT_EQ(run.state, want.state)
        << "seed " << seed << " axis " << axis;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PipelineFuzz,
    ::testing::Combine(::testing::Range(1u, 101u),
                       ::testing::Values(0, 1, 2)),
    [](const auto &param_info) {
        return "s" + std::to_string(std::get<0>(param_info.param)) + "_cfg" +
               std::to_string(std::get<1>(param_info.param));
    });

/**
 * Pipeline soundness fuzzing: every random body the pipeline accepts
 * must produce artifacts the static verifier (src/verify) finds no
 * error in — the translation invariants hold for arbitrary inputs,
 * not just the suite kernels. Same deterministic seeds and the same
 * three configuration axes as the end-to-end fuzz above, but no
 * execution: encode -> map -> configure only, so the suite stays
 * cheap enough to widen — and cheap enough to shard: the 450
 * (seed, axis) cases run on the parallel engine, each case entirely
 * self-contained, with outcomes committed in case order.
 */
struct VerifierFuzzOutcome
{
    bool skipped = false;
    std::string skip_reason;
    std::string error; ///< Empty = verified clean.
    /** Serialized absint certificate (the determinism cross-check). */
    std::string cert_json;
};

std::string
render(const verify::Report &report)
{
    std::ostringstream os;
    report.printTable(os);
    return os.str();
}

VerifierFuzzOutcome
verifierFuzzCase(uint32_t seed, int axis)
{
    VerifierFuzzOutcome out;
    const GeneratedLoop gen = generate(seed);
    std::vector<riscv::Instruction> body = gen.kernel.loopBody();

    accel::AccelParams accel = accel::AccelParams::m128();
    int max_tm = 1;
    if (axis == 1) {
        // Tiny folded array: every body time-multiplexes.
        accel.rows = 4;
        accel.cols = 4;
        max_tm = 4;
    } else if (axis == 2) {
        if (auto unrolled = dfg::unrollBody(body, 2))
            body = std::move(unrolled->body);
    }

    // The production translation path, with every node accepted so
    // the verifier sees partial placements too. Tiling under the
    // translation's legality gates; pipelining always on, so the
    // annotation-heavy paths get exercised.
    core::TranslatePolicy policy;
    policy.fold_limit = max_tm;
    policy.allow_tiling = true;
    policy.max_unmapped_frac = 1.0;
    policy.options.pipelined = true;
    ic::AccelNocInterconnect noc(accel.rows, accel.cols,
                                 accel.noc_slice_width);
    core::TranslateFailure why = core::TranslateFailure::None;
    auto tr = core::translate(body, accel, noc, policy, &why);
    if (!tr) {
        out.skipped = true;
        out.skip_reason =
            why == core::TranslateFailure::FoldBudget
                ? "body exceeds the fold budget (acceptable)"
                : "body not encodable (acceptable)";
        return out;
    }
    const dfg::Ldfg &ldfg = tr->ldfg;

    // Pass 1 holds for every graph the encoder emits.
    const verify::Report dfg_report =
        verify::verifyLdfg(ldfg, accel.op_latency);
    if (dfg_report.errorCount() != 0) {
        out.error = "LDFG verify failed\n" + render(dfg_report);
        return out;
    }

    tr->options.tile_factor = tr->max_tiles;
    const accel::AcceleratorConfig config = tr->lower(
        core::ConfigBlock(accel), body.front().pc, body.back().pc + 4);

    const verify::Report report =
        core::verifyTranslation(*tr, config, accel, noc);
    if (report.errorCount() != 0) {
        std::ostringstream os;
        os << "pipeline verify failed: nodes " << ldfg.size()
           << " tm " << tr->options.time_multiplex << " tiles "
           << config.tileCount() << "\n"
           << render(report);
        out.error = os.str();
        return out;
    }

    // Abstract interpretation over the same accepted body: the
    // widening fixpoint must terminate (converged), and since the
    // generator makes both streams resident, a proven-out-of-region
    // verdict on any node is a false positive by construction.
    const absint::BodyCertificate cert = absint::analyze(ldfg);
    if (!cert.converged) {
        out.error = "absint fixpoint diverged";
        return out;
    }
    JsonWriter w;
    cert.toJson(w);
    out.cert_json = w.str();

    mem::MainMemory memory;
    gen.kernel.plant(memory);
    riscv::Emulator emu(memory);
    emu.reset(gen.kernel.program.base_pc);
    gen.kernel.fullRange()(emu.state());
    // Fuzz programs start at the loop head: no preamble to run.
    const absint::CertificateInstance inst = absint::instantiate(
        cert, emu.state(), absint::residentRegion(memory));
    if (inst.footprint == absint::RegionClass::ProvenOut) {
        std::ostringstream os;
        os << "false proven-out: nodes " << ldfg.size() << " span ["
           << inst.addr_lo << ", " << inst.addr_hi << ")";
        out.error = os.str();
    }
    return out;
}

TEST(VerifierFuzz, AcceptedBodiesVerifyWithZeroErrors)
{
    constexpr uint32_t MaxSeed = 150;
    constexpr int Axes = 3;
    const size_t n = size_t(MaxSeed) * Axes;

    const auto outcomes = parallelMapOrdered<VerifierFuzzOutcome>(
        n, defaultJobs(), [&](size_t i) {
            const uint32_t seed = uint32_t(1 + i / Axes);
            const int axis = int(i % Axes);
            return verifierFuzzCase(seed, axis);
        });

    size_t skipped = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto &o = outcomes[i];
        if (o.skipped) {
            ++skipped;
            continue;
        }
        EXPECT_TRUE(o.error.empty())
            << "seed " << (1 + i / Axes) << " axis " << (i % Axes)
            << ": " << o.error;
    }
    // The generator is tuned so most bodies are encodable; a sudden
    // jump in skips means the fuzzer stopped testing anything.
    EXPECT_LT(skipped, n / 2) << "fuzzer skipped too many cases";

    // Certificates must not depend on the worker count: recompute a
    // spread of cases single-threaded and compare the serialized
    // certificate byte-for-byte against the parallel run above.
    size_t compared = 0;
    for (size_t i = 0; i < n; i += 5) {
        if (outcomes[i].skipped)
            continue;
        const auto serial = verifierFuzzCase(uint32_t(1 + i / Axes),
                                             int(i % Axes));
        EXPECT_EQ(outcomes[i].cert_json, serial.cert_json)
            << "certificate differs across job counts at seed "
            << (1 + i / Axes) << " axis " << (i % Axes);
        ++compared;
    }
    EXPECT_GT(compared, 0u);
}

} // namespace
