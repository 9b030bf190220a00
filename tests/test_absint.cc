/**
 * @file
 * Abstract-interpretation certifier tests: exhaustive cross-checks of
 * the interval/stride transfer functions against concrete RV32
 * semantics, widening termination on adversarial induction chains,
 * closed-form trip counts, and footprint soundness over the full
 * kernel suite (every concretely traced address must fall inside the
 * proven bounds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "absint/certificate.hh"
#include "absint/domain.hh"
#include "cpu/system.hh"
#include "dfg/ldfg.hh"
#include "riscv/alu.hh"
#include "riscv/assembler.hh"
#include "riscv/emulator.hh"
#include "util/json.hh"
#include "workloads/suite.hh"

#include "helpers.hh"

namespace mesa
{
namespace
{

using absint::AbsVal;
using absint::BodyCertificate;
using absint::Interval;
using absint::RegionClass;
using absint::Stride;
using riscv::Op;
namespace reg = riscv::reg;

// --------------------------------------------------------------------
// Interval / stride domain units.
// --------------------------------------------------------------------

TEST(AbsintDomain, IntervalBasics)
{
    const Interval a = Interval::range(2, 10);
    const Interval b = Interval::range(-3, 4);
    EXPECT_EQ(a.add(b), Interval::range(-1, 14));
    EXPECT_EQ(a.sub(b), Interval::range(-2, 13));
    EXPECT_EQ(a.join(b), Interval::range(-3, 10));
    EXPECT_EQ(a.mul(Interval::constant(-2)), Interval::range(-20, -4));
    EXPECT_EQ(Interval::range(4, 12).shiftRightU(2), Interval::range(1, 3));
    EXPECT_TRUE(Interval::top().add(a).isTop());

    // Widening escapes only the moved bound.
    EXPECT_EQ(a.widen(Interval::range(2, 12)),
              Interval::range(2, Interval::PosInf));
    EXPECT_EQ(a.widen(Interval::range(0, 10)),
              Interval::range(Interval::NegInf, 10));
    EXPECT_EQ(a.widen(a), a);
}

TEST(AbsintDomain, IntervalSaturates)
{
    const Interval big = Interval::range(INT64_MAX - 4, INT64_MAX - 1);
    EXPECT_EQ(big.add(Interval::constant(100)).hi, Interval::PosInf);
    const Interval ray = Interval::range(0, Interval::PosInf);
    EXPECT_EQ(ray.add(Interval::constant(4)).lo, 4);
    EXPECT_EQ(ray.add(Interval::constant(4)).hi, Interval::PosInf);
}

TEST(AbsintDomain, StrideBasics)
{
    const Stride s4 = absint::normalizeStride(4, 0);
    EXPECT_TRUE(s4.contains(8));
    EXPECT_FALSE(s4.contains(6));
    EXPECT_EQ(s4.add(Stride::constant(2)), absint::normalizeStride(4, 2));
    EXPECT_EQ(s4.mulConst(3), absint::normalizeStride(12, 0));
    // join(8Z, 8Z+4) = 4Z.
    const Stride j = absint::normalizeStride(8, 0).join(
        absint::normalizeStride(8, 4));
    EXPECT_EQ(j, absint::normalizeStride(4, 0));
    // join of two constants captures their distance.
    EXPECT_EQ(Stride::constant(3).join(Stride::constant(15)),
              absint::normalizeStride(12, 3));
    EXPECT_TRUE(Stride::top().contains(-7));
}

// --------------------------------------------------------------------
// Exhaustive transfer-function cross-check against aluEval.
// --------------------------------------------------------------------

/** Sample machine words: small magnitudes only, so signed folds in
 *  aluEval (e.g. mul) cannot overflow. */
const std::vector<uint32_t> &
sampleWords()
{
    static const std::vector<uint32_t> words = {
        0,          1,          2,          3,          5,
        8,          127,        4096,       0xFFFFFFFEu, // -2
        0xFFFFFFFFu,                                     // -1
    };
    return words;
}

AbsVal
absRange(uint32_t lo, uint32_t hi)
{
    AbsVal v;
    v.is_top = false;
    v.base = -1;
    v.off = Interval::range(int64_t(lo), int64_t(hi));
    v.stride = lo == hi ? Stride::constant(int64_t(lo)) : Stride::top();
    return v;
}

/** Every op the transfer function models beyond blanket Top. */
struct OpCase
{
    Op op;
    int32_t imm;
    bool uses_b;
};

const std::vector<OpCase> &
transferCases()
{
    static const std::vector<OpCase> cases = {
        {Op::Addi, 0, false},   {Op::Addi, 4, false},
        {Op::Addi, -8, false},  {Op::Addi, 2047, false},
        {Op::Addi, -2048, false},
        {Op::Slli, 0, false},   {Op::Slli, 2, false},
        {Op::Slli, 31, false},  {Op::Srli, 1, false},
        {Op::Srli, 31, false},  {Op::Srai, 2, false},
        {Op::Andi, 0xFF, false}, {Op::Ori, 0x10, false},
        {Op::Xori, -1, false},  {Op::Slti, 3, false},
        {Op::Sltiu, 3, false},
        {Op::Add, 0, true},     {Op::Sub, 0, true},
        {Op::Mul, 0, true},     {Op::And, 0, true},
        {Op::Or, 0, true},      {Op::Xor, 0, true},
        {Op::Sll, 0, true},     {Op::Srl, 0, true},
        {Op::Sra, 0, true},     {Op::Slt, 0, true},
        {Op::Sltu, 0, true},    {Op::Div, 0, true},
        {Op::Divu, 0, true},    {Op::Rem, 0, true},
        {Op::Remu, 0, true},    {Op::Mulh, 0, true},
    };
    return cases;
}

void
checkSound(const OpCase &c, const AbsVal &av, const AbsVal &bv, uint32_t a,
            uint32_t b)
{
    const AbsVal r = absint::transfer(c.op, c.imm, 0x1000, av, bv);
    if (r.is_top)
        return; // Top is trivially sound
    const uint32_t machine = riscv::aluEval(c.op, a, b, c.imm, 0x1000);
    ASSERT_EQ(r.base, -1) << riscv::opName(c.op);
    EXPECT_TRUE(r.off.contains(int64_t(machine)))
        << riscv::opName(c.op) << " imm=" << c.imm << " a=" << a
        << " b=" << b << " machine=" << machine << " abs=" << r.toString();
    EXPECT_TRUE(r.stride.contains(int64_t(machine)))
        << riscv::opName(c.op) << " a=" << a << " b=" << b
        << " machine=" << machine << " abs=" << r.toString();
}

TEST(AbsintDomain, TransferSoundOnConstants)
{
    for (const OpCase &c : transferCases())
        for (uint32_t a : sampleWords())
            for (uint32_t b : sampleWords())
                checkSound(c, absRange(a, a), absRange(b, b), a, b);
}

TEST(AbsintDomain, TransferSoundOnRanges)
{
    // Enumerate small contiguous ranges and every concrete point in
    // them: the abstract result must contain each machine result.
    const std::vector<std::pair<uint32_t, uint32_t>> ranges = {
        {0, 6}, {3, 9}, {100, 110}, {0xFFFFFFF8u, 0xFFFFFFFFu}};
    for (const OpCase &c : transferCases())
        for (const auto &[alo, ahi] : ranges)
            for (const auto &[blo, bhi] : ranges)
                for (uint32_t a = alo; a != ahi + 1; ++a)
                    for (uint32_t b = blo; b != bhi + 1; ++b)
                        checkSound(c, absRange(alo, ahi),
                                   absRange(blo, bhi), a, b);
}

TEST(AbsintDomain, SymbolicAffineComposition)
{
    // (R[a0] + 8) - (R[a0] + 8) folds to the constant 0; adding a
    // constant keeps the base; two symbolic bases do not compose.
    const AbsVal p = absint::transfer(Op::Addi, 8, 0, AbsVal::entryReg(10),
                                      AbsVal::top());
    ASSERT_FALSE(p.is_top);
    EXPECT_EQ(p.base, 10);
    EXPECT_EQ(p.off, Interval::constant(8));

    const AbsVal z = absint::transfer(Op::Sub, 0, 0, p, p);
    ASSERT_FALSE(z.is_top);
    EXPECT_EQ(z.base, -1);
    EXPECT_EQ(z.off, Interval::constant(0));

    EXPECT_TRUE(absint::transfer(Op::Add, 0, 0, AbsVal::entryReg(10),
                                 AbsVal::entryReg(11))
                    .is_top);

    // Symbolic + absolute range: offsets accumulate.
    const AbsVal q = absint::transfer(Op::Add, 0, 0, p, absRange(4, 12));
    ASSERT_FALSE(q.is_top);
    EXPECT_EQ(q.base, 10);
    EXPECT_EQ(q.off, Interval::range(12, 20));
}

// --------------------------------------------------------------------
// Whole-body analysis helpers.
// --------------------------------------------------------------------

std::vector<riscv::Instruction>
bodyOf(const riscv::Program &program, const std::string &from,
       const std::string &to)
{
    std::vector<riscv::Instruction> body;
    const uint32_t start = program.labelPc(from);
    const uint32_t end = program.labelPc(to);
    for (const auto &inst : program.decodeAll())
        if (inst.pc >= start && inst.pc < end)
            body.push_back(inst);
    return body;
}

// --------------------------------------------------------------------
// Widening fixpoint termination.
// --------------------------------------------------------------------

TEST(AbsintFixpoint, AdversarialInductionChainsConverge)
{
    // A dozen interacting inductions: positive/negative steps, chained
    // symbolic sums (which degrade to Top), a scaled induction, and
    // two opposing guarded updates of the same register, which force
    // the widening to open both interval ends.
    riscv::Assembler as;
    as.label("loop");
    as.addi(reg::a0, reg::a0, 4);
    as.addi(reg::a1, reg::a1, -8);
    as.addi(reg::t0, reg::t0, 1);
    as.add(reg::t1, reg::t0, reg::a0); // symbolic + symbolic -> Top
    as.addi(reg::t2, reg::t2, 12);
    as.slli(reg::t3, reg::t0, 2);      // scaled symbolic -> Top
    as.add(reg::t4, reg::t3, reg::t2); // Top + symbolic -> Top
    as.bne(reg::t0, reg::zero, "skip1");
    as.addi(reg::s0, reg::s0, 4);
    as.label("skip1");
    as.beq(reg::t0, reg::zero, "skip2");
    as.addi(reg::s0, reg::s0, -4);
    as.label("skip2");
    as.addi(reg::s1, reg::s0, 0); // tracks the widened register
    as.add(reg::s2, reg::s1, reg::t4);
    as.addi(reg::a3, reg::a3, 16);
    as.addi(reg::a4, reg::a4, -1);
    as.blt(reg::a0, reg::a2, "loop");
    as.label("exit");
    as.ecall();

    const auto program = as.assemble();
    const auto ldfg = dfg::Ldfg::build(bodyOf(program, "loop", "exit"));
    ASSERT_TRUE(ldfg.has_value());

    const BodyCertificate cert = absint::analyze(*ldfg);
    EXPECT_TRUE(cert.converged);
    EXPECT_LE(cert.fixpoint_rounds, 2 * riscv::NumUnifiedRegs + 8);
    // The canonical induction is still provable despite the noise.
    ASSERT_TRUE(cert.trip.valid);
    EXPECT_EQ(cert.trip.ind_base, int(reg::a0));
    EXPECT_EQ(cert.trip.step, 4);
}

TEST(AbsintFixpoint, AnalysisIsDeterministic)
{
    riscv::Assembler as;
    as.label("loop");
    as.lw(reg::t0, 0, reg::a0);
    as.addi(reg::t0, reg::t0, 3);
    as.sw(reg::t0, 0, reg::a1);
    as.addi(reg::a0, reg::a0, 4);
    as.addi(reg::a1, reg::a1, 4);
    as.bne(reg::a0, reg::a2, "loop");
    as.label("exit");
    as.ecall();
    const auto program = as.assemble();
    const auto ldfg = dfg::Ldfg::build(bodyOf(program, "loop", "exit"));
    ASSERT_TRUE(ldfg.has_value());

    const BodyCertificate c1 = absint::analyze(*ldfg);
    const BodyCertificate c2 = absint::analyze(*ldfg);
    JsonWriter w1;
    JsonWriter w2;
    c1.toJson(w1);
    c2.toJson(w2);
    EXPECT_EQ(w1.str(), w2.str());
    EXPECT_EQ(c1.mem_nodes, 2u);
    EXPECT_TRUE(c1.allKnown());
}

// --------------------------------------------------------------------
// Trip-count closed forms.
// --------------------------------------------------------------------

/** Analyze a canonical `addi ind, ind, step; <br> ind, bound` loop. */
BodyCertificate
canonicalLoop(int32_t step, void (riscv::Assembler::*br)(
                               uint8_t, uint8_t, const std::string &))
{
    riscv::Assembler as;
    as.label("loop");
    as.sw(reg::t0, 0, reg::a0);
    as.addi(reg::a0, reg::a0, step);
    (as.*br)(reg::a0, reg::a2, "loop");
    as.label("exit");
    as.ecall();
    const auto program = as.assemble();
    const auto ldfg = dfg::Ldfg::build(bodyOf(program, "loop", "exit"));
    EXPECT_TRUE(ldfg.has_value());
    return absint::analyze(*ldfg);
}

uint64_t
tripsFor(const BodyCertificate &cert, uint32_t ind0, uint32_t bound)
{
    riscv::ArchState st;
    st.x[reg::a0] = ind0;
    st.x[reg::a2] = bound;
    const auto inst =
        absint::instantiate(cert, st, absint::MemRegion{0, 1ull << 32});
    return inst.trips_finite ? inst.trips : 0;
}

TEST(AbsintTrips, ClosedFormsMatchConcrete)
{
    // blt: 0,4,8,...; exits at a0 >= 400 after exactly 100 iterations.
    const BodyCertificate blt = canonicalLoop(4, &riscv::Assembler::blt);
    EXPECT_EQ(tripsFor(blt, 0, 400), 100u);
    EXPECT_EQ(tripsFor(blt, 396, 400), 1u);
    EXPECT_EQ(tripsFor(blt, 400, 400), 1u); // first branch not taken
    EXPECT_EQ(tripsFor(blt, 0, 401), 101u); // non-divisible bound

    const BodyCertificate bne = canonicalLoop(4, &riscv::Assembler::bne);
    EXPECT_EQ(tripsFor(bne, 0, 400), 100u);
    EXPECT_EQ(tripsFor(bne, 0, 402), 0u); // never meets: unbounded

    const BodyCertificate bltu = canonicalLoop(8, &riscv::Assembler::bltu);
    EXPECT_EQ(tripsFor(bltu, 16, 96), 10u);

    // bge with a negative step counts down.
    const BodyCertificate bge = canonicalLoop(-2, &riscv::Assembler::bge);
    EXPECT_EQ(tripsFor(bge, 100, 50), 26u); // 98,96,...,48 < 50 exits
}

TEST(AbsintTrips, ConcreteExecutionNeverExceedsBound)
{
    // Cross-validate the closed form against actually running the
    // loop for a grid of starts/bounds/steps and branch ops.
    struct BrCase
    {
        void (riscv::Assembler::*br)(uint8_t, uint8_t, const std::string &);
        Op op;
    };
    const std::vector<BrCase> branches = {
        {&riscv::Assembler::blt, Op::Blt},
        {&riscv::Assembler::bge, Op::Bge},
        {&riscv::Assembler::bltu, Op::Bltu},
        {&riscv::Assembler::bgeu, Op::Bgeu},
        {&riscv::Assembler::bne, Op::Bne},
    };
    for (const auto &bc : branches) {
        for (const int32_t step : {1, 4, -4}) {
            const BodyCertificate cert = canonicalLoop(step, bc.br);
            ASSERT_TRUE(cert.trip.valid) << riscv::opName(bc.op);
            for (const uint32_t ind0 : {0u, 12u, 96u}) {
                for (const uint32_t bound : {0u, 40u, 96u}) {
                    // Concrete run, capped: count branch evaluations.
                    uint64_t concrete = 0;
                    int64_t v = int64_t(ind0);
                    while (concrete < 4096) {
                        v = int64_t(uint32_t(v + step));
                        ++concrete;
                        if (!riscv::branchEval(bc.op, uint32_t(v), bound))
                            break;
                    }
                    const bool exited = concrete < 4096;
                    const uint64_t proven = tripsFor(cert, ind0, bound);
                    if (proven == 0)
                        continue;
                    if (exited) {
                        EXPECT_EQ(proven, concrete)
                            << riscv::opName(bc.op) << " step=" << step
                            << " ind0=" << ind0 << " bound=" << bound;
                        continue;
                    }
                    // Loops that wrap through the 32-bit space can
                    // legitimately run for ~2^30 iterations -- far past
                    // the simulation cap. Validate the closed form at
                    // its endpoints instead: the branch must still be
                    // taken after proven-1 evaluations and not taken
                    // after proven.
                    const auto at = [&](uint64_t i) {
                        return uint32_t(uint64_t(ind0) +
                                        i * uint64_t(int64_t(step)));
                    };
                    EXPECT_TRUE(riscv::branchEval(bc.op, at(proven - 1),
                                                  bound))
                        << riscv::opName(bc.op) << " step=" << step
                        << " ind0=" << ind0 << " bound=" << bound
                        << " proven=" << proven;
                    EXPECT_FALSE(riscv::branchEval(bc.op, at(proven),
                                                   bound))
                        << riscv::opName(bc.op) << " step=" << step
                        << " ind0=" << ind0 << " bound=" << bound
                        << " proven=" << proven;
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Footprint classification and region gating.
// --------------------------------------------------------------------

TEST(AbsintFootprint, ClassifiesAgainstRegion)
{
    riscv::Assembler as;
    as.label("loop");
    as.lw(reg::t0, 0, reg::a0);
    as.sw(reg::t0, 0, reg::a1);
    as.addi(reg::a0, reg::a0, 4);
    as.addi(reg::a1, reg::a1, 4);
    as.blt(reg::a0, reg::a2, "loop");
    as.label("exit");
    as.ecall();
    const auto program = as.assemble();
    const auto ldfg = dfg::Ldfg::build(bodyOf(program, "loop", "exit"));
    ASSERT_TRUE(ldfg.has_value());
    const BodyCertificate cert = absint::analyze(*ldfg);
    ASSERT_EQ(cert.mem_nodes, 2u);
    ASSERT_TRUE(cert.allKnown());

    riscv::ArchState st;
    st.x[reg::a0] = 0x1000;
    st.x[reg::a1] = 0x2000;
    st.x[reg::a2] = 0x1000 + 400;

    // Region covering both arrays: proven in, with exact bounds.
    auto in = absint::instantiate(cert, st, absint::MemRegion{0x1000, 0x3000});
    ASSERT_TRUE(in.trips_finite);
    EXPECT_EQ(in.trips, 100u);
    EXPECT_EQ(in.footprint, RegionClass::ProvenIn);
    EXPECT_EQ(in.addr_lo, 0x1000u);
    EXPECT_EQ(in.addr_hi, 0x2000u + 399u);

    // Region excluding the store array: provably out.
    auto out = absint::instantiate(cert, st,
                                   absint::MemRegion{0x1000, 0x1800});
    EXPECT_EQ(out.footprint, RegionClass::ProvenOut);

    // Certificate -> diagnostics: AI101 fires for the out case, the
    // in case gets the summary notes.
    verify::Report rin;
    absint::reportCertificate(cert, &in, rin);
    EXPECT_TRUE(rin.hasRule("AI103"));
    EXPECT_TRUE(rin.hasRule("AI105"));
    EXPECT_TRUE(rin.clean());
    verify::Report rout;
    absint::reportCertificate(cert, &out, rout);
    EXPECT_TRUE(rout.hasRule("AI101"));
    EXPECT_FALSE(rout.clean());

    // A watchdog budget follows from the finite trip bound.
    EXPECT_GT(absint::watchdogBudget(cert, in.trips, 1), 0u);
}

TEST(AbsintFootprint, DataDependentAddressIsUnknown)
{
    riscv::Assembler as;
    as.label("loop");
    as.lw(reg::t0, 0, reg::a0);   // index load
    as.lw(reg::t1, 0, reg::t0);   // data-dependent address
    as.addi(reg::a0, reg::a0, 4);
    as.blt(reg::a0, reg::a2, "loop");
    as.label("exit");
    as.ecall();
    const auto program = as.assemble();
    const auto ldfg = dfg::Ldfg::build(bodyOf(program, "loop", "exit"));
    ASSERT_TRUE(ldfg.has_value());
    const BodyCertificate cert = absint::analyze(*ldfg);
    ASSERT_EQ(cert.mem_nodes, 2u);
    EXPECT_TRUE(cert.footprint[0].known);
    EXPECT_FALSE(cert.footprint[1].known);
    EXPECT_FALSE(cert.allKnown());

    verify::Report report;
    absint::reportCertificate(cert, nullptr, report);
    EXPECT_TRUE(report.hasRule("AI102"));
}

// --------------------------------------------------------------------
// Suite-wide soundness: every concretely traced address falls inside
// the proven bounds, concrete iterations never exceed the proven trip
// bound, and enough kernels certify for the runtime gates to matter.
// --------------------------------------------------------------------

TEST(AbsintSuite, FootprintAndTripsSoundOnAllKernels)
{
    int certified_in_region = 0;
    int proven_out = 0;
    for (const auto &entry : workloads::suiteRegistry()) {
        const workloads::Kernel kernel =
            workloads::buildEntry(entry, workloads::SuiteScale{64});

        mem::MainMemory memory;
        kernel.plant(memory);
        riscv::Emulator emu(memory);
        kernel.enterLoop(emu);
        ASSERT_EQ(emu.state().pc, kernel.loop_start) << kernel.name;

        const auto body = kernel.loopBody();
        const auto ldfg = dfg::Ldfg::build(body);
        if (!ldfg.has_value())
            continue; // not encodable (e.g. b+tree's pointer walk)

        const BodyCertificate cert = absint::analyze(*ldfg);
        EXPECT_TRUE(cert.converged) << kernel.name;
        const absint::MemRegion region = absint::residentRegion(memory);
        const auto inst = absint::instantiate(cert, emu.state(), region);

        // Acceptance: no suite kernel may be falsely flagged.
        EXPECT_NE(inst.footprint, RegionClass::ProvenOut) << kernel.name;
        if (inst.footprint == RegionClass::ProvenOut)
            ++proven_out;
        if (inst.footprint == RegionClass::ProvenIn && inst.trips_finite)
            ++certified_in_region;

        // Trace one concrete pass of the loop region.
        struct PcRange
        {
            uint64_t lo = UINT64_MAX;
            uint64_t hi = 0;
        };
        std::map<uint32_t, PcRange> traced;
        uint64_t iterations = 0;
        const uint32_t back_pc = body.back().pc;
        emu.setObserver([&](const riscv::TraceEntry &t) {
            if (t.inst.isMem()) {
                auto &r = traced[t.inst.pc];
                r.lo = std::min(r.lo, uint64_t(t.mem_addr));
                r.hi = std::max(r.hi, uint64_t(t.mem_addr));
            }
            iterations += t.inst.pc == back_pc;
        });
        emu.runWhileInRegion(kernel.loop_start, kernel.loop_end,
                             100'000'000);
        emu.setObserver(nullptr);

        if (inst.trips_finite) {
            EXPECT_LE(iterations, inst.trips) << kernel.name;
        }
        for (size_t i = 0; i < cert.footprint.size(); ++i) {
            const auto &fp = cert.footprint[i];
            const auto &range = inst.ranges[i];
            const auto it = traced.find(fp.pc);
            if (it == traced.end() || !range.known || !range.bounded)
                continue;
            EXPECT_GE(it->second.lo, range.lo)
                << kernel.name << " node " << fp.node;
            EXPECT_LE(it->second.hi + fp.size - 1, range.hi)
                << kernel.name << " node " << fp.node;
            // Every traced first-iteration-congruent address obeys the
            // stride class. (Spot-check: the min traced address.)
            if (fp.stride_mod > 1 && fp.step == 0 && fp.base < 0) {
                const Stride s =
                    absint::normalizeStride(fp.stride_mod, fp.stride_rem);
                EXPECT_TRUE(s.contains(int64_t(it->second.lo)))
                    << kernel.name << " node " << fp.node;
            }
        }
    }
    EXPECT_EQ(proven_out, 0);
    EXPECT_GE(certified_in_region, 12);
}

} // namespace
} // namespace mesa
