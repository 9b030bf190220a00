/**
 * @file
 * Name/metadata completeness: every enum value has a distinct,
 * non-placeholder name; op classifications are internally consistent
 * across the predicate helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cpu/monitor.hh"
#include "dfg/ldfg.hh"
#include "mesa/imap_fsm.hh"
#include "riscv/isa.hh"
#include "util/logging.hh"

namespace
{

using namespace mesa;
using namespace mesa::riscv;

TEST(Names, EveryOpHasAUniqueName)
{
    std::set<std::string> seen;
    for (int i = 1; i < int(Op::NumOps); ++i) {
        const std::string name = opName(Op(i));
        EXPECT_NE(name, "???") << "op " << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate name " << name;
    }
}

TEST(Names, EveryOpClassifies)
{
    for (int i = 1; i < int(Op::NumOps); ++i) {
        const Op op = Op(i);
        const OpClass cls = opClass(op);
        EXPECT_NE(std::string(opClassName(cls)), "???");
        // Predicate consistency.
        EXPECT_EQ(isMem(op), isLoad(op) || isStore(op));
        EXPECT_EQ(isControl(op), isBranch(op) || isJump(op));
        if (isStore(op) || isBranch(op)) {
            EXPECT_FALSE(writesDest(op)) << opName(op);
        }
        if (fpDest(op)) {
            EXPECT_TRUE(writesDest(op)) << opName(op);
        }
        EXPECT_GE(numSources(op), 0);
        EXPECT_LE(numSources(op), 3);
    }
}

TEST(OpProps, EveryOpMatchesItsFamily)
{
    // Expectations written per instruction family, independently of
    // the table: each Op must sit in exactly one family.
    struct Family
    {
        std::vector<Op> ops;
        OpClass cls;
        int sources;
        bool fp_sources, fp_dest, writes_dest;
    };
    const Family families[] = {
        {{Op::Invalid}, OpClass::Nop, 0, false, false, false},
        {{Op::Lui, Op::Auipc}, OpClass::IntAlu, 0, false, false, true},
        {{Op::Jal}, OpClass::Jump, 0, false, false, true},
        {{Op::Jalr}, OpClass::Jump, 1, false, false, true},
        {{Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Bltu, Op::Bgeu},
         OpClass::Branch, 2, false, false, false},
        {{Op::Lb, Op::Lh, Op::Lw, Op::Lbu, Op::Lhu},
         OpClass::Load, 1, false, false, true},
        {{Op::Flw}, OpClass::Load, 1, false, true, true},
        {{Op::Sb, Op::Sh, Op::Sw}, OpClass::Store, 2, false, false, false},
        {{Op::Fsw}, OpClass::Store, 2, true, false, false},
        {{Op::Addi, Op::Slti, Op::Sltiu, Op::Xori, Op::Ori, Op::Andi,
          Op::Slli, Op::Srli, Op::Srai},
         OpClass::IntAlu, 1, false, false, true},
        {{Op::Add, Op::Sub, Op::Sll, Op::Slt, Op::Sltu, Op::Xor, Op::Srl,
          Op::Sra, Op::Or, Op::And},
         OpClass::IntAlu, 2, false, false, true},
        {{Op::Fence, Op::Ecall, Op::Ebreak},
         OpClass::System, 0, false, false, false},
        {{Op::Mul, Op::Mulh, Op::Mulhsu, Op::Mulhu},
         OpClass::IntMul, 2, false, false, true},
        {{Op::Div, Op::Divu, Op::Rem, Op::Remu},
         OpClass::IntDiv, 2, false, false, true},
        {{Op::FaddS, Op::FsubS, Op::FminS, Op::FmaxS, Op::FsgnjS,
          Op::FsgnjnS, Op::FsgnjxS},
         OpClass::FpAlu, 2, true, true, true},
        {{Op::FmulS}, OpClass::FpMul, 2, true, true, true},
        {{Op::FdivS}, OpClass::FpDiv, 2, true, true, true},
        {{Op::FsqrtS}, OpClass::FpDiv, 1, true, true, true},
        // FP -> integer register moves and conversions.
        {{Op::FmvXW, Op::FcvtWS, Op::FcvtWuS},
         OpClass::FpAlu, 1, true, false, true},
        // Integer -> FP register moves and conversions.
        {{Op::FmvWX, Op::FcvtSW, Op::FcvtSWu},
         OpClass::FpAlu, 1, false, true, true},
        {{Op::FeqS, Op::FltS, Op::FleS}, OpClass::FpAlu, 2, true, false,
         true},
        {{Op::FmaddS, Op::FmsubS, Op::FnmaddS, Op::FnmsubS},
         OpClass::FpMul, 3, true, true, true},
    };
    std::vector<int> seen(size_t(Op::NumOps), 0);
    for (const Family &f : families) {
        for (const Op op : f.ops) {
            SCOPED_TRACE(opName(op));
            ++seen[size_t(op)];
            EXPECT_EQ(opProps(op).op, op);
            EXPECT_EQ(opClass(op), f.cls);
            EXPECT_EQ(numSources(op), f.sources);
            EXPECT_EQ(fpSources(op), f.fp_sources);
            EXPECT_EQ(fpDest(op), f.fp_dest);
            EXPECT_EQ(writesDest(op), f.writes_dest);
        }
    }
    for (int i = 0; i < int(Op::NumOps); ++i)
        EXPECT_EQ(seen[size_t(i)], 1) << opName(Op(i));
}

TEST(OpProps, OutOfRangeOpFailsLoudly)
{
    for (const Op op : {Op::NumOps, Op(200), Op(255)}) {
        EXPECT_THROW(opProps(op), PanicError);
        EXPECT_THROW(opClass(op), PanicError);
        EXPECT_THROW(numSources(op), PanicError);
        EXPECT_THROW(fpSources(op), PanicError);
        EXPECT_THROW(fpDest(op), PanicError);
        EXPECT_THROW(writesDest(op), PanicError);
        EXPECT_STREQ(opName(op), "???");
    }
}

TEST(Names, RejectAndErrorStringsComplete)
{
    using cpu::RejectReason;
    for (auto r : {RejectReason::None, RejectReason::TooLarge,
                   RejectReason::UnsupportedInstr,
                   RejectReason::EarlyExit, RejectReason::PoorMix,
                   RejectReason::FewIterations}) {
        EXPECT_NE(std::string(cpu::rejectReasonName(r)), "???");
    }
    using dfg::BuildError;
    for (auto e : {BuildError::None, BuildError::InnerLoop,
                   BuildError::UnsupportedOp, BuildError::ExitBranch,
                   BuildError::IndirectJump,
                   BuildError::TooManyInstructions}) {
        EXPECT_NE(std::string(dfg::buildErrorName(e)), "???");
    }
    using core::ImapState;
    for (int s = 0; s < int(ImapState::NumStates); ++s)
        EXPECT_NE(std::string(core::imapStateName(ImapState(s))),
                  "???");
}

TEST(Names, OpLatencyConfigCoversAllClasses)
{
    const dfg::OpLatencyConfig cfg;
    for (int c = 1; c < int(OpClass::NumClasses); ++c)
        EXPECT_GT(cfg.cycles(OpClass(c)), 0.0)
            << opClassName(OpClass(c));
}

} // namespace
