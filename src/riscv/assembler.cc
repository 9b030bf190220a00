#include "riscv/assembler.hh"

#include "riscv/encoding.hh"
#include "util/logging.hh"

namespace mesa::riscv
{

uint32_t
Program::labelPc(const std::string &name) const
{
    auto it = labels.find(name);
    if (it == labels.end())
        fatal("Program: unknown label '", name, "'");
    return it->second;
}

std::vector<Instruction>
Program::decodeAll() const
{
    std::vector<Instruction> out;
    out.reserve(words.size());
    for (size_t i = 0; i < words.size(); ++i)
        out.push_back(decode(words[i], base_pc + 4 * uint32_t(i)));
    return out;
}

void
Assembler::label(const std::string &name)
{
    if (labels_.count(name))
        fatal("Assembler: duplicate label '", name, "'");
    labels_[name] = uint32_t(entries_.size());
}

uint32_t
Assembler::here() const
{
    return base_pc_ + 4 * uint32_t(entries_.size());
}

void
Assembler::emit(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, int32_t imm,
                const std::string &label_ref)
{
    Entry e;
    e.inst.op = op;
    e.inst.rd = rd;
    e.inst.rs1 = rs1;
    e.inst.rs2 = rs2;
    e.inst.imm = imm;
    e.inst.pc = here();
    e.label_ref = label_ref;
    entries_.push_back(std::move(e));
}

// RV32I ---------------------------------------------------------------

void Assembler::lui(uint8_t rd, int32_t imm20)
{ emit(Op::Lui, rd, 0, 0, imm20 << 12); }
void Assembler::auipc(uint8_t rd, int32_t imm20)
{ emit(Op::Auipc, rd, 0, 0, imm20 << 12); }
void Assembler::jal(uint8_t rd, const std::string &t)
{ emit(Op::Jal, rd, 0, 0, 0, t); }
void Assembler::jalr(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Jalr, rd, rs1, 0, imm); }

void Assembler::beq(uint8_t rs1, uint8_t rs2, const std::string &t)
{ emit(Op::Beq, 0, rs1, rs2, 0, t); }
void Assembler::bne(uint8_t rs1, uint8_t rs2, const std::string &t)
{ emit(Op::Bne, 0, rs1, rs2, 0, t); }
void Assembler::blt(uint8_t rs1, uint8_t rs2, const std::string &t)
{ emit(Op::Blt, 0, rs1, rs2, 0, t); }
void Assembler::bge(uint8_t rs1, uint8_t rs2, const std::string &t)
{ emit(Op::Bge, 0, rs1, rs2, 0, t); }
void Assembler::bltu(uint8_t rs1, uint8_t rs2, const std::string &t)
{ emit(Op::Bltu, 0, rs1, rs2, 0, t); }
void Assembler::bgeu(uint8_t rs1, uint8_t rs2, const std::string &t)
{ emit(Op::Bgeu, 0, rs1, rs2, 0, t); }

void Assembler::lb(uint8_t rd, int32_t off, uint8_t rs1)
{ emit(Op::Lb, rd, rs1, 0, off); }
void Assembler::lh(uint8_t rd, int32_t off, uint8_t rs1)
{ emit(Op::Lh, rd, rs1, 0, off); }
void Assembler::lw(uint8_t rd, int32_t off, uint8_t rs1)
{ emit(Op::Lw, rd, rs1, 0, off); }
void Assembler::lbu(uint8_t rd, int32_t off, uint8_t rs1)
{ emit(Op::Lbu, rd, rs1, 0, off); }
void Assembler::lhu(uint8_t rd, int32_t off, uint8_t rs1)
{ emit(Op::Lhu, rd, rs1, 0, off); }
void Assembler::sb(uint8_t rs2, int32_t off, uint8_t rs1)
{ emit(Op::Sb, 0, rs1, rs2, off); }
void Assembler::sh(uint8_t rs2, int32_t off, uint8_t rs1)
{ emit(Op::Sh, 0, rs1, rs2, off); }
void Assembler::sw(uint8_t rs2, int32_t off, uint8_t rs1)
{ emit(Op::Sw, 0, rs1, rs2, off); }

void Assembler::addi(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Addi, rd, rs1, 0, imm); }
void Assembler::slti(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Slti, rd, rs1, 0, imm); }
void Assembler::sltiu(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Sltiu, rd, rs1, 0, imm); }
void Assembler::xori(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Xori, rd, rs1, 0, imm); }
void Assembler::ori(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Ori, rd, rs1, 0, imm); }
void Assembler::andi(uint8_t rd, uint8_t rs1, int32_t imm)
{ emit(Op::Andi, rd, rs1, 0, imm); }
void Assembler::slli(uint8_t rd, uint8_t rs1, int32_t shamt)
{ emit(Op::Slli, rd, rs1, 0, shamt & 0x1F); }
void Assembler::srli(uint8_t rd, uint8_t rs1, int32_t shamt)
{ emit(Op::Srli, rd, rs1, 0, shamt & 0x1F); }
void Assembler::srai(uint8_t rd, uint8_t rs1, int32_t shamt)
{ emit(Op::Srai, rd, rs1, 0, shamt & 0x1F); }

void Assembler::add(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Add, rd, rs1, rs2, 0); }
void Assembler::sub(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Sub, rd, rs1, rs2, 0); }
void Assembler::sll(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Sll, rd, rs1, rs2, 0); }
void Assembler::slt(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Slt, rd, rs1, rs2, 0); }
void Assembler::sltu(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Sltu, rd, rs1, rs2, 0); }
void Assembler::xor_(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Xor, rd, rs1, rs2, 0); }
void Assembler::srl(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Srl, rd, rs1, rs2, 0); }
void Assembler::sra(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Sra, rd, rs1, rs2, 0); }
void Assembler::or_(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Or, rd, rs1, rs2, 0); }
void Assembler::and_(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::And, rd, rs1, rs2, 0); }

void Assembler::fence() { emit(Op::Fence, 0, 0, 0, 0); }
void Assembler::ecall() { emit(Op::Ecall, 0, 0, 0, 0); }
void Assembler::ebreak() { emit(Op::Ebreak, 0, 0, 0, 0); }

// RV32M ---------------------------------------------------------------

void Assembler::mul(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Mul, rd, rs1, rs2, 0); }
void Assembler::mulh(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Mulh, rd, rs1, rs2, 0); }
void Assembler::mulhsu(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Mulhsu, rd, rs1, rs2, 0); }
void Assembler::mulhu(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Mulhu, rd, rs1, rs2, 0); }
void Assembler::div(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Div, rd, rs1, rs2, 0); }
void Assembler::divu(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Divu, rd, rs1, rs2, 0); }
void Assembler::rem(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Rem, rd, rs1, rs2, 0); }
void Assembler::remu(uint8_t rd, uint8_t rs1, uint8_t rs2)
{ emit(Op::Remu, rd, rs1, rs2, 0); }

// RV32F ---------------------------------------------------------------

void Assembler::flw(uint8_t frd, int32_t off, uint8_t rs1)
{ emit(Op::Flw, frd, rs1, 0, off); }
void Assembler::fsw(uint8_t frs2, int32_t off, uint8_t rs1)
{ emit(Op::Fsw, 0, rs1, frs2, off); }
void Assembler::fadd_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FaddS, frd, frs1, frs2, 0); }
void Assembler::fsub_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FsubS, frd, frs1, frs2, 0); }
void Assembler::fmul_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FmulS, frd, frs1, frs2, 0); }
void Assembler::fdiv_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FdivS, frd, frs1, frs2, 0); }
void Assembler::fsqrt_s(uint8_t frd, uint8_t frs1)
{ emit(Op::FsqrtS, frd, frs1, 0, 0); }
void Assembler::fmin_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FminS, frd, frs1, frs2, 0); }
void Assembler::fmax_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FmaxS, frd, frs1, frs2, 0); }
void Assembler::fsgnj_s(uint8_t frd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FsgnjS, frd, frs1, frs2, 0); }
void Assembler::fmv_x_w(uint8_t rd, uint8_t frs1)
{ emit(Op::FmvXW, rd, frs1, 0, 0); }
void Assembler::fmv_w_x(uint8_t frd, uint8_t rs1)
{ emit(Op::FmvWX, frd, rs1, 0, 0); }
void Assembler::fcvt_s_w(uint8_t frd, uint8_t rs1)
{ emit(Op::FcvtSW, frd, rs1, 0, 0); }
void Assembler::fcvt_w_s(uint8_t rd, uint8_t frs1)
{ emit(Op::FcvtWS, rd, frs1, 0, 0); }
void
Assembler::fmadd_s(uint8_t frd, uint8_t frs1, uint8_t frs2, uint8_t frs3)
{
    Entry e;
    e.inst.op = Op::FmaddS;
    e.inst.rd = frd;
    e.inst.rs1 = frs1;
    e.inst.rs2 = frs2;
    e.inst.rs3 = frs3;
    e.inst.pc = here();
    entries_.push_back(std::move(e));
}

void
Assembler::fmsub_s(uint8_t frd, uint8_t frs1, uint8_t frs2, uint8_t frs3)
{
    Entry e;
    e.inst.op = Op::FmsubS;
    e.inst.rd = frd;
    e.inst.rs1 = frs1;
    e.inst.rs2 = frs2;
    e.inst.rs3 = frs3;
    e.inst.pc = here();
    entries_.push_back(std::move(e));
}

void
Assembler::fnmadd_s(uint8_t frd, uint8_t frs1, uint8_t frs2,
                    uint8_t frs3)
{
    Entry e;
    e.inst.op = Op::FnmaddS;
    e.inst.rd = frd;
    e.inst.rs1 = frs1;
    e.inst.rs2 = frs2;
    e.inst.rs3 = frs3;
    e.inst.pc = here();
    entries_.push_back(std::move(e));
}

void
Assembler::fnmsub_s(uint8_t frd, uint8_t frs1, uint8_t frs2,
                    uint8_t frs3)
{
    Entry e;
    e.inst.op = Op::FnmsubS;
    e.inst.rd = frd;
    e.inst.rs1 = frs1;
    e.inst.rs2 = frs2;
    e.inst.rs3 = frs3;
    e.inst.pc = here();
    entries_.push_back(std::move(e));
}

void Assembler::feq_s(uint8_t rd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FeqS, rd, frs1, frs2, 0); }
void Assembler::flt_s(uint8_t rd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FltS, rd, frs1, frs2, 0); }
void Assembler::fle_s(uint8_t rd, uint8_t frs1, uint8_t frs2)
{ emit(Op::FleS, rd, frs1, frs2, 0); }

// Pseudo-instructions ---------------------------------------------------

void
Assembler::li(uint8_t rd, int32_t value)
{
    if (value >= -2048 && value < 2048) {
        addi(rd, 0, value);
        return;
    }
    // lui loads the upper 20 bits; addi sign-extends, so round up the
    // upper part when the low 12 bits have the sign bit set. The sums
    // wrap mod 2^32 (value + 0x800 can pass INT32_MAX).
    const int32_t hi = int32_t(uint32_t(value) + 0x800) >> 12;
    const int32_t lo = int32_t(uint32_t(value) - (uint32_t(hi) << 12));
    lui(rd, hi);
    if (lo != 0)
        addi(rd, rd, lo);
}

Program
Assembler::assemble() const
{
    Program prog;
    prog.base_pc = base_pc_;
    prog.words.reserve(entries_.size());
    for (const auto &[name, idx] : labels_)
        prog.labels[name] = base_pc_ + 4 * idx;

    for (size_t i = 0; i < entries_.size(); ++i) {
        Instruction inst = entries_[i].inst;
        if (!entries_[i].label_ref.empty()) {
            auto it = labels_.find(entries_[i].label_ref);
            if (it == labels_.end()) {
                fatal("Assembler: unresolved label '",
                      entries_[i].label_ref, "'");
            }
            const int64_t target = int64_t(base_pc_) + 4 * int64_t(it->second);
            inst.imm = int32_t(target - int64_t(inst.pc));
        }
        prog.words.push_back(encode(inst));
    }
    return prog;
}

} // namespace mesa::riscv
