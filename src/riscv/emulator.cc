#include "riscv/emulator.hh"

#include "riscv/alu.hh"
#include "riscv/encoding.hh"
#include "util/logging.hh"

namespace mesa::riscv
{

void
Emulator::reset(uint32_t pc)
{
    state_ = ArchState{};
    state_.pc = pc;
    halted_ = false;
    instret_ = 0;
}

bool
Emulator::step()
{
    if (halted_)
        return false;
    const Instruction &inst = *fetch(state_.pc);
    if (inst.op == Op::Invalid || inst.op == Op::Ecall ||
        inst.op == Op::Ebreak) {
        halted_ = true;
        return false;
    }
    execute(inst);
    ++instret_;
    return !halted_;
}

const Instruction *
Emulator::fetch(uint32_t pc)
{
    if (!decode_cache_enabled_) {
        scratch_ = decode(mem_.read32(pc), pc);
        return &scratch_;
    }
    // clear() deallocated every page: all cached gen pointers are
    // dangling and must be dropped before any compare.
    if (mem_.epoch() != mem_epoch_) {
        flushDecodeCache();
        mem_epoch_ = mem_.epoch();
    }
    // Cursor fast path: the common case is falling through to the
    // next instruction of the current block. The generation compare
    // re-validates on every step so a store by the previous
    // instruction into this code page (self-modifying code) is seen
    // immediately.
    if (cur_block_ && *cur_block_->gen_ptr == cur_block_->gen) {
        const auto &insts = cur_block_->insts;
        if (cur_idx_ + 1 < insts.size() &&
            insts[cur_idx_ + 1].pc == pc) {
            ++cur_idx_;
            return &insts[cur_idx_];
        }
    }
    auto it = blocks_.find(pc);
    if (it != blocks_.end()) {
        if (*it->second.gen_ptr == it->second.gen) {
            cur_block_ = &it->second;
            cur_idx_ = 0;
            return &cur_block_->insts.front();
        }
        // Stale block: the page was written since decode.
        if (cur_block_ == &it->second)
            cur_block_ = nullptr;
        blocks_.erase(it);
    }
    return decodeBlock(pc);
}

const Instruction *
Emulator::decodeBlock(uint32_t pc)
{
    const uint64_t *gen_ptr = mem_.pageGenPtr(pc);
    // Never decode into the cache from a non-resident page (reads
    // must not allocate: residentSpan()/snapshot() feed the absint
    // certifier and golden-model compares) or from a misaligned pc
    // (a straight-line walk could cross the page edge mid-word).
    if (!gen_ptr || (pc & 3) != 0) {
        cur_block_ = nullptr;
        scratch_ = decode(mem_.read32(pc), pc);
        return &scratch_;
    }
    DecodedBlock blk;
    blk.gen_ptr = gen_ptr;
    blk.gen = *gen_ptr;
    const uint64_t page_end =
        (uint64_t(pc) & ~uint64_t(mem::MainMemory::PageSize - 1)) +
        mem::MainMemory::PageSize;
    for (uint64_t p = pc; p + 4 <= page_end; p += 4) {
        const Instruction inst =
            decode(mem_.read32(uint32_t(p)), uint32_t(p));
        blk.insts.push_back(inst);
        if (inst.isControl() || inst.isSystem() ||
            inst.op == Op::Invalid)
            break;
    }
    if (blocks_.size() >= MaxCachedBlocks)
        flushDecodeCache();
    auto [it, inserted] = blocks_.emplace(pc, std::move(blk));
    cur_block_ = &it->second;
    cur_idx_ = 0;
    return &cur_block_->insts.front();
}

uint64_t
Emulator::run(uint64_t max_steps)
{
    uint64_t n = 0;
    while (n < max_steps && !halted_) {
        if (!step())
            break;
        ++n;
    }
    return instret_;
}

uint64_t
Emulator::runWhileInRegion(uint32_t lo, uint32_t hi, uint64_t max_steps)
{
    uint64_t n = 0;
    while (n < max_steps && !halted_ && state_.pc >= lo && state_.pc < hi) {
        // A failed step executed nothing (ecall/ebreak/invalid word
        // halts before commit): counting it would make a halt on the
        // region boundary indistinguishable from a region exit.
        if (!step())
            break;
        ++n;
    }
    return n;
}

void
Emulator::execute(const Instruction &in)
{
    auto &x = state_.x;
    auto &f = state_.f;
    const uint32_t pc = state_.pc;
    uint32_t next_pc = pc + 4;

    TraceEntry te;
    te.inst = in;

    const OpProps &props = opProps(in.op);
    const bool fp_src = props.src == RegFile::Fp;
    const uint32_t a =
        (fp_src && !in.isMem()) ? f[in.rs1] : x[in.rs1];
    const uint32_t b = fp_src ? f[in.rs2] : x[in.rs2];
    te.src1_val = a;
    te.src2_val = b;

    auto writeResult = [&](uint32_t v) {
        if (props.dest == RegFile::Fp)
            f[in.rd] = v;
        else if (in.rd != 0)
            x[in.rd] = v;
        te.result = v;
    };

    switch (props.cls) {
      case OpClass::Jump:
        writeResult(pc + 4);
        if (in.op == Op::Jal)
            next_pc = pc + uint32_t(in.imm);
        else
            next_pc = (x[in.rs1] + uint32_t(in.imm)) & ~1u;
        te.branch_taken = true;
        break;

      case OpClass::Branch:
        te.branch_taken = branchEval(in.op, a, b);
        if (te.branch_taken)
            next_pc = pc + uint32_t(in.imm);
        break;

      case OpClass::Load: {
        const uint32_t addr = x[in.rs1] + uint32_t(in.imm);
        te.mem_addr = addr;
        uint32_t v = 0;
        switch (in.op) {
          case Op::Lb: v = uint32_t(int32_t(int8_t(mem_.read8(addr)))); break;
          case Op::Lbu: v = mem_.read8(addr); break;
          case Op::Lh: v = uint32_t(int32_t(int16_t(mem_.read16(addr)))); break;
          case Op::Lhu: v = mem_.read16(addr); break;
          case Op::Lw:
          case Op::Flw: v = mem_.read32(addr); break;
          default: panic("Emulator: bad load op");
        }
        writeResult(v);
        break;
      }

      case OpClass::Store: {
        const uint32_t addr = x[in.rs1] + uint32_t(in.imm);
        te.mem_addr = addr;
        const uint32_t v = in.op == Op::Fsw ? f[in.rs2] : x[in.rs2];
        switch (in.op) {
          case Op::Sb: mem_.write8(addr, uint8_t(v)); break;
          case Op::Sh: mem_.write16(addr, uint16_t(v)); break;
          case Op::Sw:
          case Op::Fsw: mem_.write32(addr, v); break;
          default: panic("Emulator: bad store op");
        }
        break;
      }

      case OpClass::System:
        break; // fence is a no-op in this memory model

      default:
        if (props.num_sources == 3) {
            writeResult(fusedEval(in.op, a, b, f[in.rs3]));
            break;
        }
        writeResult(aluEval(in.op, a, b, in.imm, pc));
        break;
    }

    te.next_pc = next_pc;
    state_.pc = next_pc;

    if (observer_)
        observer_(te);
}

} // namespace mesa::riscv
