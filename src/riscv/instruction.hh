/**
 * @file
 * Decoded instruction representation shared by the emulator, the CPU
 * timing model, and MESA's DFG builder.
 */

#ifndef MESA_RISCV_INSTRUCTION_HH
#define MESA_RISCV_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "riscv/isa.hh"

namespace mesa::riscv
{

/**
 * A decoded RV32IMF instruction. Register fields hold raw 5-bit
 * indices into the integer or FP file; fpDest(op)/fpSources(op) select
 * the file. The DFG layer folds both files into a unified 0..63 space.
 */
struct Instruction
{
    Op op = Op::Invalid;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t rs3 = 0; ///< Third source (R4-type fused ops only).
    int32_t imm = 0;
    uint32_t raw = 0;    ///< Original 32-bit encoding, if decoded.
    uint32_t pc = 0;     ///< Address this instruction was fetched from.

    bool isLoad() const { return riscv::isLoad(op); }
    bool isStore() const { return riscv::isStore(op); }
    bool isMem() const { return riscv::isMem(op); }
    bool isBranch() const { return riscv::isBranch(op); }
    bool isJump() const { return riscv::isJump(op); }
    bool isControl() const { return riscv::isControl(op); }
    bool isSystem() const { return riscv::isSystem(op); }
    bool writesDest() const { return riscv::writesDest(op); }
    int numSources() const { return riscv::numSources(op); }
    OpClass cls() const { return opClass(op); }

    /**
     * Branch or jump target address (pc-relative ops only; Jalr targets
     * are register-indirect and unknown statically).
     */
    uint32_t
    targetPc() const
    {
        return pc + static_cast<uint32_t>(imm);
    }

    /** A backward control transfer closes a loop candidate. */
    bool
    isBackwardBranch() const
    {
        return (isBranch() || op == Op::Jal) && imm < 0;
    }

    /**
     * Unified source register index for operand n (0..2), folding FP
     * sources into 32..63. Returns -1 when the operand does not exist
     * or is the hardwired x0.
     */
    int
    unifiedSrc(int n) const
    {
        const OpProps &p = opProps(op);
        if (n >= p.num_sources)
            return -1;
        const uint8_t r = (n == 0) ? rs1 : (n == 1) ? rs2 : rs3;
        // Loads/stores always take an integer base address in rs1;
        // FP stores carry FP data in rs2.
        bool fp = p.src == RegFile::Fp;
        if (isMem() && n == 0)
            fp = false;
        if (!fp && r == 0)
            return -1; // x0 is constant zero, never a dependency
        return fp ? NumIntRegs + r : r;
    }

    /**
     * Unified destination register index, or -1 for instructions
     * without a destination (or rd == x0).
     */
    int
    unifiedDest() const
    {
        switch (opProps(op).dest) {
          case RegFile::Fp: return NumIntRegs + rd;
          case RegFile::Int: return rd == 0 ? -1 : rd;
          default: return -1;
        }
    }

    /** Disassemble to "op rd, rs1, rs2/imm" text. */
    std::string toString() const;
};

} // namespace mesa::riscv

#endif // MESA_RISCV_INSTRUCTION_HH
