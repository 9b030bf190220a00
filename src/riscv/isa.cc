#include "riscv/isa.hh"

#include "util/logging.hh"

namespace mesa::riscv
{

void
detail::badOp(Op op)
{
    panic("unknown op ", static_cast<int>(op));
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::Nop: return "Nop";
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::IntDiv: return "IntDiv";
      case OpClass::FpAlu: return "FpAlu";
      case OpClass::FpMul: return "FpMul";
      case OpClass::FpDiv: return "FpDiv";
      case OpClass::Load: return "Load";
      case OpClass::Store: return "Store";
      case OpClass::Branch: return "Branch";
      case OpClass::Jump: return "Jump";
      case OpClass::System: return "System";
      default: return "???";
    }
}

} // namespace mesa::riscv
