#include "fault/checkpoint.hh"

namespace mesa::fault
{

Checkpoint
Checkpoint::capture(const riscv::ArchState &state,
                    const mem::MainMemory &memory)
{
    Checkpoint ckpt;
    ckpt.state = state;
    ckpt.pages = memory.snapshot();
    return ckpt;
}

void
Checkpoint::restore(riscv::ArchState &out_state,
                    mem::MainMemory &memory) const
{
    out_state = state;
    memory.clear();
    for (const auto &[pn, data] : pages)
        memory.writeBlock(pn << mem::MainMemory::PageShift,
                          data.data(), data.size());
}

bool
memorySnapshotsEqual(const MemSnapshot &a, const MemSnapshot &b)
{
    for (const auto &[pn, data] : a) {
        auto it = b.find(pn);
        if (it == b.end()) {
            if (!mem::isZeroPage(data))
                return false;
        } else if (data != it->second) {
            return false;
        }
    }
    for (const auto &[pn, data] : b) {
        if (!a.count(pn) && !mem::isZeroPage(data))
            return false;
    }
    return true;
}

} // namespace mesa::fault
