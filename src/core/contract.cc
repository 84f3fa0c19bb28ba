/**
 * @file
 * Certificate enforcement implementation.
 */

#include "core/contract.hh"

#include "common/logging.hh"
#include "gpu/warp.hh"
#include "isa/opcode.hh"

namespace bvf::core
{

void
ContractProbe::onIssue(int smId, int pc, const isa::Instruction &instr,
                       const gpu::Warp &warp, std::uint32_t guard,
                       std::uint64_t cycle)
{
    (void)smId;
    (void)cycle;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(warp.blockId()))
         << 32)
        | static_cast<std::uint32_t>(warp.warpIdInBlock());
    const std::uint64_t issued = ++issued_[key];
    if (issued > maxIssued_)
        maxIssued_ = issued;
    fatal_if(issued > cert_.warpTripBound,
             "verifier contract violated: warp %d of block %d issued "
             "%llu instructions, certificate bound %llu (pc %d)",
             warp.warpIdInBlock(), warp.blockId(),
             static_cast<unsigned long long>(issued),
             static_cast<unsigned long long>(cert_.warpTripBound), pc);

    if (!isa::isMemoryOp(instr.op) || guard == 0)
        return;

    // The scoreboard held this warp until the address register was
    // written back, so reg(lane, srcA) is the architectural value.
    const analysis::FootprintBounds &fp =
        cert_.footprint(isa::memSpace(instr.op));
    for (int lane = 0; lane < gpu::warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t addr =
            warp.reg(lane, instr.srcA)
            + static_cast<std::uint32_t>(instr.imm);
        ++checkedAccesses_;
        fatal_if(!fp.contains(addr),
                 "verifier contract violated: %s at pc %d touches byte "
                 "%u outside the proven footprint [%u, %u]",
                 isa::opcodeName(instr.op).c_str(), pc, addr, fp.lo,
                 fp.hi);
    }
}

} // namespace bvf::core
