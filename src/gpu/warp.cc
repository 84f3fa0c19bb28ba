/**
 * @file
 * Warp SIMT-stack implementation.
 */

#include "gpu/warp.hh"

#include "common/logging.hh"

namespace bvf::gpu
{

void
Warp::init(int warpIdInBlock, int blockId, int blockThreads)
{
    warpIdInBlock_ = warpIdInBlock;
    blockId_ = blockId;
    done_ = false;
    pendingLoads = 0;
    atBarrier = false;

    const int first_thread = warpIdInBlock * warpSize;
    const int live = std::max(0, std::min(warpSize,
                                          blockThreads - first_thread));
    existMask_ = live == warpSize ? fullMask
                                  : ((1u << live) - 1u);
    panic_if(live == 0, "warp with no live threads");

    stack_.clear();
    stack_.push_back(SimtEntry{0, existMask_, -1});

    regs_.fill(0);
    preds_.fill(false);
    regReady_.fill(0);
    predReady_.fill(0);
}

std::uint32_t
Warp::guardMask(const isa::Instruction &instr) const
{
    std::uint32_t mask = activeMask();
    if (!isa::readsGuard(instr))
        return mask;
    std::uint32_t pass = 0;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((mask >> lane) & 1u))
            continue;
        bool p = predicate(lane, instr.pred);
        if (instr.predNegate)
            p = !p;
        if (p)
            pass |= 1u << lane;
    }
    return pass;
}

void
Warp::diverge(std::uint32_t takenMask, int target, int fallthrough,
              int reconv)
{
    SimtEntry &top = stack_.back();
    const std::uint32_t mask = top.mask;
    const std::uint32_t not_taken = mask & ~takenMask;
    panic_if((takenMask & ~mask) != 0, "taken lanes outside active mask");
    panic_if(takenMask == 0 || not_taken == 0,
             "diverge() requires an actually divergent branch");

    // The current entry becomes the reconvergence point; the two sides
    // execute above it (taken side first).
    top.pc = reconv;
    stack_.push_back(SimtEntry{fallthrough, not_taken, reconv});
    stack_.push_back(SimtEntry{target, takenMask, reconv});
}

void
Warp::reconvergeIfNeeded()
{
    while (stack_.size() > 1 && stack_.back().pc == stack_.back().rpc)
        stack_.pop_back();
}

} // namespace bvf::gpu
