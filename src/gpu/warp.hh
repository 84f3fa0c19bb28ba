/**
 * @file
 * Warp execution state: per-lane registers, predicates, SIMT
 * reconvergence stack and scoreboard.
 */

#ifndef BVF_GPU_WARP_HH
#define BVF_GPU_WARP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "isa/instruction.hh"

namespace bvf::gpu
{

/** Lanes per warp. */
constexpr int warpSize = 32;

/** Full active mask. */
constexpr std::uint32_t fullMask = 0xffffffffu;

/** One SIMT stack entry. */
struct SimtEntry
{
    int pc = 0;                 //!< next instruction index
    std::uint32_t mask = fullMask; //!< lanes active in this entry
    int rpc = -1;               //!< reconvergence pc (-1 = none)
};

/** Per-warp architectural and micro-architectural state. */
class Warp
{
  public:
    Warp() = default;

    /**
     * Initialize for execution.
     *
     * @param warpIdInBlock warp index within its thread block
     * @param blockId block index within the grid
     * @param blockThreads threads per block (to mask the tail warp)
     */
    void init(int warpIdInBlock, int blockId, int blockThreads);

    bool done() const { return done_; }
    void setDone() { done_ = true; }

    /** Current pc (top of SIMT stack). */
    int pc() const { return stack_.back().pc; }

    /** Current active mask. */
    std::uint32_t activeMask() const { return stack_.back().mask; }

    /** Advance the top-of-stack pc (sequential flow). */
    void advancePc() { ++stack_.back().pc; }

    /** Set the top-of-stack pc (uniform branch). */
    void setPc(int pc) { stack_.back().pc = pc; }

    /**
     * Handle a divergent branch: @p takenMask lanes jump to @p target,
     * the rest fall through to @p fallthrough; all reconverge at
     * @p reconv.
     */
    void diverge(std::uint32_t takenMask, int target, int fallthrough,
                 int reconv);

    /** Pop reconverged entries; call before each fetch. */
    void reconvergeIfNeeded();

    /** True when reconvergeIfNeeded() would pop nothing. */
    bool
    reconverged() const
    {
        return stack_.size() == 1 || stack_.back().pc != stack_.back().rpc;
    }

    /** SIMT stack depth (for tests). */
    std::size_t stackDepth() const { return stack_.size(); }

    // --- register state ----------------------------------------------

    /** Value of register @p reg in lane @p lane. */
    Word
    reg(int lane, int r) const
    {
        return regs_[static_cast<std::size_t>(r * warpSize + lane)];
    }

    void
    setReg(int lane, int r, Word value)
    {
        regs_[static_cast<std::size_t>(r * warpSize + lane)] = value;
    }

    /** Whole-warp view of register @p r (32 consecutive words). */
    std::span<const Word>
    regBlock(int r) const
    {
        return {&regs_[static_cast<std::size_t>(r * warpSize)],
                static_cast<std::size_t>(warpSize)};
    }

    bool
    predicate(int lane, int p) const
    {
        return preds_[static_cast<std::size_t>(p * warpSize + lane)];
    }

    void
    setPredicate(int lane, int p, bool v)
    {
        preds_[static_cast<std::size_t>(p * warpSize + lane)] = v;
    }

    /** Guard mask: lanes in @p active passing the instruction's guard. */
    std::uint32_t guardMask(const isa::Instruction &instr) const;

    // --- scoreboard ----------------------------------------------------

    /** Cycle at which register @p r becomes readable. */
    std::uint64_t
    regReadyCycle(int r) const
    {
        return regReady_[static_cast<std::size_t>(r)];
    }

    void
    setRegReadyCycle(int r, std::uint64_t cycle)
    {
        regReady_[static_cast<std::size_t>(r)] = cycle;
    }

    std::uint64_t
    predReadyCycle(int p) const
    {
        return predReady_[static_cast<std::size_t>(p)];
    }

    void
    setPredReadyCycle(int p, std::uint64_t cycle)
    {
        predReady_[static_cast<std::size_t>(p)] = cycle;
    }

    /** Outstanding load count (loads keep the register busy). */
    int pendingLoads = 0;

    /** Waiting at a block barrier. */
    bool atBarrier = false;

    int warpIdInBlock() const { return warpIdInBlock_; }
    int blockId() const { return blockId_; }

    /** Lanes that exist (partial tail warps of odd-sized blocks). */
    std::uint32_t existMask() const { return existMask_; }

  private:
    int warpIdInBlock_ = 0;
    int blockId_ = 0;
    bool done_ = false;
    std::uint32_t existMask_ = fullMask;
    std::vector<SimtEntry> stack_;
    std::array<Word, static_cast<std::size_t>(isa::numRegisters) * warpSize>
        regs_{};
    std::array<bool, static_cast<std::size_t>(isa::numPredicates) * warpSize>
        preds_{};
    std::array<std::uint64_t, isa::numRegisters> regReady_{};
    std::array<std::uint64_t, isa::numPredicates> predReady_{};
};

} // namespace bvf::gpu

#endif // BVF_GPU_WARP_HH
