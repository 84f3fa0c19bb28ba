/**
 * @file
 * Warp schedulers: GTO, loose round-robin and two-level.
 *
 * The scheduler picks which ready warp issues each cycle. Different
 * policies reorder the memory access stream seen by the SRAM units and
 * the NoC, which is the sensitivity Figure 21 studies.
 */

#ifndef BVF_GPU_SCHEDULER_HH
#define BVF_GPU_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpu/gpu_config.hh"

namespace bvf::gpu
{

/**
 * Scheduler interface: given the set of ready warps, pick one. A warp
 * set is a 64-bit mask, bit w for warp slot w, so an SM holds at most
 * 64 warps.
 */
class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    /**
     * @param ready bit w set when warp slot w is ready
     * @param lastIssue per-warp cycle of last issue
     * @param cycle current cycle
     * @return selected warp slot, or -1 if none ready
     */
    virtual int pick(std::uint64_t ready,
                     std::span<const std::uint64_t> lastIssue,
                     std::uint64_t cycle) = 0;

    /** Notify that @p warp issued (policy bookkeeping). */
    virtual void issued(int warp, std::uint64_t cycle) = 0;

    /**
     * Does pick() depend only on its arguments and issued() history, so
     * that it leaves the policy unchanged and repeats its pick while
     * they do? The SM freezes a stalled retry only under such a policy.
     */
    virtual bool repeatablePick() const { return true; }
};

/** Factory for the configured policy. */
std::unique_ptr<WarpScheduler> makeScheduler(SchedulerPolicy policy,
                                             int numWarps);

/**
 * Greedy-then-oldest: keep issuing the same warp while it stays ready;
 * otherwise fall back to the warp that has waited longest.
 */
class GtoScheduler : public WarpScheduler
{
  public:
    explicit GtoScheduler(int numWarps);
    int pick(std::uint64_t ready, std::span<const std::uint64_t> lastIssue,
             std::uint64_t cycle) override;
    void issued(int warp, std::uint64_t cycle) override;

  private:
    int greedy_ = -1;
};

/** Loose round-robin over warp slots. */
class LrrScheduler : public WarpScheduler
{
  public:
    explicit LrrScheduler(int numWarps);
    int pick(std::uint64_t ready, std::span<const std::uint64_t> lastIssue,
             std::uint64_t cycle) override;
    void issued(int warp, std::uint64_t cycle) override;

  private:
    int numWarps_;
    int next_ = 0;
};

/**
 * Two-level scheduler: a small active pool issues round-robin; warps
 * that stall (stop being ready) rotate out for pending warps.
 */
class TwoLevelScheduler : public WarpScheduler
{
  public:
    TwoLevelScheduler(int numWarps, int activePoolSize = 8);
    int pick(std::uint64_t ready, std::span<const std::uint64_t> lastIssue,
             std::uint64_t cycle) override;
    void issued(int warp, std::uint64_t cycle) override;

    /** No: every pick may rotate the pool and moves rr_. */
    bool repeatablePick() const override { return false; }

  private:
    void refill(std::uint64_t ready);

    int numWarps_;
    int poolSize_;
    std::vector<int> active_;   //!< warp slots in the active pool
    std::vector<int> pending_;  //!< remaining slots, FIFO
    int rr_ = 0;
};

} // namespace bvf::gpu

#endif // BVF_GPU_SCHEDULER_HH
