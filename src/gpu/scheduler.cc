/**
 * @file
 * Warp scheduler implementations.
 */

#include "gpu/scheduler.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace bvf::gpu
{

namespace
{

bool
isReady(std::uint64_t ready, int warp)
{
    return (ready >> warp) & 1u;
}

} // namespace

std::unique_ptr<WarpScheduler>
makeScheduler(SchedulerPolicy policy, int numWarps)
{
    switch (policy) {
      case SchedulerPolicy::Gto:
        return std::make_unique<GtoScheduler>(numWarps);
      case SchedulerPolicy::Lrr:
        return std::make_unique<LrrScheduler>(numWarps);
      case SchedulerPolicy::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(numWarps);
    }
    panic("unknown scheduler policy");
}

// ------------------------------------------------------------- GTO --

GtoScheduler::GtoScheduler(int numWarps)
{
    fatal_if(numWarps < 1 || numWarps > 64, "scheduler needs 1 to 64 warps");
}

int
GtoScheduler::pick(std::uint64_t ready,
                   std::span<const std::uint64_t> lastIssue, std::uint64_t)
{
    if (greedy_ >= 0 && isReady(ready, greedy_))
        return greedy_;
    // Oldest: smallest last-issue cycle among ready warps, lowest slot
    // on a tie.
    int best = -1;
    for (std::uint64_t rest = ready; rest; rest &= rest - 1) {
        const int w = std::countr_zero(rest);
        if (best < 0
            || lastIssue[static_cast<std::size_t>(w)]
                   < lastIssue[static_cast<std::size_t>(best)]) {
            best = w;
        }
    }
    return best;
}

void
GtoScheduler::issued(int warp, std::uint64_t)
{
    greedy_ = warp;
}

// ------------------------------------------------------------- LRR --

LrrScheduler::LrrScheduler(int numWarps) : numWarps_(numWarps)
{
    fatal_if(numWarps < 1 || numWarps > 64, "scheduler needs 1 to 64 warps");
}

int
LrrScheduler::pick(std::uint64_t ready, std::span<const std::uint64_t>,
                   std::uint64_t)
{
    // The first ready warp at or after next_, wrapping around.
    const std::uint64_t from_next = ready & (~std::uint64_t(0) << next_);
    if (from_next)
        return std::countr_zero(from_next);
    return ready ? std::countr_zero(ready) : -1;
}

void
LrrScheduler::issued(int warp, std::uint64_t)
{
    next_ = (warp + 1) % numWarps_;
}

// ------------------------------------------------------- Two-level --

TwoLevelScheduler::TwoLevelScheduler(int numWarps, int activePoolSize)
    : numWarps_(numWarps), poolSize_(std::min(activePoolSize, numWarps))
{
    fatal_if(numWarps < 1 || numWarps > 64, "scheduler needs 1 to 64 warps");
    for (int w = 0; w < numWarps; ++w) {
        if (w < poolSize_)
            active_.push_back(w);
        else
            pending_.push_back(w);
    }
}

void
TwoLevelScheduler::refill(std::uint64_t ready)
{
    // Rotate stalled warps out of the active pool.
    for (auto it = active_.begin(); it != active_.end();) {
        if (!isReady(ready, *it) && !pending_.empty()) {
            pending_.push_back(*it);
            it = active_.erase(it);
        } else {
            ++it;
        }
    }
    while (static_cast<int>(active_.size()) < poolSize_
           && !pending_.empty()) {
        active_.push_back(pending_.front());
        pending_.erase(pending_.begin());
    }
}

int
TwoLevelScheduler::pick(std::uint64_t ready, std::span<const std::uint64_t>,
                        std::uint64_t)
{
    refill(ready);
    if (active_.empty())
        return -1;
    const int n = static_cast<int>(active_.size());
    for (int probe = 0; probe < n; ++probe) {
        const int idx = (rr_ + probe) % n;
        const int w = active_[static_cast<std::size_t>(idx)];
        if (isReady(ready, w)) {
            rr_ = (idx + 1) % n;
            return w;
        }
    }
    return -1;
}

void
TwoLevelScheduler::issued(int, std::uint64_t)
{
}

} // namespace bvf::gpu
