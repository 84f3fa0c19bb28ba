/**
 * @file
 * Tag cache implementation.
 */

#include "gpu/cache.hh"

#include <bit>

namespace bvf::gpu
{

TagCache::TagCache(std::string name, std::uint32_t capacityBytes, int assoc,
                   std::uint32_t lineBytes, int numMshrs)
    : name_(std::move(name)), lineBytes_(lineBytes), assoc_(assoc),
      numMshrs_(numMshrs)
{
    fatal_if(lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0,
             "%s: line size must be a power of two", name_.c_str());
    fatal_if(assoc <= 0, "%s: associativity must be positive",
             name_.c_str());
    fatal_if(capacityBytes % (lineBytes * static_cast<std::uint32_t>(assoc))
                 != 0,
             "%s: capacity not divisible into sets", name_.c_str());
    sets_ = static_cast<int>(capacityBytes
                             / (lineBytes * static_cast<std::uint32_t>(assoc)));
    fatal_if(sets_ == 0, "%s: zero sets", name_.c_str());
    ways_.resize(static_cast<std::size_t>(sets_ * assoc_));
}

int
TagCache::setIndex(std::uint32_t line) const
{
    return static_cast<int>((line / lineBytes_)
                            % static_cast<std::uint32_t>(sets_));
}

CacheOutcome
TagCache::access(std::uint32_t addr, RetryPlan *plan)
{
    const std::uint32_t line = lineAddr(addr);
    const int first = setIndex(line) * assoc_;
    Way *base = &ways_[static_cast<std::size_t>(first)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].lruStamp = ++stamp_;
            ++hits_;
            if (plan)
                plan->hitWays_.push_back(first + w);
            return CacheOutcome::Hit;
        }
    }
    ++misses_;
    auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        ++it->second;
        if (plan)
            plan->waiters_.push_back(&it->second);
        return CacheOutcome::MissMerged;
    }
    if (mshrsFull()) {
        if (plan)
            plan->epoch_ = epoch_;
        return CacheOutcome::MshrFull;
    }
    ++epoch_;
    int &waiters = mshrs_.emplace(line, 1).first->second;
    if (plan)
        plan->waiters_.push_back(&waiters);
    return CacheOutcome::Miss;
}

void
TagCache::replay(const RetryPlan &plan)
{
    panic_if(plan.epoch_ != epoch_, "%s: replaying a stale retry plan",
             name_.c_str());
    for (int w : plan.hitWays_)
        ways_[static_cast<std::size_t>(w)].lruStamp = ++stamp_;
    for (int *waiters : plan.waiters_)
        ++*waiters;
    hits_ += plan.hitWays_.size();
    misses_ += plan.waiters_.size() + 1;
}

bool
TagCache::probe(std::uint32_t addr) const
{
    return wayOf(addr) >= 0;
}

int
TagCache::wayOf(std::uint32_t addr) const
{
    const std::uint32_t line = lineAddr(addr);
    const int first = setIndex(line) * assoc_;
    const Way *base = &ways_[static_cast<std::size_t>(first)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line)
            return first + w;
    }
    return -1;
}

int
TagCache::fill(std::uint32_t addr)
{
    const std::uint32_t line = lineAddr(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set * assoc_)];

    // Already present (e.g. a redundant fill): just refresh LRU.
    Way *victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            victim = &base[w];
            break;
        }
    }
    if (!victim) {
        for (int w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
    }
    if (!victim) {
        victim = &base[0];
        for (int w = 1; w < assoc_; ++w) {
            if (base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
    }
    victim->valid = true;
    victim->tag = line;
    victim->lruStamp = ++stamp_;
    ++fills_;
    ++epoch_;

    auto it = mshrs_.find(line);
    if (it == mshrs_.end())
        return 0;
    const int waiters = it->second;
    mshrs_.erase(it);
    return waiters;
}

void
TagCache::invalidate(std::uint32_t addr)
{
    const std::uint32_t line = lineAddr(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set * assoc_)];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].valid = false;
            ++epoch_;
            return;
        }
    }
}

bool
TagCache::missPending(std::uint32_t addr) const
{
    return mshrs_.count(lineAddr(addr)) > 0;
}

} // namespace bvf::gpu
