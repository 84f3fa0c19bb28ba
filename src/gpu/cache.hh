/**
 * @file
 * Set-associative tag-array cache model with MSHRs.
 *
 * Data contents live in the functional memory image (there is exactly
 * one architectural copy of every datum in the machine), so caches track
 * tags, LRU state and miss status only. This is sufficient for the
 * paper's methodology: the bit contents of any access are read from the
 * functional image at access time.
 */

#ifndef BVF_GPU_CACHE_HH
#define BVF_GPU_CACHE_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace bvf::gpu
{

/** Result of a cache lookup-with-allocate. */
enum class CacheOutcome
{
    Hit,
    Miss,        //!< allocated an MSHR; fill must be reported later
    MissMerged,  //!< merged into an existing MSHR for the same line
    MshrFull,    //!< structural stall; retry later
};

/**
 * What a sequence of lookups that ended in MshrFull did, recorded by
 * TagCache::access(addr, &plan): the way of every hit, in order, and the
 * MSHR every missed line merged into or allocated. While the cache's
 * epoch() is the one recorded, the same lookups would have the same
 * outcomes, and TagCache::replay repeats their effects without a search.
 */
class RetryPlan
{
  public:
    /** Forget the recording; the next access(addr, this) starts anew. */
    void
    clear()
    {
        epoch_ = unsealed;
        hitWays_.clear();
        waiters_.clear();
    }

    /** The cache epoch the plan was sealed at (MshrFull), or ~0. */
    std::uint64_t epoch() const { return epoch_; }

    /** Ways hit before the stall, in lookup order (TagCache::wayOf). */
    std::span<const int> hitWays() const { return hitWays_; }

    /** Lines that missed into an MSHR before the stall. */
    std::size_t merged() const { return waiters_.size(); }

  private:
    friend class TagCache;

    static constexpr std::uint64_t unsealed = ~std::uint64_t(0);

    std::uint64_t epoch_ = unsealed;
    std::vector<int> hitWays_;
    std::vector<int *> waiters_; //!< stable until fill() erases them
};

/**
 * Tag-array cache with LRU replacement and optional MSHR tracking.
 * Addresses are byte addresses; lines are config.lineBytes wide.
 */
class TagCache
{
  public:
    /**
     * @param name for diagnostics
     * @param capacityBytes total capacity
     * @param assoc ways per set
     * @param lineBytes line size
     * @param numMshrs outstanding-miss capacity (0 = unlimited)
     */
    TagCache(std::string name, std::uint32_t capacityBytes, int assoc,
             std::uint32_t lineBytes, int numMshrs = 0);

    /** Line-aligned address of @p addr. */
    std::uint32_t
    lineAddr(std::uint32_t addr) const
    {
        return addr & ~(lineBytes_ - 1);
    }

    /**
     * Look up @p addr for a read; on miss, reserve an MSHR keyed by the
     * line (the caller sends the fill request on Miss only, not on
     * MissMerged). A non-null @p plan gets the outcome appended, and an
     * MshrFull outcome seals it at the current epoch.
     */
    CacheOutcome access(std::uint32_t addr, RetryPlan *plan = nullptr);

    /**
     * Repeat the lookups of @p plan, sealed at the current epoch: re-stamp
     * its hit ways in order, add a waiter to each of its MSHRs, and count
     * the hits and misses, including the stalling lookup's miss.
     */
    void replay(const RetryPlan &plan);

    /**
     * Bumped by every call that can change a lookup's outcome: an MSHR
     * allocation (Miss), fill() and an invalidate() that drops a line.
     * Hit, MissMerged and MshrFull lookups change neither the tags nor
     * the MSHR key set.
     */
    std::uint64_t epoch() const { return epoch_; }

    /** Probe without any state change. */
    bool probe(std::uint32_t addr) const;

    /** Index of the way holding @p addr's line, or -1; no state change. */
    int wayOf(std::uint32_t addr) const;

    /** Would a lookup of a line with no MSHR stall? */
    bool
    mshrsFull() const
    {
        return numMshrs_ > 0 && static_cast<int>(mshrs_.size()) >= numMshrs_;
    }

    /**
     * Install the line containing @p addr (fill completion). Releases
     * the MSHR and returns how many requests were waiting on it.
     */
    int fill(std::uint32_t addr);

    /** Invalidate the line if present (write-evict stores). */
    void invalidate(std::uint32_t addr);

    /** Is a miss outstanding for this line? */
    bool missPending(std::uint32_t addr) const;

    std::uint32_t lineBytes() const { return lineBytes_; }
    int sets() const { return sets_; }
    int assoc() const { return assoc_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }

  private:
    struct Way
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    int setIndex(std::uint32_t line) const;

    std::string name_;
    std::uint32_t lineBytes_;
    int sets_;
    int assoc_;
    int numMshrs_;
    std::vector<Way> ways_; //!< sets_ * assoc_ entries
    std::unordered_map<std::uint32_t, int> mshrs_; //!< line -> waiters
    std::uint64_t stamp_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
};

} // namespace bvf::gpu

#endif // BVF_GPU_CACHE_HH
