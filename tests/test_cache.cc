/**
 * @file
 * Unit tests for the tag-array cache with MSHRs.
 */

#include <gtest/gtest.h>

#include "gpu/cache.hh"

namespace bvf::gpu
{
namespace
{

TagCache
makeCache(int mshrs = 4)
{
    // 4KB, 4-way, 128B lines -> 8 sets.
    return TagCache("test", 4096, 4, 128, mshrs);
}

TEST(Cache, ColdMissThenHit)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Miss);
    EXPECT_TRUE(cache.missPending(0x1000));
    EXPECT_EQ(cache.fill(0x1000), 1);
    EXPECT_FALSE(cache.missPending(0x1000));
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Hit);
    EXPECT_EQ(cache.access(0x1040), CacheOutcome::Hit); // same line
}

TEST(Cache, MissesToSameLineMerge)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::Miss);
    EXPECT_EQ(cache.access(0x2004), CacheOutcome::MissMerged);
    EXPECT_EQ(cache.access(0x2008), CacheOutcome::MissMerged);
    EXPECT_EQ(cache.fill(0x2000), 3);
}

TEST(Cache, MshrLimitEnforced)
{
    auto cache = makeCache(2);
    EXPECT_EQ(cache.access(0x0000), CacheOutcome::Miss);
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Miss);
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::MshrFull);
    cache.fill(0x0000);
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::Miss);
}

TEST(Cache, UnlimitedMshrsWhenZero)
{
    auto cache = makeCache(0);
    for (std::uint32_t i = 0; i < 64; ++i) {
        EXPECT_NE(cache.access(i * 0x1000), CacheOutcome::MshrFull);
    }
}

TEST(Cache, LruEviction)
{
    // One set is 4 ways; the 5th distinct line in a set evicts the LRU.
    auto cache = makeCache(0);
    // All map to set 0: stride = sets * lineBytes = 8 * 128 = 1KB.
    for (std::uint32_t i = 0; i < 4; ++i) {
        cache.access(i * 0x400);
        cache.fill(i * 0x400);
    }
    // Touch line 0 so line at 0x400 becomes LRU.
    EXPECT_EQ(cache.access(0x000), CacheOutcome::Hit);
    cache.access(0x1000);
    cache.fill(0x1000); // evicts 0x400
    EXPECT_EQ(cache.access(0x000), CacheOutcome::Hit);
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Hit);
    EXPECT_NE(cache.access(0x400), CacheOutcome::Hit);
}

TEST(Cache, InvalidateDropsLine)
{
    auto cache = makeCache();
    cache.access(0x3000);
    cache.fill(0x3000);
    EXPECT_TRUE(cache.probe(0x3000));
    cache.invalidate(0x3010); // any address within the line
    EXPECT_FALSE(cache.probe(0x3000));
}

TEST(Cache, ProbeDoesNotAllocate)
{
    auto cache = makeCache();
    EXPECT_FALSE(cache.probe(0x4000));
    EXPECT_FALSE(cache.missPending(0x4000));
}

TEST(Cache, LineAddrAlignment)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.lineAddr(0x12345), 0x12300u);
    EXPECT_EQ(cache.lineAddr(0x1237f), 0x12300u);
    EXPECT_EQ(cache.lineAddr(0x12380), 0x12380u);
}

TEST(Cache, StatsCount)
{
    auto cache = makeCache();
    cache.access(0x1000);
    cache.fill(0x1000);
    cache.access(0x1000);
    cache.access(0x2000);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.fills(), 1u);
}

TEST(Cache, RedundantFillRefreshesLru)
{
    auto cache = makeCache();
    cache.access(0x1000);
    cache.fill(0x1000);
    EXPECT_EQ(cache.fill(0x1000), 0); // no waiters second time
    EXPECT_TRUE(cache.probe(0x1000));
}

/**
 * Fill four lines into set 0 (stride 1KB), leave a miss outstanding on
 * 0x1080, and run a lookup sequence that hits 0x400, allocates the last
 * MSHR for 0x2000, hits 0x000 and stalls on 0x3000, recorded in @p plan.
 */
void
stallOnFullMshrs(TagCache &cache, RetryPlan &plan)
{
    for (std::uint32_t line : {0x000u, 0x400u, 0x800u, 0xc00u}) {
        cache.access(line);
        cache.fill(line);
    }
    ASSERT_EQ(cache.access(0x1080), CacheOutcome::Miss);
    plan.clear();
    ASSERT_EQ(cache.access(0x400, &plan), CacheOutcome::Hit);
    ASSERT_EQ(cache.access(0x2000, &plan), CacheOutcome::Miss);
    ASSERT_EQ(cache.access(0x000, &plan), CacheOutcome::Hit);
    ASSERT_EQ(cache.access(0x3000, &plan), CacheOutcome::MshrFull);
    ASSERT_EQ(plan.epoch(), cache.epoch());
    EXPECT_EQ(plan.hitWays().size(), 2u);
    EXPECT_EQ(plan.merged(), 1u);
}

TEST(Cache, ReplayedRetryMatchesRepeatedLookups)
{
    auto looked_up = makeCache(2);
    auto replayed = makeCache(2);
    RetryPlan unused;
    RetryPlan plan;
    stallOnFullMshrs(looked_up, unused);
    stallOnFullMshrs(replayed, plan);

    for (int retry = 0; retry < 5; ++retry) {
        // Another requester's hit between retries keeps the plan valid;
        // only the retries' re-stamps then make 0xc00 older than the
        // lines they hit.
        EXPECT_EQ(looked_up.access(0xc00), CacheOutcome::Hit);
        EXPECT_EQ(replayed.access(0xc00), CacheOutcome::Hit);
        EXPECT_EQ(looked_up.access(0x400), CacheOutcome::Hit);
        EXPECT_EQ(looked_up.access(0x2000), CacheOutcome::MissMerged);
        EXPECT_EQ(looked_up.access(0x000), CacheOutcome::Hit);
        EXPECT_EQ(looked_up.access(0x3000), CacheOutcome::MshrFull);
        ASSERT_EQ(plan.epoch(), replayed.epoch());
        replayed.replay(plan);
    }
    EXPECT_EQ(replayed.hits(), looked_up.hits());
    EXPECT_EQ(replayed.misses(), looked_up.misses());
    EXPECT_EQ(replayed.fill(0x2000), looked_up.fill(0x2000));
    EXPECT_EQ(replayed.fill(0x1080), looked_up.fill(0x1080));

    // Set 0 is full: each conflicting fill evicts by the LRU stamps the
    // retries left, so both caches must evict the same lines.
    for (std::uint32_t line : {0x1000u, 0x1400u, 0x1800u, 0x1c00u}) {
        replayed.fill(line);
        looked_up.fill(line);
        for (std::uint32_t held : {0x000u, 0x400u, 0x800u, 0xc00u, 0x2000u,
                                   0x1000u, 0x1400u, 0x1800u}) {
            EXPECT_EQ(replayed.wayOf(held), looked_up.wayOf(held))
                << std::hex << "line 0x" << held << " after filling 0x"
                << line;
        }
    }
}

TEST(Cache, EpochMovesOnlyWhenAnOutcomeCan)
{
    auto cache = makeCache(2);
    std::uint64_t epoch = cache.epoch();
    auto moved = [&] {
        const bool changed = cache.epoch() != epoch;
        epoch = cache.epoch();
        return changed;
    };
    EXPECT_EQ(cache.access(0x0000), CacheOutcome::Miss);
    EXPECT_TRUE(moved());
    EXPECT_EQ(cache.access(0x0004), CacheOutcome::MissMerged);
    EXPECT_FALSE(moved());
    EXPECT_EQ(cache.access(0x1000), CacheOutcome::Miss);
    EXPECT_TRUE(moved());
    EXPECT_EQ(cache.access(0x2000), CacheOutcome::MshrFull);
    EXPECT_FALSE(moved());
    cache.fill(0x0000);
    EXPECT_TRUE(moved());
    EXPECT_EQ(cache.access(0x0000), CacheOutcome::Hit);
    EXPECT_FALSE(moved());
    cache.invalidate(0x3000); // not present: nothing changes
    EXPECT_FALSE(moved());
    cache.invalidate(0x0000);
    EXPECT_TRUE(moved());
    EXPECT_FALSE(cache.probe(0x0000));
}

TEST(Cache, WayOfNamesTheHoldingWay)
{
    auto cache = makeCache();
    EXPECT_EQ(cache.wayOf(0x400), -1);
    cache.fill(0x000);
    cache.fill(0x400);
    // Set 0 holds ways 0..3; the second line of the set takes way 1.
    EXPECT_EQ(cache.wayOf(0x000), 0);
    EXPECT_EQ(cache.wayOf(0x47c), 1);
    cache.fill(0x080); // set 1
    EXPECT_EQ(cache.wayOf(0x080), 4);
}

TEST(Cache, StaleRetryPlanIsRefused)
{
    auto cache = makeCache(2);
    RetryPlan plan;
    stallOnFullMshrs(cache, plan);
    cache.fill(0x1080);
    EXPECT_DEATH(cache.replay(plan), "stale retry plan");
}

TEST(Cache, GeometryValidation)
{
    EXPECT_EXIT(
        {
            TagCache bad("bad", 4096, 3, 100, 0); // non-pow2 line
            (void)bad;
        },
        ::testing::ExitedWithCode(1), "power of two");
}

} // namespace
} // namespace bvf::gpu
