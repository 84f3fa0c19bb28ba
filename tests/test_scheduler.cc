/**
 * @file
 * Unit tests for the warp schedulers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "gpu/scheduler.hh"

namespace bvf::gpu
{
namespace
{

/** The ready mask with bit w set for each listed warp. */
std::uint64_t
ready(std::initializer_list<int> warps)
{
    std::uint64_t r = 0;
    for (int w : warps)
        r |= std::uint64_t(1) << w;
    return r;
}

TEST(Gto, GreedyKeepsIssuingSameWarp)
{
    GtoScheduler sched(8);
    std::vector<std::uint64_t> last(8, 0);
    const auto r = ready({2, 5});
    const int first = sched.pick(r, last, 1);
    sched.issued(first, 1);
    EXPECT_EQ(sched.pick(r, last, 2), first);
    sched.issued(first, 2);
    EXPECT_EQ(sched.pick(r, last, 3), first);
}

TEST(Gto, FallsBackToOldest)
{
    GtoScheduler sched(8);
    std::vector<std::uint64_t> last(8, 0);
    last[3] = 10;
    last[6] = 5; // oldest ready warp
    sched.issued(1, 11); // greedy warp = 1, but it goes unready
    EXPECT_EQ(sched.pick(ready({3, 6}), last, 12), 6);
}

TEST(Gto, NoReadyWarpReturnsMinusOne)
{
    GtoScheduler sched(4);
    std::vector<std::uint64_t> last(4, 0);
    EXPECT_EQ(sched.pick(ready({}), last, 1), -1);
}

TEST(Lrr, RotatesThroughWarps)
{
    LrrScheduler sched(4);
    std::vector<std::uint64_t> last(4, 0);
    const auto r = ready({0, 1, 2, 3});
    std::vector<int> order;
    for (int c = 0; c < 8; ++c) {
        const int w = sched.pick(r, last, static_cast<std::uint64_t>(c));
        order.push_back(w);
        sched.issued(w, static_cast<std::uint64_t>(c));
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Lrr, SkipsUnreadyWarps)
{
    LrrScheduler sched(4);
    std::vector<std::uint64_t> last(4, 0);
    const auto r = ready({1, 3});
    const int first = sched.pick(r, last, 0);
    sched.issued(first, 0);
    const int second = sched.pick(r, last, 1);
    EXPECT_NE(first, second);
    EXPECT_TRUE(first == 1 || first == 3);
    EXPECT_TRUE(second == 1 || second == 3);
}

TEST(TwoLevel, PrefersActivePool)
{
    TwoLevelScheduler sched(16, 4); // active pool starts as {0,1,2,3}
    std::vector<std::uint64_t> last(16, 0);
    const auto r = ready({0, 1, 2, 3, 8, 9});
    for (int c = 0; c < 8; ++c) {
        const int w = sched.pick(r, last, static_cast<std::uint64_t>(c));
        EXPECT_LT(w, 4); // pending warps 8/9 stay out while pool is ready
        sched.issued(w, static_cast<std::uint64_t>(c));
    }
}

TEST(TwoLevel, RotatesStalledWarpsOut)
{
    TwoLevelScheduler sched(8, 2); // active {0,1}, pending {2..7}
    std::vector<std::uint64_t> last(8, 0);
    // Warps 0 and 1 stall; only 4 is ready. The pool swaps stalled
    // warps out one refill round at a time, so warp 4 reaches the
    // active pool within a few cycles.
    const auto r = ready({4});
    int picked = -1;
    for (int cycle = 0; cycle < 8 && picked < 0; ++cycle)
        picked = sched.pick(r, last, static_cast<std::uint64_t>(cycle));
    EXPECT_EQ(picked, 4);
}

TEST(TwoLevel, AllStalledReturnsMinusOne)
{
    TwoLevelScheduler sched(8, 2);
    std::vector<std::uint64_t> last(8, 0);
    EXPECT_EQ(sched.pick(ready({}), last, 1), -1);
}

TEST(Gto, OldestAcrossAllSixtyFourSlots)
{
    GtoScheduler sched(64);
    std::vector<std::uint64_t> last(64, 9);
    last[63] = 2; // oldest ready warp, in the mask's top bit
    last[40] = 2; // as old but not ready
    EXPECT_EQ(sched.pick(ready({0, 17, 63}), last, 10), 63);
}

TEST(Lrr, WrapsPastTheTopSlot)
{
    LrrScheduler sched(64);
    std::vector<std::uint64_t> last(64, 0);
    sched.issued(62, 0); // next round starts at 63
    EXPECT_EQ(sched.pick(ready({5, 63}), last, 1), 63);
    sched.issued(63, 1); // next round starts at 0
    EXPECT_EQ(sched.pick(ready({5, 63}), last, 2), 5);
}

TEST(Factory, RejectsMoreWarpsThanTheMaskHolds)
{
    for (const auto policy : {SchedulerPolicy::Gto, SchedulerPolicy::Lrr,
                              SchedulerPolicy::TwoLevel}) {
        std::string message;
        try {
            ScopedFatalTrap trap;
            makeScheduler(policy, 65);
        } catch (const FatalError &e) {
            message = e.what();
        }
        EXPECT_NE(message.find("1 to 64 warps"), std::string::npos)
            << schedulerName(policy);
    }
}

TEST(Factory, BuildsEveryPolicy)
{
    for (const auto policy : {SchedulerPolicy::Gto, SchedulerPolicy::Lrr,
                              SchedulerPolicy::TwoLevel}) {
        const auto sched = makeScheduler(policy, 8);
        ASSERT_NE(sched, nullptr);
        std::vector<std::uint64_t> last(8, 0);
        EXPECT_EQ(sched->pick(ready({5}), last, 1), 5);
    }
}

TEST(Factory, PolicyNames)
{
    EXPECT_EQ(schedulerName(SchedulerPolicy::Gto), "GTO");
    EXPECT_EQ(schedulerName(SchedulerPolicy::Lrr), "LRR");
    EXPECT_EQ(schedulerName(SchedulerPolicy::TwoLevel), "Two-Level");
}

} // namespace
} // namespace bvf::gpu
