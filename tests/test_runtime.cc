/**
 * @file
 * Tests for the shared-queue runtime: pool execution and draining,
 * nested submission, the stopped pool's refusal of new work, fork/join
 * task groups with exception propagation, and the ordered reduction
 * whose submission-order guarantee is what makes the parallel campaign
 * deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/ordered.hh"
#include "runtime/task_group.hh"
#include "runtime/thread_pool.hh"

namespace bvf::runtime
{
namespace
{

TEST(ThreadPool, ExecutesEverySubmittedTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 500; ++i)
            pool.submit([&count] { ++count; });
        pool.shutdown();
    }
    EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, DestructorDrainsTheQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                ++count;
            });
        }
        // No explicit shutdown: the destructor must not drop work.
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ShutdownIsIdempotent)
{
    ThreadPool pool(2);
    pool.submit([] {});
    pool.shutdown();
    pool.shutdown();
    EXPECT_EQ(pool.stats().executed, 1u);
}

TEST(ThreadPool, NestedSubmissionFromAWorker)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        TaskGroup group(pool);
        for (int i = 0; i < 16; ++i) {
            group.run([&] {
                // Fan out from inside the pool: joins the back of the
                // one shared queue, where any idle worker takes it.
                for (int j = 0; j < 8; ++j)
                    pool.submit([&count] { ++count; });
            });
        }
        group.wait();
        pool.shutdown();
    }
    EXPECT_EQ(count.load(), 16 * 8);
}

TEST(ThreadPool, TasksOverlapInTime)
{
    // Four sleeps of 100 ms each must overlap on four workers; even a
    // single hardware thread overlaps blocking sleeps, so this holds
    // on any machine.
    ThreadPool pool(4);
    TaskGroup group(pool);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 4; ++i) {
        group.run([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        });
    }
    group.wait();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.35);
}

TEST(ThreadPool, StatsCountExecutionAndUtilization)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) {
        group.run([] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
    }
    group.wait();
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.executed, 64u);
    EXPECT_GT(stats.busyNanos, 0u);
    EXPECT_GE(stats.utilization(2), 0.0);
    EXPECT_LE(stats.utilization(2), 1.0);
    EXPECT_EQ(stats.utilization(0), 0.0);
}

TEST(ThreadPoolDeathTest, SubmitAfterShutdownPanics)
{
    // shutdown() has joined the workers, so the death test forks a
    // single-threaded process.
    ThreadPool pool(2);
    pool.shutdown();
    EXPECT_DEATH(pool.submit([] {}), "submit\\(\\) on a stopped thread pool");
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately)
{
    ThreadPool pool(1);
    TaskGroup group(pool);
    group.wait();
}

TEST(TaskGroup, PropagatesTheFirstException)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        group.run([&ran, i] {
            ++ran;
            if (i == 3)
                throw std::runtime_error("task 3 failed");
        });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    // The failure did not cancel the rest of the group.
    EXPECT_EQ(ran.load(), 8);
}

TEST(OrderedMap, ResultsComeBackInSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<int> items(64);
    std::iota(items.begin(), items.end(), 0);
    // Later items finish first (earlier ones sleep longer), so any
    // completion-order merge would reverse the vector.
    const auto results = parallelMapOrdered(
        pool, std::span<const int>(items),
        [](int item, std::size_t) {
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - item) * 20));
            return item * item;
        });
    ASSERT_EQ(results.size(), items.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], static_cast<int>(i * i)) << i;
}

TEST(OrderedMap, RepeatedRunsAreIdentical)
{
    std::vector<int> items(32);
    std::iota(items.begin(), items.end(), 0);
    auto runOnce = [&items] {
        ThreadPool pool(4);
        return parallelMapOrdered(
            pool, std::span<const int>(items),
            [](int item, std::size_t idx) {
                return item * 31 + static_cast<int>(idx);
            });
    };
    const auto first = runOnce();
    for (int round = 0; round < 5; ++round)
        EXPECT_EQ(runOnce(), first);
}

TEST(OrderedMap, EmptyInputYieldsEmptyOutput)
{
    ThreadPool pool(2);
    const std::vector<int> none;
    const auto results = parallelMapOrdered(
        pool, std::span<const int>(none),
        [](int item, std::size_t) { return item; });
    EXPECT_TRUE(results.empty());
}

TEST(TaskGroup, FirstExceptionWinsUnderWorkerLocalNestedSubmission)
{
    // The children are spawned from *inside* a worker task, while the
    // owner may already be blocked in wait(); the group's bookkeeping
    // must be the same as for children spawned from outside the pool.
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> children_ran{0};
    group.run([&group, &children_ran] {
        for (int i = 0; i < 16; ++i) {
            group.run([&children_ran, i] {
                ++children_ran;
                if (i == 5)
                    throw std::runtime_error("child 5 failed");
                if (i == 11)
                    throw std::runtime_error("child 11 failed");
            });
        }
    });
    std::string what;
    try {
        group.wait();
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    // Exactly one of the two failures is rethrown (first one wins,
    // the other is dropped)...
    EXPECT_TRUE(what == "child 5 failed" || what == "child 11 failed")
        << what;
    // ...and the failure cancelled nothing: the join still covered
    // every nested child.
    EXPECT_EQ(children_ran.load(), 16);
}

TEST(OrderedMap, EmptyInputFromInsideAWorkerDoesNotDeadlock)
{
    // parallelMapOrdered must normally be called from outside the pool
    // (the caller blocks in TaskGroup::wait()), but with an empty span
    // it spawns nothing and the join is immediate, so even a worker
    // may call it. A regression here hangs; the discovered-test
    // timeout turns that into a failure.
    ThreadPool pool(1); // one worker: any self-wait would deadlock
    TaskGroup group(pool);
    std::vector<int> sizes;
    group.run([&pool, &sizes] {
        const std::vector<int> none;
        const auto results = parallelMapOrdered(
            pool, std::span<const int>(none),
            [](int item, std::size_t) { return item * 2; });
        sizes.push_back(static_cast<int>(results.size()));
    });
    group.wait();
    ASSERT_EQ(sizes.size(), 1u);
    EXPECT_EQ(sizes[0], 0);
}

TEST(OrderedMap, ExceptionsPropagateAfterQuiescence)
{
    ThreadPool pool(2);
    std::vector<int> items(16);
    std::iota(items.begin(), items.end(), 0);
    EXPECT_THROW(
        parallelMapOrdered(pool, std::span<const int>(items),
                           [](int item, std::size_t) -> int {
                               if (item == 7)
                                   throw std::logic_error("boom");
                               return item;
                           }),
        std::logic_error);
}

} // namespace
} // namespace bvf::runtime
