/**
 * @file
 * Shared-queue thread pool.
 *
 * A fixed set of workers drains one FIFO task queue, guarded by one
 * mutex, and sleeps on one condition variable when it is empty. The
 * work this repo hands the pool is flat: a campaign submits one task
 * per application from the caller's thread, and bvfd submits one task
 * per request from its connection readers. No task forks subtasks and
 * joins on them, so there is nothing for per-worker deques and work
 * stealing to win; a task submitted from inside a worker simply joins
 * the back of the queue.
 *
 * The pool keeps execution counters (executed tasks, busy nanoseconds)
 * that the bvfd /metrics endpoint exposes as utilization.
 */

#ifndef BVF_RUNTIME_THREAD_POOL_HH
#define BVF_RUNTIME_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bvf::runtime
{

/** Aggregate execution counters. */
struct PoolStats
{
    std::uint64_t executed = 0; //!< tasks run, counted as each starts
    std::uint64_t busyNanos = 0; //!< summed task execution time
    std::uint64_t wallNanos = 0; //!< pool lifetime so far

    /**
     * Mean fraction of pool capacity spent executing tasks, in [0, 1].
     * 4 workers busy half the wall time -> 0.5.
     */
    double utilization(int workers) const;
};

/**
 * Fixed-size pool over one shared task queue.
 *
 * Lifetime: tasks may be submitted until shutdown() (or destruction);
 * the destructor drains every queued task before joining the workers,
 * so a submitted task is never silently dropped.
 */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (at least 1). */
    explicit ThreadPool(int workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue one task. Safe from any thread, including from inside a
     * running task. Panics once shutdown() has begun.
     */
    void submit(std::function<void()> task);

    /** Worker count the pool was built with. */
    int workers() const { return static_cast<int>(threads_.size()); }

    /** Tasks queued but not yet started (snapshot; racy by nature). */
    std::size_t queueDepth() const;

    /** Execution counters (snapshot). */
    PoolStats stats() const;

    /**
     * Stop accepting work, finish everything queued, join the workers.
     * Idempotent; also run by the destructor.
     */
    void shutdown();

  private:
    void workerLoop();

    mutable std::mutex mutex_; //!< guards the queue, flag and counters
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::uint64_t executed_ = 0;
    std::uint64_t busyNanos_ = 0;

    std::chrono::steady_clock::time_point start_;

    // Last: the workers use every member above.
    std::vector<std::thread> threads_;
};

} // namespace bvf::runtime

#endif // BVF_RUNTIME_THREAD_POOL_HH
