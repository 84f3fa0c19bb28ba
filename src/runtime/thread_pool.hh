/**
 * @file
 * Work-stealing thread pool.
 *
 * The repo's first concurrency layer: a fixed set of workers, each with
 * its own double-ended task queue. A worker services its own deque in
 * LIFO order (hot caches for task trees that fan out and join quickly)
 * and, when empty, steals the *oldest* task from a victim's deque in
 * FIFO order, which is the classic Blumofe-Leiserson discipline: old
 * tasks are the big untouched ones worth migrating.
 *
 * Tasks submitted from outside the pool are distributed round-robin so
 * a burst lands spread across workers; tasks submitted from inside a
 * worker go to that worker's own deque, where they are picked up
 * without any cross-thread traffic unless another worker runs dry.
 *
 * The pool keeps per-worker counters (executed tasks, steals, busy
 * nanoseconds) that the bvfd /metrics endpoint exposes as utilization.
 */

#ifndef BVF_RUNTIME_THREAD_POOL_HH
#define BVF_RUNTIME_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bvf::runtime
{

/** Aggregate and per-worker execution counters. */
struct PoolStats
{
    std::uint64_t executed = 0; //!< tasks run, counted as each starts
    std::uint64_t steals = 0;   //!< tasks taken from another worker
    std::uint64_t busyNanos = 0; //!< summed task execution time
    std::uint64_t wallNanos = 0; //!< pool lifetime so far

    /**
     * Mean fraction of pool capacity spent executing tasks, in [0, 1].
     * 4 workers busy half the wall time -> 0.5.
     */
    double utilization(int workers) const;
};

/**
 * Fixed-size work-stealing pool.
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
     * running task (a worker enqueues onto its own deque).
     */
    void submit(std::function<void()> task);

    /** Worker count the pool was built with. */
    int workers() const { return static_cast<int>(workers_.size()); }

    /** Tasks queued but not yet started (snapshot; racy by nature). */
    std::size_t queueDepth() const;

    /** Execution counters (snapshot). */
    PoolStats stats() const;

    /**
     * Stop accepting work, finish everything queued, join the workers.
     * Idempotent; also run by the destructor.
     */
    void shutdown();

    /**
     * Index of the calling worker within its pool, or -1 when the
     * caller is not a pool thread.
     */
    static int currentWorker();

  private:
    struct Worker
    {
        std::thread thread;
        mutable std::mutex mutex;
        std::deque<std::function<void()>> deque;
        std::uint64_t executed = 0;
        std::uint64_t steals = 0;
        std::uint64_t busyNanos = 0;
    };

    void workerLoop(int self);
    bool popLocal(int self, std::function<void()> &task);
    bool stealFrom(int self, std::function<void()> &task);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::size_t nextQueue_ = 0; //!< round-robin cursor for external submits

    // One shared doorbell: workers sleep here when every deque is dry.
    mutable std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    std::size_t pending_ = 0; //!< tasks queued and not yet started
    bool stopping_ = false;

    std::chrono::steady_clock::time_point start_;
};

} // namespace bvf::runtime

#endif // BVF_RUNTIME_THREAD_POOL_HH
