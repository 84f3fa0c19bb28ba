/**
 * @file
 * Shared-queue thread pool implementation.
 */

#include "runtime/thread_pool.hh"

#include "common/logging.hh"

namespace bvf::runtime
{

double
PoolStats::utilization(int workers) const
{
    if (workers <= 0 || wallNanos == 0)
        return 0.0;
    return static_cast<double>(busyNanos)
           / (static_cast<double>(wallNanos)
              * static_cast<double>(workers));
}

ThreadPool::ThreadPool(int workers)
    : start_(std::chrono::steady_clock::now())
{
    panic_if(workers < 1, "thread pool needs at least one worker, got %d",
             workers);
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::submit(std::function<void()> task)
{
    panic_if(!task, "null task submitted to thread pool");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(stopping_, "submit() on a stopped thread pool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and everything queued has started
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        // Counted before the task runs: whatever the task publishes on
        // its way out (a TaskGroup's completion) happens after the count,
        // so a waiter that sees it also sees the task counted.
        ++executed_;
        lock.unlock();
        const auto begin = std::chrono::steady_clock::now();
        task();
        const auto end = std::chrono::steady_clock::now();
        task = nullptr; // release the captures outside the lock
        lock.lock();
        busyNanos_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count());
    }
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

PoolStats
ThreadPool::stats() const
{
    PoolStats out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.executed = executed_;
        out.busyNanos = busyNanos_;
    }
    out.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    return out;
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

} // namespace bvf::runtime
