/**
 * @file
 * bvfd service metrics.
 *
 * Lock-cheap counters and a log-scale latency histogram, rendered as
 * Prometheus-style plaintext for the /metrics endpoint. Counters are
 * atomics touched from worker and connection threads; the histogram
 * buckets are atomics too, so recording a latency never takes a lock.
 * Percentiles are derived from the histogram at scrape time -- an
 * approximation whose error is bounded by the bucket width (buckets
 * grow 2x from 1us, so the p99 is exact to within a factor of two,
 * plenty for spotting a queue backing up).
 */

#ifndef BVF_SERVER_METRICS_HH
#define BVF_SERVER_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "server/protocol.hh"

namespace bvf::server
{

/**
 * Version string exported through bvfd_build_info. Health checkers use
 * it to spot a mixed-version fleet before it corrupts a campaign.
 */
constexpr const char *kBuildVersion = "0.6.0";

/** Latency histogram: 2x buckets from 1us to ~17min, plus overflow. */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 31;

    /** Record one latency sample. */
    void record(std::chrono::nanoseconds latency);

    /** Total recorded samples. */
    std::uint64_t count() const;

    /**
     * Approximate @p quantile (0..1) in seconds: upper edge of the
     * bucket holding that rank. 0 when nothing was recorded.
     */
    double quantile(double q) const;

    /** Upper edge of bucket @p i in seconds. */
    static double bucketEdge(int i);

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/**
 * Everything bvfd exports. One instance per server; threads record
 * into it concurrently, the metrics endpoint renders a snapshot.
 */
class Metrics
{
  public:
    /** Count one received request frame of @p type. */
    void onRequest(MsgType type);

    /** Count one completed request with its service latency. */
    void onResponse(MsgType type, std::chrono::nanoseconds latency);

    /**
     * Count one request of @p requestType that was answered with an
     * ErrorResponse. Keyed by the *request* type -- the response type
     * of a failure is always ErrorResponse, which would collapse every
     * failure into one bucket and hide which request family is sick.
     */
    void onError(MsgType requestType);

    /** Count one protocol violation (bad frame, refused request). */
    void onProtocolError() { protocolErrors_.fetch_add(1); }

    /** Count one accepted connection. */
    void onConnection() { connections_.fetch_add(1); }

    void addBytesIn(std::uint64_t n) { bytesIn_.fetch_add(n); }
    void addBytesOut(std::uint64_t n) { bytesOut_.fetch_add(n); }

    /**
     * Render the Prometheus-style plaintext exposition.
     * @param queueDepth  current runtime queue depth
     * @param workers     worker count of the serving pool
     * @param utilization pool busy fraction in [0, 1]
     */
    std::string render(std::size_t queueDepth, int workers,
                       double utilization) const;

    std::uint64_t requestsTotal() const;
    std::uint64_t responsesTotal() const;
    std::uint64_t errorsTotal() const;
    std::uint64_t errors(MsgType requestType) const;
    std::uint64_t protocolErrors() const { return protocolErrors_.load(); }

    /** Seconds since this Metrics instance was constructed. */
    double uptimeSeconds() const;

  private:
    /** Dense index for the per-type counters: the type's table row. */
    static std::size_t typeSlot(MsgType type);
    static constexpr std::size_t kTypeSlots = kMessageKinds.size();
    using Counters = std::array<std::atomic<std::uint64_t>, kTypeSlots>;

    Counters requests_{};
    Counters responses_{};
    Counters errors_{};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> bytesIn_{0};
    std::atomic<std::uint64_t> bytesOut_{0};
    LatencyHistogram latency_;
    std::chrono::steady_clock::time_point started_ =
        std::chrono::steady_clock::now();
};

} // namespace bvf::server

#endif // BVF_SERVER_METRICS_HH
