/**
 * @file
 * Tests for the bvfd metrics registry: histogram bucketing and
 * quantile bounds, per-type request/response accounting, and the
 * Prometheus-style rendering the /metrics endpoint serves.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hh"
#include "server/metrics.hh"

namespace bvf::server
{
namespace
{

using namespace std::chrono_literals;

TEST(LatencyHistogram, EmptyHistogramReportsZero)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(0.5), 0.0);
    EXPECT_EQ(hist.quantile(0.99), 0.0);
}

TEST(LatencyHistogram, BucketEdgesGrowTwofold)
{
    for (int i = 1; i < LatencyHistogram::kBuckets; ++i) {
        EXPECT_DOUBLE_EQ(LatencyHistogram::bucketEdge(i),
                         2.0 * LatencyHistogram::bucketEdge(i - 1));
    }
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucketEdge(0), 1e-6);
}

TEST(LatencyHistogram, QuantileIsBoundedByItsBucket)
{
    LatencyHistogram hist;
    for (int i = 0; i < 100; ++i)
        hist.record(1ms);
    EXPECT_EQ(hist.count(), 100u);
    // A 1 ms sample lands in a bucket whose upper edge is within a
    // factor of two of the true value.
    const double q = hist.quantile(0.5);
    EXPECT_GE(q, 1e-3 / 2.0);
    EXPECT_LE(q, 2e-3 + 1e-9);
}

TEST(LatencyHistogram, QuantilesAreMonotonic)
{
    LatencyHistogram hist;
    hist.record(2us);
    hist.record(50us);
    hist.record(900us);
    hist.record(30ms);
    hist.record(2s);
    double last = 0.0;
    for (const double q : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double v = hist.quantile(q);
        EXPECT_GE(v, last) << q;
        last = v;
    }
}

TEST(LatencyHistogram, ExtremeSamplesStayInRange)
{
    LatencyHistogram hist;
    hist.record(0ns);                      // below the first edge
    hist.record(std::chrono::hours(24));   // far past the last edge
    hist.record(-5ms);                     // clock went backwards
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_LE(hist.quantile(1.0),
              LatencyHistogram::bucketEdge(LatencyHistogram::kBuckets - 1));
}

TEST(Metrics, CountsRequestsAndResponsesPerType)
{
    Metrics metrics;
    metrics.onRequest(MsgType::PingRequest);
    metrics.onRequest(MsgType::PingRequest);
    metrics.onRequest(MsgType::ChipEnergyRequest);
    metrics.onResponse(MsgType::PingResponse, 5us);
    metrics.onResponse(MsgType::ErrorResponse, 1us);
    EXPECT_EQ(metrics.requestsTotal(), 3u);
    EXPECT_EQ(metrics.responsesTotal(), 2u);
    EXPECT_EQ(metrics.protocolErrors(), 0u);
    metrics.onProtocolError();
    EXPECT_EQ(metrics.protocolErrors(), 1u);
}

TEST(Metrics, RenderExposesEveryFamily)
{
    Metrics metrics;
    metrics.onConnection();
    metrics.onRequest(MsgType::EvalCoderRequest);
    metrics.onResponse(MsgType::EvalCoderResponse, 42us);
    metrics.addBytesIn(100);
    metrics.addBytesOut(250);

    metrics.onRequest(MsgType::StaticAdviceRequest);
    metrics.onResponse(MsgType::StaticAdviceResponse, 13us);

    const std::string text = metrics.render(7, 4, 0.5);
    for (const char *needle :
         {"bvfd_requests_total{type=\"eval_coder\"} 1",
          "bvfd_responses_total{type=\"eval_coder\"} 1",
          "bvfd_requests_total{type=\"static_advice\"} 1",
          "bvfd_responses_total{type=\"static_advice\"} 1",
          "bvfd_requests_total{type=\"ping\"} 0",
          "bvfd_protocol_errors_total 0", "bvfd_connections_total 1",
          "bvfd_bytes_in_total 100", "bvfd_bytes_out_total 250",
          "bvfd_latency_seconds{quantile=\"0.5\"}",
          "bvfd_latency_seconds{quantile=\"0.99\"}",
          "bvfd_latency_samples_total 2", "bvfd_queue_depth 7",
          "bvfd_workers 4", "bvfd_worker_utilization 0.5"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Metrics, ErrorsAreKeyedByRequestType)
{
    Metrics metrics;
    EXPECT_EQ(metrics.errorsTotal(), 0u);
    metrics.onError(MsgType::ChipEnergyRequest);
    metrics.onError(MsgType::ChipEnergyRequest);
    metrics.onError(MsgType::StaticAdviceRequest);
    EXPECT_EQ(metrics.errorsTotal(), 3u);
    EXPECT_EQ(metrics.errors(MsgType::ChipEnergyRequest), 2u);
    EXPECT_EQ(metrics.errors(MsgType::StaticAdviceRequest), 1u);
    EXPECT_EQ(metrics.errors(MsgType::PingRequest), 0u);

    const std::string text = metrics.render(0, 1, 0.0);
    for (const char *needle :
         {"bvfd_request_errors_total{type=\"chip_energy\"} 2",
          "bvfd_request_errors_total{type=\"static_advice\"} 1",
          "bvfd_request_errors_total{type=\"ping\"} 0"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Metrics, RenderExposesUptimeAndBuildInfo)
{
    Metrics metrics;
    std::this_thread::sleep_for(2ms);
    EXPECT_GT(metrics.uptimeSeconds(), 0.0);
    const std::string text = metrics.render(0, 1, 0.0);
    EXPECT_NE(text.find("bvfd_uptime_seconds "), std::string::npos);
    EXPECT_NE(
        text.find("bvfd_build_info{version=\"0.6.0\",protocol=\"1\"} 1"),
        std::string::npos);
}

TEST(Metrics, ConcurrentRecordingLosesNothing)
{
    Metrics metrics;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&metrics] {
            for (int i = 0; i < kPerThread; ++i) {
                metrics.onRequest(MsgType::PingRequest);
                metrics.onResponse(MsgType::PingResponse, 1us);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(metrics.requestsTotal(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(metrics.responsesTotal(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Metrics, KernelAdmissionTypesGetTheirOwnSlots)
{
    Metrics metrics;
    metrics.onRequest(MsgType::SubmitKernelRequest);
    metrics.onResponse(MsgType::SubmitKernelResponse, 3us);
    metrics.onRequest(MsgType::EvalSubmittedRequest);
    metrics.onRequest(MsgType::EvalSubmittedRequest);
    metrics.onResponse(MsgType::EvalSubmittedResponse, 9us);
    metrics.onError(MsgType::EvalSubmittedRequest);

    const std::string text = metrics.render(0, 1, 0.0);
    for (const char *needle :
         {"bvfd_requests_total{type=\"submit_kernel\"} 1",
          "bvfd_responses_total{type=\"submit_kernel\"} 1",
          "bvfd_requests_total{type=\"eval_submitted\"} 2",
          "bvfd_responses_total{type=\"eval_submitted\"} 1",
          "bvfd_request_errors_total{type=\"eval_submitted\"} 1",
          // The new slots must not alias the ping slot.
          "bvfd_requests_total{type=\"ping\"} 0"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
    EXPECT_EQ(metrics.errors(MsgType::SubmitKernelRequest), 0u);
    EXPECT_EQ(metrics.errors(MsgType::EvalSubmittedRequest), 1u);
}

TEST(Metrics, RenderedTextIsPinnedForFixedCounters)
{
    // Every message type counted a different number of times, so the
    // slot each type lands in and each slot's label show in the text.
    Metrics metrics;
    int n = 0;
    for (int raw = 0; raw < 256; ++raw) {
        const auto type = static_cast<MsgType>(raw);
        if (!msgTypeKnown(static_cast<std::uint8_t>(raw)))
            continue;
        ++n;
        for (int i = 0; i < n; ++i)
            metrics.onRequest(type);
        metrics.onResponse(type, std::chrono::microseconds(n * 7));
        if (n % 3 == 0)
            metrics.onError(type);
    }
    EXPECT_EQ(n, 17);
    metrics.onProtocolError();
    metrics.onConnection();
    metrics.addBytesIn(1234);
    metrics.addBytesOut(5678);

    std::string text = metrics.render(5, 3, 0.25);
    const auto uptime = text.find("bvfd_uptime_seconds ");
    ASSERT_NE(uptime, std::string::npos);
    text.erase(uptime, text.find('\n', uptime) + 1 - uptime);
    EXPECT_EQ(crc32(text.data(), text.size()), 0xdaa906d6u) << text;
}

} // namespace
} // namespace bvf::server
