/**
 * @file
 * End-to-end daemon tests over real sockets: ping round-trips, strict
 * in-order pipelined batches, the one-ErrorResponse-then-hangup framing
 * policy, semantic errors that keep the connection alive, the HTTP
 * /metrics ride-along, Unix-socket service, and graceful drain.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include "analysis_pins.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "kernel_shards.hh"
#include "core/experiment.hh"
#include "fault/fault_model.hh"
#include "gpu/gpu_config.hh"
#include "server/handler.hh"
#include "server/http.hh"
#include "server/kernel_store.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

namespace bvf::server
{
namespace
{

/** A raw-socket protocol client with its own reassembly buffer. */
class TestClient
{
  public:
    explicit TestClient(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = inet_addr("127.0.0.1");
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    explicit TestClient(const std::string &unixPath)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    TestClient(const TestClient &) = delete;
    TestClient &operator=(const TestClient &) = delete;

    void
    send(const std::string &bytes)
    {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n =
                ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            sent += static_cast<std::size_t>(n);
        }
    }

    /** Read one frame, pulling more bytes from the socket as needed. */
    Result<Frame>
    readFrame()
    {
        for (;;) {
            std::size_t consumed = 0;
            auto parsed = parseFrame(buf_, consumed);
            if (parsed.ok()) {
                buf_.erase(0, consumed);
                return parsed;
            }
            if (parsed.error().code != ErrorCode::Truncated)
                return parsed;
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return Error{ErrorCode::Io, "connection closed"};
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Drain the socket; @return true iff the peer closed cleanly. */
    bool
    readUntilEof(std::string *collected = nullptr)
    {
        for (;;) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
            if (collected)
                collected->append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

std::string
pingBytes(std::uint64_t nonce)
{
    Ping ping;
    ping.nonce = nonce;
    return encodeFrame(MsgType::PingRequest, ping.encode());
}

ServerOptions
smallServer()
{
    ServerOptions options;
    options.workers = 2;
    return options;
}

TEST(Server, PingRoundTripsOverTcp)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());
    ASSERT_GT(server.port(), 0);

    TestClient client(server.port());
    client.send(pingBytes(0xfeedface));
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()) << frame.error().describe();
    EXPECT_EQ(frame.value().type, MsgType::PingResponse);
    const auto pong = Ping::decode(frame.value().payload);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().nonce, 0xfeedfaceu);

    EXPECT_EQ(server.metrics().requestsTotal(), 1u);
    EXPECT_EQ(server.metrics().responsesTotal(), 1u);
}

TEST(Server, PipelinedBatchAnswersInRequestOrder)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    constexpr int kBatch = 32;
    std::string batch;
    for (int i = 0; i < kBatch; ++i)
        batch += pingBytes(0x1000u + static_cast<std::uint64_t>(i));
    client.send(batch); // one write: the whole pipeline at once

    for (int i = 0; i < kBatch; ++i) {
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame.ok()) << i;
        ASSERT_EQ(frame.value().type, MsgType::PingResponse) << i;
        const auto pong = Ping::decode(frame.value().payload);
        ASSERT_TRUE(pong.ok()) << i;
        // Strictly in request order, never completion order.
        EXPECT_EQ(pong.value().nonce,
                  0x1000u + static_cast<std::uint64_t>(i));
    }
}

TEST(Server, FramingErrorGetsOneErrorResponseThenHangup)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    std::string bad = pingBytes(1);
    bad[0] = 'X'; // destroy the magic
    client.send(bad);

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().type, MsgType::ErrorResponse);
    const auto err = WireError::decode(frame.value().payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code,
              static_cast<std::uint8_t>(ErrorCode::Corrupt));
    // After a framing error the stream offset is unreliable, so the
    // server must hang up rather than guess at resynchronization.
    EXPECT_TRUE(client.readUntilEof());
    EXPECT_GE(server.metrics().protocolErrors(), 1u);
}

TEST(Server, SemanticErrorKeepsTheConnectionAlive)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    BitDensityRequest req;
    req.query.abbr = "ZZZ"; // decodes fine, but no such application
    client.send(encodeFrame(MsgType::BitDensityRequest, req.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().type, MsgType::ErrorResponse);

    // The frame was well-formed, so the connection survives and the
    // next request is served normally.
    client.send(pingBytes(7));
    const auto pong = client.readFrame();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().type, MsgType::PingResponse);
}

TEST(Server, StaticAdviceRoundTripsOverTcp)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    StaticAdviceRequest req;
    req.query.abbr = "KMN";
    client.send(encodeFrame(MsgType::StaticAdviceRequest, req.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame.value().type, MsgType::StaticAdviceResponse);
    const auto resp =
        StaticAdviceResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok());
    const StaticAdviceResponse &r = resp.value();
    EXPECT_LT(r.bestPivot, 32);
    EXPECT_GE(r.provenSlack, 0.0);
    EXPECT_GT(r.totalSources, 0u);
    EXPECT_GT(r.affineSources, 0u);
    // The advised pivot's bound is a live register-file bound.
    EXPECT_EQ(r.pivotBounds[r.bestPivot].any, 1);
    EXPECT_NE(r.defaultMask, 0u);
    EXPECT_FALSE(r.unitPicks.empty());
}

TEST(Server, MetricsRideAlongOverHttp)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    // Prime one counter so the scrape has something nonzero to show.
    {
        TestClient client(server.port());
        client.send(pingBytes(1));
        ASSERT_TRUE(client.readFrame().ok());
    }

    TestClient scraper(server.port());
    scraper.send("GET /metrics HTTP/1.0\r\n\r\n");
    std::string response;
    EXPECT_TRUE(scraper.readUntilEof(&response));
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("bvfd_requests_total{type=\"ping\"} 1"),
              std::string::npos);
    // The same text Server::renderMetrics() returns directly.
    EXPECT_NE(response.find("bvfd_workers 2"), std::string::npos);
    EXPECT_NE(server.renderMetrics().find("bvfd_workers 2"),
              std::string::npos);
}

TEST(HttpScan, CompleteHeadIsMeasuredExactly)
{
    const std::string head = "GET /metrics HTTP/1.0\r\n\r\n";
    const auto scan = scanHttpHead(head + "trailing junk");
    EXPECT_EQ(scan.state, HttpScan::Complete);
    EXPECT_EQ(scan.headBytes, head.size());

    // Bare-LF heads (curl-style hand tests) work too.
    const auto bare = scanHttpHead("GET / HTTP/1.1\n\n");
    EXPECT_EQ(bare.state, HttpScan::Complete);
}

TEST(HttpScan, PartialHeadAsksForMore)
{
    EXPECT_EQ(scanHttpHead("GET /met").state, HttpScan::NeedMore);
    EXPECT_EQ(scanHttpHead("GET /metrics HTTP/1.0\r\n").state,
              HttpScan::NeedMore);
}

TEST(HttpScan, OversizedRequestLineIsRejectedBeforeItEnds)
{
    // No newline anywhere: a scanner that waited for the line to end
    // would buffer forever. The verdict must come from length alone.
    const std::string endless =
        "GET /" + std::string(kMaxHttpRequestLine, 'a');
    EXPECT_EQ(scanHttpHead(endless).state, HttpScan::RequestLineTooLong);
}

TEST(HttpScan, OversizedHeadIsRejected)
{
    std::string head = "GET /metrics HTTP/1.0\r\n";
    while (head.size() <= kMaxHttpHead)
        head += "X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    EXPECT_EQ(scanHttpHead(head).state, HttpScan::HeadTooLong);
}

TEST(Server, OversizedMetricsRequestLineGets414)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient scraper(server.port());
    // "GET /aaaa..." with no newline: the request line never ends.
    scraper.send("GET /" + std::string(kMaxHttpRequestLine, 'a'));
    std::string response;
    EXPECT_TRUE(scraper.readUntilEof(&response));
    EXPECT_NE(response.find("414 URI Too Long"), std::string::npos);
    // The rejection must not include a metrics body.
    EXPECT_EQ(response.find("bvfd_workers"), std::string::npos);
    EXPECT_GE(server.metrics().protocolErrors(), 1u);
}

TEST(Server, OversizedMetricsHeadGets431)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient scraper(server.port());
    std::string head = "GET /metrics HTTP/1.0\r\n";
    while (head.size() <= kMaxHttpHead)
        head += "X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    scraper.send(head);
    std::string response;
    EXPECT_TRUE(scraper.readUntilEof(&response));
    EXPECT_NE(response.find("431 Request Header Fields Too Large"),
              std::string::npos);
    EXPECT_EQ(response.find("bvfd_workers"), std::string::npos);
    EXPECT_GE(server.metrics().protocolErrors(), 1u);
}

TEST(Server, ServesTheSameProtocolOnAUnixSocket)
{
    const std::string path =
        "/tmp/bvf-test-" + std::to_string(::getpid()) + ".sock";
    ::unlink(path.c_str());

    ServerOptions options = smallServer();
    options.host.clear(); // Unix socket only
    options.unixPath = path;
    {
        Server server(options);
        ASSERT_TRUE(server.start().ok());
        EXPECT_EQ(server.port(), 0); // no TCP listener

        TestClient client(path);
        client.send(pingBytes(0xabc));
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame.ok());
        const auto pong = Ping::decode(frame.value().payload);
        ASSERT_TRUE(pong.ok());
        EXPECT_EQ(pong.value().nonce, 0xabcu);
    }
    ::unlink(path.c_str());
}

TEST(Server, NothingToListenOnIsAStartError)
{
    ServerOptions options = smallServer();
    options.host.clear();
    options.unixPath.clear();
    Server server(options);
    EXPECT_FALSE(server.start().ok());
}

TEST(Server, WaitForStopUnblocksOnRequestStop)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());
    std::thread stopper([&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server.requestStop(); // async-signal-safe: what a handler does
    });
    server.waitForStop(); // must return once the stop is requested
    stopper.join();
    server.drain();
}

TEST(Server, DrainAnswersEverythingThenClosesConnections)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    client.send(pingBytes(5));
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()); // the request was served...

    server.requestStop();
    server.drain();
    // ...and the drain closed the connection cleanly.
    EXPECT_TRUE(client.readUntilEof());
    EXPECT_EQ(server.metrics().requestsTotal(),
              server.metrics().responsesTotal());
    server.drain(); // idempotent
}

namespace
{

std::string
assembleBytecode(const std::string &text)
{
    auto parsed = isa::parseAsm(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    return isa::encodeProgram(parsed.value());
}

constexpr const char *kTinyKernel = ".kernel tiny\n"
                                    ".launch 1 32\n"
                                    "    S2R R1, SR_TIDX\n"
                                    "    IADD R2, R1, #1\n"
                                    "    EXIT\n";

} // namespace

TEST(Server, SubmitThenEvalRunsUnderTheAdmissionContract)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    const std::string bytecode = assembleBytecode(kTinyKernel);
    SubmitKernelRequest submit;
    submit.bytecode = bytecode;
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()) << frame.error().describe();
    ASSERT_EQ(frame.value().type, MsgType::SubmitKernelResponse);
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 1);
    EXPECT_EQ(resp.value().digest, kernelDigest(bytecode));
    EXPECT_GT(resp.value().tripBound, 0u);
    EXPECT_TRUE(resp.value().rejections.empty());

    // The admitted digest is immediately evaluable on the same
    // connection, under the certificate's runtime contract.
    EvalSubmittedRequest eval;
    eval.digest = resp.value().digest;
    client.send(
        encodeFrame(MsgType::EvalSubmittedRequest, eval.encode()));
    const auto evalFrame = client.readFrame();
    ASSERT_TRUE(evalFrame.ok());
    ASSERT_EQ(evalFrame.value().type, MsgType::EvalSubmittedResponse);
    const auto evalResp =
        EvalSubmittedResponse::decode(evalFrame.value().payload);
    ASSERT_TRUE(evalResp.ok()) << evalResp.error().message;
    EXPECT_GT(evalResp.value().cycles, 0u);
    EXPECT_GT(evalResp.value().maxWarpIssue, 0u);
    EXPECT_LE(evalResp.value().maxWarpIssue, resp.value().tripBound);
}

TEST(Server, OptimizeOnSubmitStoresAValidatedSecondKernel)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    // A deliberately unoptimized kernel: the add folds to an
    // immediate and its operand's producer dies.
    const std::string bytecode =
        assembleBytecode(".kernel foldme\n"
                         ".launch 1 32\n"
                         ".shared 256\n"
                         "    S2R R1, SR_TIDX\n"
                         "    AND R2, R1, #31\n"
                         "    SHL R2, R2, #2\n"
                         "    MOV R3, #5\n"
                         "    IADD R4, R3, #7\n"
                         "    STS [R2 + 0], R4\n"
                         "    EXIT\n");
    SubmitKernelRequest submit;
    submit.bytecode = bytecode;
    submit.optimize = 1;
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok()) << frame.error().describe();
    ASSERT_EQ(frame.value().type, MsgType::SubmitKernelResponse);
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 1);
    EXPECT_EQ(resp.value().optimizeRequested, 1);
    ASSERT_EQ(resp.value().optimized, 1);
    EXPECT_EQ(resp.value().digest, kernelDigest(bytecode));
    ASSERT_FALSE(resp.value().optimizedDigest.empty());
    EXPECT_NE(resp.value().optimizedDigest, resp.value().digest);

    // Both digests are evaluable: the original admission stands and
    // the optimized program is a first-class stored kernel.
    for (const std::string &digest :
         {resp.value().digest, resp.value().optimizedDigest}) {
        EvalSubmittedRequest eval;
        eval.digest = digest;
        client.send(
            encodeFrame(MsgType::EvalSubmittedRequest, eval.encode()));
        const auto evalFrame = client.readFrame();
        ASSERT_TRUE(evalFrame.ok()) << digest;
        ASSERT_EQ(evalFrame.value().type,
                  MsgType::EvalSubmittedResponse)
            << digest;
        const auto evalResp =
            EvalSubmittedResponse::decode(evalFrame.value().payload);
        ASSERT_TRUE(evalResp.ok()) << digest;
        EXPECT_GT(evalResp.value().cycles, 0u) << digest;
    }

    const std::string text = server.renderMetrics();
    for (const char *needle :
         {"bvfd_kernels_optimize_requested_total 1",
          "bvfd_kernels_optimize_accepted_total 1",
          "bvfd_kernels_optimize_fallback_total 0",
          "bvfd_kernels_optimizer_rewrites_total{pass="
          "\"constant-fold\"} 1",
          "bvfd_kernels_resident 2"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Server, OptimizeOnSubmitFallsBackToTheOriginalAdmission)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    // An already-optimal kernel (every instruction feeds the store):
    // the optimizer proves nothing and the response reports an honest
    // fallback.
    SubmitKernelRequest submit;
    submit.bytecode = assembleBytecode(".kernel minimal\n"
                                       ".launch 1 32\n"
                                       ".shared 256\n"
                                       "    S2R R1, SR_TIDX\n"
                                       "    AND R2, R1, #31\n"
                                       "    SHL R2, R2, #2\n"
                                       "    STS [R2 + 0], R1\n"
                                       "    EXIT\n");
    submit.optimize = 1;
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 1);
    EXPECT_EQ(resp.value().optimizeRequested, 1);
    EXPECT_EQ(resp.value().optimized, 0);
    EXPECT_TRUE(resp.value().optimizedDigest.empty());

    const std::string text = server.renderMetrics();
    for (const char *needle :
         {"bvfd_kernels_optimize_requested_total 1",
          "bvfd_kernels_optimize_accepted_total 0",
          "bvfd_kernels_optimize_fallback_total 1",
          "bvfd_kernels_resident 1"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

// The suite in four entries, so each stays inside the per-test timeout
// under the thread sanitizer.
class OptimizeOnSubmit : public ::testing::TestWithParam<tests::KernelShard>
{
};

TEST_P(OptimizeOnSubmit, RunsOneFixpointPerKernel)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    std::uint64_t steps = 0;
    for (int i = GetParam().begin; i < GetParam().end; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const workload::AppSpec &spec = workload::evaluationSuite()[idx];
        ASSERT_EQ(spec.abbr, tests::kAppAnalysisSteps[idx].abbr);
        steps += tests::kAppAnalysisSteps[idx].steps;

        SubmitKernelRequest submit;
        submit.bytecode = isa::encodeProgram(workload::buildProgram(spec));
        submit.optimize = 1;
        client.send(
            encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));
        const auto frame = client.readFrame();
        ASSERT_TRUE(frame.ok()) << spec.abbr;
        const auto resp =
            SubmitKernelResponse::decode(frame.value().payload);
        ASSERT_TRUE(resp.ok()) << spec.abbr;
        ASSERT_EQ(resp.value().admitted, 1) << spec.abbr;
    }

    // Admission's fixpoint is the optimizer's too: the store's step
    // counter advances by exactly one analyzeProgram per kernel.
    const std::string text = server.renderMetrics();
    const std::string needle =
        "bvfd_kernels_analysis_steps_total " + std::to_string(steps) + "\n";
    EXPECT_NE(text.find(needle), std::string::npos) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, OptimizeOnSubmit,
    ::testing::ValuesIn(
        tests::kernelShards(
            static_cast<int>(tests::kAppAnalysisSteps.size()), 4)),
    [](const ::testing::TestParamInfo<tests::KernelShard> &info) {
        return "Apps" + std::to_string(info.param.begin) + "to"
               + std::to_string(info.param.end - 1);
    });

TEST(Server, RejectedKernelNeverGainsADigestAndKeepsTheConnection)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    SubmitKernelRequest submit;
    submit.bytecode = assembleBytecode(".kernel spin\n"
                                       ".launch 1 32\n"
                                       "L0:\n"
                                       "    BRA L0, join=L1\n"
                                       "L1:\n"
                                       "    EXIT\n");
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));

    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame.value().type, MsgType::SubmitKernelResponse);
    const auto resp = SubmitKernelResponse::decode(frame.value().payload);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().admitted, 0);
    EXPECT_TRUE(resp.value().digest.empty());
    ASSERT_FALSE(resp.value().rejections.empty());
    EXPECT_EQ(resp.value().rejections[0].reason,
              static_cast<std::uint8_t>(
                  analysis::RejectReason::BudgetExceeded));

    // Evaluating the digest the kernel WOULD have had is a semantic
    // error: the reject really kept it out of the store.
    EvalSubmittedRequest eval;
    eval.digest = kernelDigest(submit.bytecode);
    client.send(
        encodeFrame(MsgType::EvalSubmittedRequest, eval.encode()));
    const auto evalFrame = client.readFrame();
    ASSERT_TRUE(evalFrame.ok());
    EXPECT_EQ(evalFrame.value().type, MsgType::ErrorResponse);

    // Semantic errors keep the connection alive.
    client.send(pingBytes(11));
    const auto pong = client.readFrame();
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().type, MsgType::PingResponse);
}

TEST(Server, UndecodableBytecodeIsAnErrorResponse)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    SubmitKernelRequest submit;
    submit.bytecode = "definitely not a BVFK frame";
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));
    const auto frame = client.readFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value().type, MsgType::ErrorResponse);
}

TEST(Server, KernelStoreCountersRideAlongInMetrics)
{
    Server server(smallServer());
    ASSERT_TRUE(server.start().ok());

    TestClient client(server.port());
    SubmitKernelRequest submit;
    submit.bytecode = assembleBytecode(kTinyKernel);
    client.send(
        encodeFrame(MsgType::SubmitKernelRequest, submit.encode()));
    ASSERT_TRUE(client.readFrame().ok());

    const std::string text = server.renderMetrics();
    for (const char *needle :
         {"bvfd_kernels_submitted_total 1",
          "bvfd_kernels_admitted_total 1", "bvfd_kernels_resident 1",
          "bvfd_kernels_decode_failures_total 0",
          "bvfd_kernels_rejected_total{reason=\"budget-exceeded\"} 0",
          "bvfd_requests_total{type=\"submit_kernel\"} 1",
          "bvfd_responses_total{type=\"submit_kernel\"} 1"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

// --- The config a request is served under ------------------------------

/** Handle @p payload in-process and decode the @p Response it must be. */
template <typename Response>
Response
served(const RequestHandler &handler, MsgType type,
       const std::string &payload)
{
    const Frame out = handler.handle(Frame{type, payload});
    if (out.type == MsgType::ErrorResponse) {
        const auto wire = WireError::decode(out.payload);
        ADD_FAILURE() << "refused: "
                      << (wire.ok() ? wire.value().message : "?");
        return {};
    }
    const auto decoded = Response::decode(out.payload);
    EXPECT_TRUE(decoded.ok());
    return decoded.ok() ? decoded.value() : Response{};
}

/** The error code of the ErrorResponse @p payload must draw. */
ErrorCode
refusal(const RequestHandler &handler, MsgType type,
        const std::string &payload)
{
    const Frame out = handler.handle(Frame{type, payload});
    EXPECT_EQ(out.type, MsgType::ErrorResponse);
    const auto wire = WireError::decode(out.payload);
    return wire.ok() ? static_cast<ErrorCode>(wire.value().code)
                     : ErrorCode::Failed;
}

/**
 * The local reference for an ecc=1 request on the baseline machine,
 * set up by hand rather than through the wire mapping: check bits
 * accounted by the run and priced by the pricing.
 */
struct LocalEcc
{
    core::ExperimentDriver driver{gpu::baselineConfig()};
    core::RunOptions options;
    core::Pricing pricing;

    LocalEcc()
    {
        options.fault.ecc = fault::EccScheme::Secded72_64;
        pricing.cellKind = circuit::CellKind::Sram6T; // wire cell 0
        pricing.ecc = true;
    }
};

TEST(ServedConfig, ChipEnergyWithEccAccountsTheCheckBits)
{
    const RequestHandler handler;
    ChipEnergyRequest req;
    req.query.abbr = "GAU";
    req.ecc = 1;
    const auto resp = served<ChipEnergyResponse>(
        handler, MsgType::ChipEnergyRequest, req.encode());

    const LocalEcc local;
    const core::AppEnergy want = local.driver.evaluate(
        local.driver.runApp(workload::findApp("GAU"), local.options),
        local.pricing);
    EXPECT_EQ(resp.chipEnergy, want.chipTotals());
    EXPECT_EQ(resp.bvfUnitsEnergy, want.bvfUnitsTotals());
}

TEST(ServedConfig, EvalSubmittedWithEccAccountsTheCheckBits)
{
    const RequestHandler handler;
    const std::string bytecode = assembleBytecode(kTinyKernel);
    SubmitKernelRequest submit;
    submit.bytecode = bytecode;
    const auto admitted = served<SubmitKernelResponse>(
        handler, MsgType::SubmitKernelRequest, submit.encode());
    ASSERT_EQ(admitted.admitted, 1);

    EvalSubmittedRequest req;
    req.digest = admitted.digest;
    const auto plain = served<EvalSubmittedResponse>(
        handler, MsgType::EvalSubmittedRequest, req.encode());
    req.ecc = 1;
    const auto resp = served<EvalSubmittedResponse>(
        handler, MsgType::EvalSubmittedRequest, req.encode());

    const LocalEcc local;
    auto program = isa::decodeProgram(bytecode);
    ASSERT_TRUE(program.ok());
    const core::AppEnergy want = local.driver.evaluate(
        local.driver.runProgram(std::move(program.value()), local.options),
        local.pricing);
    EXPECT_EQ(resp.chipEnergy, want.chipTotals());
    EXPECT_EQ(resp.bvfUnitsEnergy, want.bvfUnitsTotals());
    EXPECT_NE(resp.chipEnergy, plain.chipEnergy);
}

TEST(ServedConfig, Bvf6tIsServedOnlyWithinItsReliabilityLimit)
{
    const RequestHandler handler;
    ChipEnergyRequest req;
    req.query.abbr = "GAU";
    req.cell = static_cast<std::uint8_t>(circuit::CellKind::SramBvf6T);

    // Past 16 cells/bitline every read 0 flips: a fault study, and the
    // wire carries no fault seed.
    req.cellsBitline = 128;
    EXPECT_EQ(refusal(handler, MsgType::ChipEnergyRequest, req.encode()),
              ErrorCode::InvalidArgument);
    EvalSubmittedRequest eval;
    eval.digest = "any";
    eval.cell = req.cell;
    eval.cellsBitline = 128;
    EXPECT_EQ(
        refusal(handler, MsgType::EvalSubmittedRequest, eval.encode()),
        ErrorCode::InvalidArgument);

    req.cellsBitline = 8;
    const auto resp = served<ChipEnergyResponse>(
        handler, MsgType::ChipEnergyRequest, req.encode());
    EXPECT_GT(resp.cycles, 0u);
}

} // namespace
} // namespace bvf::server
