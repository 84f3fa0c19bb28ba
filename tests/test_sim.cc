/**
 * @file
 * Simulation-harness tests: the SimClock event queue, regression
 * scenarios for fleet bugs the harness caught (each drives one exact
 * fault through SimNet's scripted hook), same-seed determinism of the
 * scenario runner, and a small always-on sweep. The heavyweight
 * 200-seed sweep runs in CI via bvf_simsweep; these stay fast.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "fleet/coordinator.hh"
#include "server/handler.hh"
#include "server/protocol.hh"
#include "sim/scenario.hh"
#include "sim/sim_clock.hh"
#include "sim/sim_net.hh"

namespace bvf::sim
{
namespace
{

using namespace std::chrono_literals;
using server::Frame;
using server::MsgType;

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/bvf-sim-XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        dir_ = made ? made : "/tmp";
    }

    ~TempDir()
    {
        removeTree(dir_);
    }

    const std::string &str() const { return dir_; }

  private:
    static void
    removeTree(const std::string &dir)
    {
        if (DIR *d = ::opendir(dir.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name == "." || name == "..")
                    continue;
                const std::string path = dir + "/" + name;
                if (e->d_type == DT_DIR)
                    removeTree(path);
                else
                    ::unlink(path.c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir.c_str());
    }

    std::string dir_;
};

// --- SimClock ---------------------------------------------------------

TEST(SimClock, AdvanceFiresEventsInTimeOrder)
{
    SimClock clock;
    std::vector<int> fired;
    clock.schedule(30ms, [&] { fired.push_back(3); });
    clock.schedule(10ms, [&] { fired.push_back(1); });
    clock.schedule(20ms, [&] { fired.push_back(2); });

    clock.advance(15ms);
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(clock.elapsed(), 15ms);

    clock.advance(100ms);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(clock.elapsed(), 115ms);
}

TEST(SimClock, EventsSeeTheirOwnDueTime)
{
    SimClock clock;
    std::chrono::milliseconds seen{0};
    clock.schedule(25ms, [&] { seen = clock.elapsed(); });
    clock.advance(100ms);
    EXPECT_EQ(seen, 25ms);
}

TEST(SimClock, AnEventMayScheduleWithinTheSameAdvance)
{
    SimClock clock;
    std::vector<int> fired;
    clock.schedule(10ms, [&] {
        fired.push_back(1);
        // Due before the sweep ends: must fire inside this advance.
        clock.schedule(20ms, [&] { fired.push_back(2); });
        // Due in the past: fires too (next sweep step).
        clock.schedule(5ms, [&] { fired.push_back(3); });
    });
    clock.advance(50ms);
    EXPECT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 1);
    EXPECT_EQ(clock.elapsed(), 50ms);
}

TEST(SimClock, SleepForAdvances)
{
    SimClock clock;
    clock.sleepFor(250ms);
    EXPECT_EQ(clock.elapsed(), 250ms);
}

// --- SimNet regression scenarios --------------------------------------

/** A worker that evaluates any app to bits derived from its abbr. */
Frame
echoHandler(const Frame &request)
{
    switch (request.type) {
      case MsgType::PingRequest:
        return Frame{MsgType::PingResponse, request.payload};
      case MsgType::ChipEnergyRequest: {
        auto req = server::ChipEnergyRequest::decode(request.payload);
        if (!req.ok())
            return server::errorFrame(req.error());
        server::ChipEnergyResponse resp;
        resp.cycles = 1000
                      + static_cast<std::uint64_t>(
                          static_cast<unsigned char>(
                              req.value().query.abbr.empty()
                                  ? '\0'
                                  : req.value().query.abbr[0]));
        return Frame{MsgType::ChipEnergyResponse, resp.encode()};
      }
      default:
        return server::errorFrame(
            Error{ErrorCode::InvalidArgument, "sim: unexpected message"});
    }
}

fleet::FleetOptions
simFleet(std::size_t workers, SimClock &clock, SimNet &net)
{
    fleet::FleetOptions fo;
    fo.workers.resize(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        fo.workers[i].host = "sim";
        fo.workers[i].port = 7100 + static_cast<int>(i);
    }
    fo.requestDeadline = 250ms;
    fo.backoffBase = 5ms;
    fo.maxAttempts = 4;
    fo.breakerThreshold = 1;
    fo.breakerCooldown = 200ms;
    fo.heartbeatInterval = 0ms;
    fo.heartbeatFloor = 250ms;
    fo.clock = &clock;
    fo.dialFactory = [&net](std::size_t index,
                            const fleet::WorkerAddress &) {
        return [&net, index](std::chrono::milliseconds deadline) {
            return net.dial(index, deadline);
        };
    };
    return fo;
}

Frame
chipEnergyRequest(const std::string &abbr)
{
    server::ChipEnergyRequest req;
    req.query.abbr = abbr;
    return Frame{MsgType::ChipEnergyRequest, req.encode()};
}

/**
 * Regression (found by scenario seed 126): a bit flip in a request
 * frame's *length field* makes the worker's parser reject the frame.
 * That rejection must come back as framing damage the coordinator
 * retries elsewhere -- it must never be recorded as an application
 * verdict against the job the flip happened to hit.
 */
TEST(SimNetRegression, CorruptedLengthFieldDoesNotConvictTheJob)
{
    SimClock clock;
    SimNet net(clock, Rng(9), 2,
               [](std::size_t, const Frame &r) { return echoHandler(r); });

    int smashed = 0;
    net.setMessageFault([&smashed](std::size_t, bool isRequest,
                                   std::string &bytes) {
        if (!isRequest || smashed >= 2 || bytes.size() < 12)
            return false;
        ++smashed;
        bytes[8] ^= 0x01;  // low byte of the length field ...
        bytes[11] ^= 0x01; // ... and a high byte: far beyond the cap
        return true;
    });

    fleet::FleetOptions fo = simFleet(2, clock, net);
    fo.breakerThreshold = 3; // survive the two injected strikes
    fleet::Coordinator coord(fo);

    fleet::ExecuteInfo info;
    auto reply = coord.execute(chipEnergyRequest("AAA"), "AAA", &info);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, MsgType::ChipEnergyResponse);
    EXPECT_EQ(smashed, 2);
    EXPECT_GE(info.transportFailures, 2);
    EXPECT_EQ(info.distinctAppErrorWorkers, 0);
    EXPECT_EQ(coord.stats().quarantined, 0u);
}

/**
 * Regression: a request whose frame is intact but whose payload does
 * not decode is the client's mistake, not wire damage. Workers running
 * the real RequestHandler must answer it InvalidArgument, so the
 * coordinator records verdicts against the job. Answered Corrupt, it
 * struck both workers and dropped their connections, and the next
 * well-formed request found no live worker.
 */
TEST(SimNetRegression, MalformedRequestPayloadIsAVerdictNotWireDamage)
{
    SimClock clock;
    const server::RequestHandler handler;
    SimNet net(clock, Rng(11), 2,
               [&handler](std::size_t, const Frame &r) {
                   return handler.handle(r);
               });
    fleet::FleetOptions fo = simFleet(2, clock, net);
    fo.breakerThreshold = 3;
    fleet::Coordinator coord(fo);

    Frame bad = chipEnergyRequest("KMN");
    bad.payload += '\0'; // one trailing byte; the frame CRC still holds
    fleet::ExecuteInfo info;
    auto reply = coord.execute(bad, "KMN", &info);
    ASSERT_TRUE(reply.ok()) << reply.error().describe();
    ASSERT_EQ(reply.value().type, MsgType::ErrorResponse);
    const auto wire = server::WireError::decode(reply.value().payload);
    ASSERT_TRUE(wire.ok());
    EXPECT_EQ(wire.value().code,
              static_cast<std::uint8_t>(ErrorCode::InvalidArgument));
    EXPECT_EQ(wire.value().message, "payload has trailing bytes");
    EXPECT_EQ(info.transportFailures, 0);
    EXPECT_EQ(info.distinctAppErrorWorkers, 2);

    server::Ping ping;
    ping.nonce = 7;
    auto pong =
        coord.execute(Frame{MsgType::PingRequest, ping.encode()}, "ping");
    ASSERT_TRUE(pong.ok()) << pong.error().describe();
    EXPECT_EQ(pong.value().type, MsgType::PingResponse);
}

/**
 * Regression, the same fault one layer in: kernel bytecode that does
 * not decode arrived inside an intact frame, so it is a verdict on the
 * kernel, whatever the bytecode decoder calls the damage.
 */
TEST(SimNetRegression, UndecodableKernelBytecodeIsAVerdictNotWireDamage)
{
    SimClock clock;
    const server::RequestHandler handler;
    SimNet net(clock, Rng(13), 2,
               [&handler](std::size_t, const Frame &r) {
                   return handler.handle(r);
               });
    fleet::FleetOptions fo = simFleet(2, clock, net);
    fo.breakerThreshold = 3;
    fleet::Coordinator coord(fo);

    server::SubmitKernelRequest submit;
    submit.bytecode = "BVFK, but only the magic";
    fleet::ExecuteInfo info;
    auto reply = coord.execute(
        Frame{MsgType::SubmitKernelRequest, submit.encode()}, "kernel",
        &info);
    ASSERT_TRUE(reply.ok()) << reply.error().describe();
    ASSERT_EQ(reply.value().type, MsgType::ErrorResponse);
    const auto wire = server::WireError::decode(reply.value().payload);
    ASSERT_TRUE(wire.ok());
    EXPECT_EQ(wire.value().code,
              static_cast<std::uint8_t>(ErrorCode::InvalidArgument));
    EXPECT_EQ(info.transportFailures, 0);
    EXPECT_EQ(info.distinctAppErrorWorkers, 2);
}

/**
 * Regression: an open breaker means live traffic was failing. A
 * heartbeat pong proves liveness, not capacity -- it must not close
 * the breaker and re-flood a saturated worker.
 */
TEST(SimNetRegression, HeartbeatPongLeavesAnOpenBreakerOpen)
{
    SimClock clock;
    bool overloaded = true;
    SimNet net(clock, Rng(5), 1,
               [&overloaded](std::size_t, const Frame &r) {
                   if (overloaded && r.type == MsgType::ChipEnergyRequest) {
                       return server::errorFrame(Error{
                           ErrorCode::Overloaded, "sim: saturated"});
                   }
                   return echoHandler(r);
               });

    fleet::Coordinator coord(simFleet(1, clock, net));

    auto reply = coord.execute(chipEnergyRequest("AAA"), "AAA");
    ASSERT_FALSE(reply.ok());
    ASSERT_TRUE(coord.breakerOpen(0));

    // The worker answers pings happily; the breaker must stay open.
    coord.probeWorkersOnce();
    EXPECT_TRUE(coord.breakerOpen(0));

    // Only a real request outcome may close it: after the cooldown the
    // half-open probe carries live traffic, succeeds, and closes.
    overloaded = false;
    clock.advance(250ms);
    auto healed = coord.execute(chipEnergyRequest("AAA"), "AAA");
    ASSERT_TRUE(healed.ok());
    EXPECT_FALSE(coord.breakerOpen(0));
}

/**
 * Regression: a babbling worker that repeats a response must not poison
 * the connection pool -- leftover bytes after a parsed reply mean the
 * stream is desynchronized and the connection must be discarded, or the
 * *next* request would read the stale duplicate as its answer.
 */
TEST(SimNetRegression, DuplicatedResponseNeverAnswersALaterRequest)
{
    SimClock clock;
    SimNet net(clock, Rng(7), 1,
               [](std::size_t, const Frame &r) { return echoHandler(r); });
    net.faults().duplicateResponse = 1.0; // every response arrives twice

    fleet::Coordinator coord(simFleet(1, clock, net));

    for (const std::string abbr : {"AAA", "BBB", "CCC"}) {
        auto reply = coord.execute(chipEnergyRequest(abbr), abbr);
        ASSERT_TRUE(reply.ok()) << abbr;
        ASSERT_EQ(reply.value().type, MsgType::ChipEnergyResponse);
        auto resp =
            server::ChipEnergyResponse::decode(reply.value().payload);
        ASSERT_TRUE(resp.ok());
        EXPECT_EQ(resp.value().cycles,
                  1000 + static_cast<std::uint64_t>(
                             static_cast<unsigned char>(abbr[0])))
            << abbr;
    }
}

// --- Scenario runner --------------------------------------------------

TEST(Scenario, SameSeedReplaysByteForByte)
{
    TempDir a, b;
    ScenarioOptions oa;
    oa.seed = 42;
    oa.scratchDir = a.str();
    ScenarioOptions ob = oa;
    ob.scratchDir = b.str();

    auto ra = runScenario(oa);
    auto rb = runScenario(ob);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_TRUE(ra.value().ok) << ra.value().violation;
    EXPECT_EQ(ra.value().ok, rb.value().ok);
    EXPECT_EQ(ra.value().identical, rb.value().identical);
    EXPECT_EQ(ra.value().cleanFailure, rb.value().cleanFailure);
    EXPECT_EQ(ra.value().phases, rb.value().phases);
    EXPECT_EQ(ra.value().kills, rb.value().kills);
    EXPECT_EQ(ra.value().transportOps, rb.value().transportOps);
}

TEST(Scenario, SweepHoldsTheContractAcrossSeeds)
{
    TempDir dir;
    int identical = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        ScenarioOptions o;
        o.seed = seed;
        o.scratchDir = dir.str();
        auto ran = runScenario(o);
        ASSERT_TRUE(ran.ok()) << "seed " << seed;
        EXPECT_TRUE(ran.value().ok)
            << "seed " << seed << ": " << ran.value().violation;
        identical += ran.value().identical ? 1 : 0;
    }
    EXPECT_EQ(identical, 25);
}

} // namespace
} // namespace bvf::sim
