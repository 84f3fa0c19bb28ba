/**
 * @file
 * bvfd's static answers for suite apps: every StaticAdvice answer,
 * memoized per process, and every StaticQuery answer, computed afresh,
 * is byte-identical to a fresh analysis of the suite program; a field
 * the answer does not read never changes it; a repeated advice runs no
 * fixpoint while each query runs one; an unknown app adds no entry;
 * and concurrent first requests agree.
 *
 * The memo is shared by every test in the process, so each check reads
 * the counters as deltas.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "analysis/predictor.hh"
#include "analysis_pins.hh"
#include "core/eval_config.hh"
#include "gpu/gpu_config.hh"
#include "isa/encoding.hh"
#include "server/handler.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "server/static_answers.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

namespace bvf::server
{
namespace
{

constexpr std::uint8_t kLastSched =
    static_cast<std::uint8_t>(core::kSchedSpellings.size() - 1);

/** The payload of @p handler's answer, a @p responseType frame. */
template <typename Request>
std::string
answer(const RequestHandler &handler, MsgType type, MsgType responseType,
       const Request &request)
{
    const Frame out = handler.handle(Frame{type, request.encode()});
    EXPECT_EQ(out.type, responseType);
    if (out.type == MsgType::ErrorResponse) {
        const auto wire = WireError::decode(out.payload);
        ADD_FAILURE() << "refused: "
                      << (wire.ok() ? wire.value().message : "?");
    }
    return out.payload;
}

std::string
adviceBytes(const RequestHandler &handler, const AppQuery &query)
{
    StaticAdviceRequest req;
    req.query = query;
    return answer(handler, MsgType::StaticAdviceRequest,
                  MsgType::StaticAdviceResponse, req);
}

std::string
queryBytes(const RequestHandler &handler, const AppQuery &query)
{
    StaticQueryRequest req;
    req.query = query;
    return answer(handler, MsgType::StaticQueryRequest,
                  MsgType::StaticQueryResponse, req);
}

AppQuery
appQuery(std::string abbr, std::uint8_t arch, std::uint8_t dynamicIsa = 0,
         std::uint32_t vsPivot = 21, std::uint8_t sched = 0)
{
    AppQuery q;
    q.abbr = std::move(abbr);
    q.arch = arch;
    q.sched = sched;
    q.vsPivot = vsPivot;
    q.dynamicIsa = dynamicIsa;
    return q;
}

/** Memo counters moved since construction. */
struct Delta
{
    StaticAnswerStats before = staticAnswerStats();

    std::size_t
    entries() const
    {
        return staticAnswerStats().entries - before.entries;
    }

    std::uint64_t
    steps() const
    {
        return staticAnswerStats().analysisSteps - before.analysisSteps;
    }
};

std::uint64_t
pinnedSteps(const std::string &abbr)
{
    for (const tests::AppSteps &app : tests::kAppAnalysisSteps) {
        if (app.abbr == abbr)
            return app.steps;
    }
    ADD_FAILURE() << "no pinned steps for " << abbr;
    return 0;
}

// --- Every app and arch: served == fresh -----------------------------

// One entry per app and arch, so each stays inside the per-test
// timeout under the thread sanitizer.
class MemoEqualsFresh
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(MemoEqualsFresh, AdviceAndQueryEqualAFreshAnalysis)
{
    const std::size_t app = std::get<0>(GetParam());
    const auto arch = static_cast<std::uint8_t>(std::get<1>(GetParam()));
    const workload::AppSpec &spec = workload::evaluationSuite()[app];
    const RequestHandler handler;

    // The fresh side: one build and one fixpoint, every answer derived
    // from them directly.
    const isa::Program program = workload::buildProgram(spec);
    const analysis::AnalysisResult analysis =
        analysis::analyzeProgram(program);
    ASSERT_EQ(analysis.steps, pinnedSteps(spec.abbr));
    const std::uint32_t lineBytes = gpu::baselineConfig().lineBytes;
    const auto freshAdvice = [&](std::uint8_t a) {
        analysis::AdvisorOptions opts;
        opts.arch = static_cast<isa::GpuArch>(a);
        opts.lineBytes = lineBytes;
        return adviceResponse(analysis::adviseProgram(program, analysis, opts))
            .encode();
    };
    const auto freshQuery = [&](std::uint8_t dyn) {
        analysis::PredictorOptions opts;
        opts.arch = static_cast<isa::GpuArch>(arch);
        opts.isaMask =
            dyn ? isa::kernelPreferenceMask(opts.arch, program.body) : 0;
        opts.lineBytes = lineBytes;
        return queryResponse(analysis::predictDensity(program, analysis, opts))
            .encode();
    };

    // The neighbouring arch first, so that an advice key missing the
    // arch would hand its answer back below, inside this one process.
    const Delta first;
    const auto other =
        static_cast<std::uint8_t>((arch + 1) % core::kArchSpellings.size());
    EXPECT_EQ(adviceBytes(handler, appQuery(spec.abbr, other)),
              freshAdvice(other));
    const std::string advice = adviceBytes(handler, appQuery(spec.abbr, arch));
    EXPECT_EQ(advice, freshAdvice(arch));
    // Each new entry ran exactly one fixpoint of this program.
    EXPECT_LE(first.entries(), 2u);
    EXPECT_EQ(first.steps(), first.entries() * analysis.steps);

    // Repeats, and requests that differ only in fields the advice does
    // not read, hit the memo: same bytes, no fixpoint, no entry.
    const Delta again;
    EXPECT_EQ(adviceBytes(handler, appQuery(spec.abbr, arch)), advice);
    EXPECT_EQ(adviceBytes(handler,
                          appQuery(spec.abbr, arch, 1, 7, kLastSched)),
              advice);
    EXPECT_EQ(again.entries(), 0u);
    EXPECT_EQ(again.steps(), 0u);

    // A query is answered afresh: one fixpoint each, no entry, and
    // neither `sched` nor `vsPivot` reaches the answer.
    const Delta queries;
    EXPECT_EQ(queryBytes(handler, appQuery(spec.abbr, arch, 0)),
              freshQuery(0));
    const std::string query = queryBytes(handler, appQuery(spec.abbr, arch, 1));
    EXPECT_EQ(query, freshQuery(1));
    EXPECT_EQ(queryBytes(handler,
                         appQuery(spec.abbr, arch, 1, 0, kLastSched)),
              query);
    EXPECT_EQ(queryBytes(handler, appQuery(spec.abbr, arch, 1, 31)), query);
    EXPECT_EQ(queries.entries(), 0u);
    EXPECT_EQ(queries.steps(), 4 * analysis.steps);
}

/** Test name suffix, e.g. "FFT_pascal". */
std::string
appArchName(const ::testing::TestParamInfo<MemoEqualsFresh::ParamType> &info)
{
    const std::size_t app = std::get<0>(info.param);
    const auto arch = static_cast<std::size_t>(std::get<1>(info.param));
    return workload::evaluationSuite()[app].abbr + "_"
           + std::string(core::kArchSpellings[arch].name);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, MemoEqualsFresh,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, tests::kAppAnalysisSteps.size()),
        ::testing::Range<int>(
            0, static_cast<int>(core::kArchSpellings.size()))),
    appArchName);

// --- Unknown apps -----------------------------------------------------

TEST(StaticAnswers, UnknownAppIsAnErrorAndAddsNoEntry)
{
    const RequestHandler handler;
    const Delta delta;
    for (const MsgType type :
         {MsgType::StaticAdviceRequest, MsgType::StaticQueryRequest}) {
        StaticAdviceRequest req; // the two requests share one layout
        req.query = appQuery("NOPE", 3);
        const Frame out = handler.handle(Frame{type, req.encode()});
        ASSERT_EQ(out.type, MsgType::ErrorResponse);
        const auto wire = WireError::decode(out.payload);
        ASSERT_TRUE(wire.ok());
        EXPECT_EQ(static_cast<ErrorCode>(wire.value().code),
                  ErrorCode::InvalidArgument);
        EXPECT_NE(wire.value().message.find(
                      "unknown application abbreviation 'NOPE'"),
                  std::string::npos)
            << wire.value().message;
    }
    EXPECT_EQ(delta.entries(), 0u);
    EXPECT_EQ(delta.steps(), 0u);

    // A valid app after them is answered and counted as usual.
    const std::string kmn = adviceBytes(handler, appQuery("KMN", 2));
    EXPECT_LE(delta.entries(), 1u);
    EXPECT_EQ(delta.steps(), delta.entries() * pinnedSteps("KMN"));
    const Delta repeat;
    EXPECT_EQ(adviceBytes(handler, appQuery("KMN", 2)), kmn);
    EXPECT_EQ(repeat.entries(), 0u);
    EXPECT_EQ(repeat.steps(), 0u);
}

TEST(StaticAnswers, CountersRideAlongInMetrics)
{
    const RequestHandler handler;
    (void)adviceBytes(handler, appQuery("NN", 0));
    ServerOptions options;
    options.workers = 1;
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const StaticAnswerStats stats = staticAnswerStats();
    const std::string text = server.renderMetrics();
    const std::string needle = "bvfd_static_analysis_steps_total "
                               + std::to_string(stats.analysisSteps) + "\n";
    EXPECT_NE(text.find(needle), std::string::npos) << text;
    EXPECT_GE(stats.analysisSteps, pinnedSteps("NN"));
}

// --- Concurrent first requests ----------------------------------------

TEST(StaticAnswers, ConcurrentFirstAdviceRequestsAgree)
{
    constexpr int kThreads = 4;
    const RequestHandler handler;
    const AppQuery query = appQuery("TRI", 1);
    const Delta delta;

    std::vector<std::string> answers(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            answers[static_cast<std::size_t>(t)] =
                adviceBytes(handler, query);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(answers[static_cast<std::size_t>(t)], answers[0]);
    EXPECT_FALSE(answers[0].empty());
    // At most one fixpoint per thread, and one entry however many ran.
    const std::uint64_t steps = pinnedSteps("TRI");
    EXPECT_LE(delta.entries(), 1u);
    EXPECT_LE(delta.steps(), kThreads * steps);
    EXPECT_EQ(delta.steps() % steps, 0u);
    if (delta.entries() == 0)
        EXPECT_EQ(delta.steps(), 0u); // memoized before this test ran
    else
        EXPECT_GE(delta.steps(), steps);
}

} // namespace
} // namespace bvf::server
