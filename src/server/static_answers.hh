/**
 * @file
 * bvfd's static answers for suite apps; advice memoized per process.
 *
 * StaticAdvice and StaticQuery name a compiled-in suite app, and their
 * answers are pure functions of that app's program and a few machine
 * fields. The advice is computed once per process and kept in its
 * small wire form, keyed by exactly the fields it reads: app and arch,
 * 58 x 4 entries. Both are range-checked when the request decodes, so
 * the memo is bounded by construction and never evicts. Its scope is
 * the process, like workload::evaluationSuite(), not a Server: the
 * answers come from compiled-in data, and a process that starts one
 * Server after another (bench_pipeline, the tests) keeps what it
 * learned. The built programs themselves are never kept -- the suite's
 * memory images alone total 42 MB.
 *
 * A StaticQuery is computed afresh on every request; its fixpoint
 * steps still count towards the step counter.
 *
 * All functions are thread-safe. Concurrent misses on one key may each
 * compute the answer; the first stored wins, and every caller gets
 * identical bytes either way.
 */

#ifndef BVF_SERVER_STATIC_ANSWERS_HH
#define BVF_SERVER_STATIC_ANSWERS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/advisor.hh"
#include "analysis/predictor.hh"
#include "server/protocol.hh"

namespace bvf::server
{

/**
 * The StaticAdvice answer for @p query's app and arch. An unknown
 * abbreviation fatal()s before the memo is touched, so call this under
 * a ScopedFatalTrap, as the request handler does.
 */
StaticAdviceResponse staticAdvice(const AppQuery &query);

/**
 * The StaticQuery answer for @p query, computed afresh. Fatal()s on an
 * unknown abbreviation, as staticAdvice().
 */
StaticQueryResponse staticQuery(const AppQuery &query);

/** The wire form of an advisor result. */
StaticAdviceResponse adviceResponse(const analysis::StaticAdvice &advice);

/** The wire form of a density prediction. */
StaticQueryResponse queryResponse(
    const analysis::StaticPrediction &prediction);

/** What the memo holds and what static answers cost, process-wide. */
struct StaticAnswerStats
{
    std::size_t entries = 0; //!< advice answers memoized
    /** AnalysisResult::steps of every fixpoint run to answer. */
    std::uint64_t analysisSteps = 0;
};

StaticAnswerStats staticAnswerStats();

/** The memo's step counter in Prometheus text format. */
std::string renderStaticAnswerMetrics();

} // namespace bvf::server

#endif // BVF_SERVER_STATIC_ANSWERS_HH
