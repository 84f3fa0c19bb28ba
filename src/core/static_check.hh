/**
 * @file
 * Bridge between the static analyzer and the dynamic simulator.
 *
 * Converts an EnergyAccountant's per-unit, per-scenario bit statistics
 * into the plain observation tuples analysis::crossCheck consumes, and
 * packages the whole static pipeline (interpret, lint, predict) with
 * the knobs a given run actually used so predictions and observations
 * are comparable. Also checks the static pivot advice against a
 * dynamic sweep of all 32 VS register pivots.
 */

#ifndef BVF_CORE_STATIC_CHECK_HH
#define BVF_CORE_STATIC_CHECK_HH

#include <vector>

#include "analysis/advisor.hh"
#include "analysis/check.hh"
#include "analysis/interpreter.hh"
#include "analysis/predictor.hh"
#include "core/accountant.hh"
#include "core/pivot_sweep.hh"
#include "gpu/gpu_config.hh"
#include "isa/program.hh"

namespace bvf::core
{

/** The full static pipeline output for one program. */
struct StaticReport
{
    analysis::AnalysisResult analysis;
    analysis::StaticPrediction prediction;
};

/**
 * Run the abstract interpreter and density predictor with knobs that
 * mirror a run under @p config. @p isaMask must be the mask the
 * accountant ends up using (EnergyAccountant::isaMask()); pass 0 for
 * the static Table 2 mask of the configured architecture.
 */
StaticReport analyzeStatic(const isa::Program &program,
                           const gpu::GpuConfig &config,
                           Word64 isaMask = 0);

/** Flatten an accountant's encoded bit statistics into check tuples. */
std::vector<analysis::ObservedStream> observedStreams(
    const EnergyAccountant &accountant);

/** Flatten an accountant's NoC payload statistics into check tuples. */
std::vector<analysis::ObservedNoc> observedNoc(
    const EnergyAccountant &accountant);

/**
 * Cross-check @p accountant against @p report. Returns one message per
 * violation; empty means every observed ratio sits inside its proven
 * interval.
 */
std::vector<std::string> crossCheckRun(const StaticReport &report,
                                       const EnergyAccountant &accountant);

/**
 * Cross-check the static pivot advice against a dynamic sweep of the
 * same program: every pivot's measured density must sit inside its
 * proven bound, and the dynamically best pivot may beat the advised
 * one by at most the proven slack. Returns one message per violation;
 * empty means the advice holds.
 */
std::vector<std::string> crossCheckAdvice(
    const analysis::StaticAdvice &advice, const PivotSweepSink &sweep);

} // namespace bvf::core

#endif // BVF_CORE_STATIC_CHECK_HH
