/**
 * @file
 * Static answer memo implementation.
 */

#include "server/static_answers.hh"

#include <map>
#include <mutex>
#include <utility>

#include "analysis/interpreter.hh"
#include "common/logging.hh"
#include "core/static_check.hh"
#include "gpu/gpu_config.hh"
#include "isa/encoding.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

namespace bvf::server
{

namespace
{

using AdviceKey = std::pair<std::size_t, std::uint8_t>; // app, arch

struct Memo
{
    std::mutex mutex;
    std::map<AdviceKey, StaticAdviceResponse> advice;
    std::uint64_t analysisSteps = 0;
};

Memo &
memo()
{
    static Memo m;
    return m;
}

/** @p abbr's position in the suite; fatal()s on an unknown app. */
std::size_t
appIndex(const std::string &abbr)
{
    const workload::AppSpec &spec = workload::findApp(abbr);
    return static_cast<std::size_t>(&spec
                                    - workload::evaluationSuite().data());
}

StaticQueryResponse::Bound
wireBound(const analysis::DensityBound &b)
{
    return {b.lo, b.hi, static_cast<std::uint8_t>(b.any ? 1 : 0)};
}

} // namespace

StaticAdviceResponse
staticAdvice(const AppQuery &query)
{
    const std::size_t app = appIndex(query.abbr);
    const AdviceKey key{app, query.arch};
    Memo &m = memo();
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        const auto it = m.advice.find(key);
        if (it != m.advice.end())
            return it->second;
    }

    // A miss computes outside the lock and stores its answer unless a
    // concurrent miss stored one first.
    const isa::Program program =
        workload::buildProgram(workload::evaluationSuite()[app]);
    analysis::AdvisorOptions opts;
    opts.arch = static_cast<isa::GpuArch>(query.arch);
    opts.lineBytes = gpu::baselineConfig().lineBytes;
    const analysis::AnalysisResult analysis =
        analysis::analyzeProgram(program);
    StaticAdviceResponse answer =
        adviceResponse(analysis::adviseProgram(program, analysis, opts));
    std::lock_guard<std::mutex> lock(m.mutex);
    m.analysisSteps += analysis.steps;
    return m.advice.try_emplace(key, std::move(answer)).first->second;
}

StaticQueryResponse
staticQuery(const AppQuery &query)
{
    const workload::AppSpec &spec = workload::findApp(query.abbr);
    const core::EvalConfig eval = evalConfigOf(query);
    const gpu::GpuConfig config = eval.machine();
    const isa::Program program = workload::buildProgram(spec);

    const Word64 isaMask =
        eval.dynamicIsa ? isa::kernelPreferenceMask(config.arch, program.body)
                        : 0;
    const core::StaticReport report =
        core::analyzeStatic(program, config, isaMask);
    Memo &m = memo();
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        m.analysisSteps += report.analysis.steps;
    }
    return queryResponse(report.prediction);
}

StaticAdviceResponse
adviceResponse(const analysis::StaticAdvice &advice)
{
    StaticAdviceResponse resp;
    resp.bestPivot = static_cast<std::uint8_t>(advice.pivot.bestPivot);
    resp.provenSlack = advice.pivot.provenSlack;
    resp.affineSources =
        static_cast<std::uint32_t>(advice.pivot.affineSources);
    resp.totalSources = static_cast<std::uint32_t>(advice.pivot.totalSources);
    for (std::size_t p = 0; p < 32; ++p) {
        resp.pivotBounds[p] = wireBound(advice.pivot.bounds[p]);
        resp.pivotScores[p] = advice.pivot.score[p];
    }
    resp.defaultMask = advice.isa.defaultMask;
    resp.specializedMask = advice.isa.specializedMask;
    const auto any =
        static_cast<std::uint8_t>(advice.isa.anyInstruction ? 1 : 0);
    resp.defaultDensity = {advice.isa.defaultDensity.lo,
                           advice.isa.defaultDensity.hi, any};
    resp.specializedDensity = {advice.isa.specializedDensity.lo,
                               advice.isa.specializedDensity.hi, any};
    resp.bestScenario =
        static_cast<std::uint8_t>(coder::scenarioIndex(advice.bestScenario));
    for (const analysis::UnitPick &pick : advice.unitPicks) {
        StaticAdviceResponse::UnitPick u;
        u.unit = static_cast<std::uint8_t>(pick.unit);
        u.pick = static_cast<std::uint8_t>(coder::scenarioIndex(pick.pick));
        u.proven = static_cast<std::uint8_t>(pick.proven ? 1 : 0);
        u.nv = wireBound(pick.nv);
        u.vs = wireBound(pick.vs);
        resp.unitPicks.push_back(u);
    }
    return resp;
}

StaticQueryResponse
queryResponse(const analysis::StaticPrediction &prediction)
{
    StaticQueryResponse resp;
    resp.bestStatic = static_cast<std::uint8_t>(
        coder::scenarioIndex(prediction.bestStatic));
    for (const auto &[unit, bounds] : prediction.units) {
        StaticQueryResponse::Unit u;
        u.unit = static_cast<std::uint8_t>(unit);
        for (std::size_t i = 0; i < kScenarioSlots; ++i)
            u.bounds[i] = wireBound(bounds[i]);
        resp.units.push_back(u);
    }
    for (std::size_t i = 0; i < kScenarioSlots; ++i)
        resp.noc[i] = wireBound(prediction.noc[i]);
    return resp;
}

StaticAnswerStats
staticAnswerStats()
{
    Memo &m = memo();
    std::lock_guard<std::mutex> lock(m.mutex);
    return {m.advice.size(), m.analysisSteps};
}

std::string
renderStaticAnswerMetrics()
{
    const StaticAnswerStats stats = staticAnswerStats();
    std::string out;
    out += "# HELP bvfd_static_analysis_steps_total Abstract-interpreter "
           "worklist steps run to answer StaticAdvice and StaticQuery, "
           "process-wide.\n";
    out += "# TYPE bvfd_static_analysis_steps_total counter\n";
    out += strFormat("bvfd_static_analysis_steps_total %llu\n",
                     static_cast<unsigned long long>(stats.analysisSteps));
    return out;
}

} // namespace bvf::server
