#include "core/static_check.hh"

#include "common/logging.hh"

namespace bvf::core
{

using coder::Scenario;
using coder::UnitId;

StaticReport
analyzeStatic(const isa::Program &program, const gpu::GpuConfig &config,
              Word64 isaMask)
{
    StaticReport report;
    report.analysis = analysis::analyzeProgram(program);

    analysis::PredictorOptions popts;
    popts.arch = config.arch;
    popts.isaMask = isaMask;
    popts.lineBytes = config.lineBytes;
    report.prediction =
        analysis::predictDensity(program, report.analysis, popts);
    return report;
}

std::vector<analysis::ObservedStream>
observedStreams(const EnergyAccountant &accountant)
{
    std::vector<analysis::ObservedStream> out;
    for (const Scenario s : coder::allScenarios) {
        for (const auto &[unit, stats] : accountant.unitStats(s)) {
            out.push_back({unit, s, "reads", stats.reads.ones,
                           stats.reads.bits()});
            out.push_back({unit, s, "writes", stats.writes.ones,
                           stats.writes.bits()});
        }
    }
    return out;
}

std::vector<analysis::ObservedNoc>
observedNoc(const EnergyAccountant &accountant)
{
    std::vector<analysis::ObservedNoc> out;
    for (const Scenario s : coder::allScenarios) {
        const NocAccount &n = accountant.noc(s);
        out.push_back({s, n.payloadOnes, n.payloadBits});
    }
    return out;
}

std::vector<std::string>
crossCheckRun(const StaticReport &report, const EnergyAccountant &accountant)
{
    return analysis::crossCheck(report.prediction,
                                observedStreams(accountant),
                                observedNoc(accountant));
}

std::vector<std::string>
crossCheckAdvice(const analysis::StaticAdvice &advice,
                 const PivotSweepSink &sweep)
{
    constexpr double eps = 1e-9;
    std::vector<std::string> violations;
    for (int p = 0; p < 32; ++p) {
        const auto &bound = advice.pivot.bounds[static_cast<std::size_t>(p)];
        const PivotCount &measured = sweep.count(p);
        if (measured.bits == 0)
            continue; // vacuously consistent
        if (!bound.any) {
            violations.push_back(strFormat(
                "pivot %d: register traffic observed but the advisor "
                "proved the register file idle", p));
            continue;
        }
        const double m = measured.density();
        if (m < bound.lo - eps || m > bound.hi + eps) {
            violations.push_back(strFormat(
                "pivot %d: measured density %.6f outside proven "
                "[%.6f, %.6f]", p, m, bound.lo, bound.hi));
        }
    }
    const int best = sweep.bestMeasuredPivot();
    const int advised = advice.pivot.bestPivot;
    const double gap =
        sweep.count(best).density() - sweep.count(advised).density();
    if (gap > advice.pivot.provenSlack + eps) {
        violations.push_back(strFormat(
            "dynamic best pivot %d beats advised pivot %d by %.6f, "
            "more than the proven slack %.6f",
            best, advised, gap, advice.pivot.provenSlack));
    }
    return violations;
}

} // namespace bvf::core
