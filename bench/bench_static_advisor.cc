/**
 * @file
 * Static coder advisor vs. exhaustive dynamic pivot sweeps.
 *
 * The advisor picks a VS register pivot per kernel from lane-affine
 * analysis alone; the ground truth is an exhaustive sweep that encodes
 * every register-file access under all 32 candidate pivots and keeps
 * the densest. This bench runs both over the full evaluation suite and
 * reports, per app: the advised and the dynamically best pivot, their
 * measured coded densities, the measured gap, and the proven slack the
 * advisor certified. Every app must pass core::crossCheckAdvice (each
 * pivot's measured density inside its proven bound, the gap within the
 * slack), the same check bvf_sim --check-advice runs; the summary
 * quantifies how often the static pick is exactly optimal and how much
 * density it gives up when it is not.
 */

#include <cstdio>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/static_check.hh"
#include "gpu/gpu.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

int
main()
{
    const gpu::GpuConfig config = gpu::baselineConfig();

    TextTable table("Static pivot advice vs exhaustive dynamic sweep "
                    "(register file, raw VS-coded density)");
    table.header({"App", "Advised", "Dyn best", "Adv dens", "Best dens",
                  "Gap", "Slack", "Affine"});

    int apps = 0;
    int exact = 0;
    int consistent = 0;
    double gap_sum = 0.0;
    double gap_max = 0.0;
    for (const auto &spec : workload::evaluationSuite()) {
        isa::Program program = workload::buildProgram(spec);

        analysis::AdvisorOptions opts;
        opts.arch = config.arch;
        opts.lineBytes = config.lineBytes;
        const analysis::StaticAdvice advice = analysis::adviseProgram(
            program, analysis::analyzeProgram(program), opts);

        core::PivotSweepSink sweep;
        gpu::Gpu machine(config, std::move(program), sweep);
        machine.run();

        const int advised = advice.pivot.bestPivot;
        const int best = sweep.bestMeasuredPivot();
        const double adv_density = sweep.count(advised).density();
        const double best_density = sweep.count(best).density();
        const double gap = best_density - adv_density;

        const auto violations = core::crossCheckAdvice(advice, sweep);
        for (const std::string &v : violations)
            std::fprintf(stderr, "%s: %s\n", spec.abbr.c_str(), v.c_str());

        ++apps;
        if (gap <= 1e-12)
            ++exact;
        if (violations.empty())
            ++consistent;
        gap_sum += gap;
        if (gap > gap_max)
            gap_max = gap;

        table.row({spec.abbr, strFormat("%d", advised),
                   strFormat("%d", best), strFormat("%.4f", adv_density),
                   strFormat("%.4f", best_density),
                   strFormat("%.4f", gap),
                   strFormat("%.4f", advice.pivot.provenSlack),
                   strFormat("%d/%d", advice.pivot.affineSources,
                             advice.pivot.totalSources)});
    }
    table.print();

    std::printf("\napps %d, advised pivot dynamically optimal on %d "
                "(%.1f%%), advice consistent with the sweep on %d/%d\n",
                apps, exact,
                100.0 * static_cast<double>(exact)
                    / static_cast<double>(apps),
                consistent, apps);
    std::printf("mean density gap %.4f, worst %.4f\n",
                gap_sum / static_cast<double>(apps), gap_max);
    fatal_if(consistent != apps,
             "the static advice contradicts the pivot sweep on %d app(s)",
             apps - consistent);
    return 0;
}
