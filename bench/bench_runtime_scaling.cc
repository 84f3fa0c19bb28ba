/**
 * @file
 * Runtime scaling: the 58-app campaign at 1/2/4/8 workers.
 *
 * Runs the same journal-less campaign on the shared-queue thread pool
 * at increasing --jobs counts, reports wall-clock speedup over the serial
 * run, and -- the part that actually matters -- byte-compares every
 * parallel report against the serial one. The ordered-reduction design
 * (runtime/ordered.hh) promises parallelism changes nothing but the
 * wall clock; this benchmark holds it to that.
 *
 * Usage: bench_runtime_scaling [APP_COUNT]
 *   APP_COUNT  limit to the first N suite apps (default: all 58)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

int
main(int argc, char **argv)
{
    std::size_t appCount = workload::evaluationSuite().size();
    if (argc > 1) {
        const long n = std::strtol(argv[1], nullptr, 10);
        if (n <= 0) {
            std::fprintf(stderr,
                         "usage: bench_runtime_scaling [APP_COUNT]\n");
            return 2;
        }
        appCount = std::min(appCount,
                            static_cast<std::size_t>(n));
    }
    std::vector<workload::AppSpec> apps(
        workload::evaluationSuite().begin(),
        workload::evaluationSuite().begin()
            + static_cast<std::ptrdiff_t>(appCount));

    const core::ExperimentDriver driver(gpu::baselineConfig());

    std::string serialReport;
    double serialSeconds = 0.0;
    bool identical = true;

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %u%s\n", hw,
                hw < 4 ? " (speedup is bounded by the hardware; the "
                         "byte-identity check still runs)"
                       : "");

    TextTable table(strFormat(
        "Campaign scaling: %zu apps, shared-queue pool", apps.size()));
    table.header({"Jobs", "Wall[s]", "Speedup", "Efficiency",
                  "Report vs serial"});

    for (const int jobs : {1, 2, 4, 8}) {
        campaign::CampaignOptions options;
        options.jobs = jobs;
        campaign::CampaignRunner runner(driver, options);

        const auto start = std::chrono::steady_clock::now();
        auto outcome = runner.run(apps);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (!outcome.ok()) {
            std::fprintf(stderr, "campaign at %d job(s) failed: %s\n",
                         jobs, outcome.error().describe().c_str());
            return 1;
        }
        const std::string report = outcome.value().render();

        std::string verdict = "(reference)";
        if (jobs == 1) {
            serialReport = report;
            serialSeconds = seconds;
        } else if (report == serialReport) {
            verdict = "identical";
        } else {
            verdict = "DIVERGED";
            identical = false;
        }
        const double speedup = serialSeconds / seconds;
        table.row({strFormat("%d", jobs), TextTable::num(seconds, 2),
                   jobs == 1 ? "1.00x" : strFormat("%.2fx", speedup),
                   TextTable::pct(speedup / jobs), verdict});
    }
    table.print();

    if (!identical) {
        std::fprintf(stderr, "FAIL: a parallel report diverged from "
                             "the serial bytes\n");
        return 1;
    }
    std::printf("all parallel reports byte-identical to serial\n");
    return 0;
}
