/**
 * @file
 * Fleet baseline: coordinator request latency and sharded-campaign
 * throughput against in-process bvfd workers.
 *
 * Two phases. The first hammers the coordinator with concurrent ping
 * round-trips -- the purest measure of the fleet layer's own overhead
 * (routing, health bookkeeping, framing, socket hop) -- and reports
 * exact p50/p99 from the recorded samples. The second runs a sharded
 * campaign over a 3-worker fleet, times it against the serial runner,
 * and byte-compares the fleet's report with the serial bytes, because a
 * fleet that is fast but wrong is worthless.
 *
 * Usage: bench_fleet [REQUESTS] [THREADS] [JSON_PATH] [APP_COUNT]
 *   REQUESTS   ping round-trips per thread      (default 200)
 *   THREADS    concurrent client threads        (default 4)
 *   JSON_PATH  write a machine-readable summary (default: none)
 *   APP_COUNT  campaign apps for phase two      (default 8)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "common/atomic_file.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "fleet/coordinator.hh"
#include "fleet/fleet_campaign.hh"
#include "server/server.hh"

using namespace bvf;
using namespace std::chrono_literals;

namespace
{

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
}

} // namespace

int
main(int argc, char **argv)
{
    long requests = 200, threads = 4, appCount = 8;
    std::string jsonPath;
    if (argc > 1)
        requests = std::strtol(argv[1], nullptr, 10);
    if (argc > 2)
        threads = std::strtol(argv[2], nullptr, 10);
    if (argc > 3)
        jsonPath = argv[3];
    if (argc > 4)
        appCount = std::strtol(argv[4], nullptr, 10);
    if (requests <= 0 || threads <= 0 || appCount <= 0) {
        std::fprintf(stderr, "usage: bench_fleet [REQUESTS] [THREADS] "
                             "[JSON_PATH] [APP_COUNT]\n");
        return 2;
    }

    // Three in-process workers on ephemeral ports.
    constexpr int kWorkers = 3;
    std::vector<std::unique_ptr<server::Server>> workers;
    std::vector<fleet::WorkerAddress> addrs;
    for (int i = 0; i < kWorkers; ++i) {
        server::ServerOptions o;
        o.workers = 2;
        workers.push_back(std::make_unique<server::Server>(o));
        if (const auto started = workers.back()->start(); !started.ok()) {
            std::fprintf(stderr, "worker %d failed to start: %s\n", i,
                         started.error().describe().c_str());
            return 1;
        }
        fleet::WorkerAddress a;
        a.port = workers.back()->port();
        addrs.push_back(a);
    }

    fleet::FleetOptions fopts;
    fopts.workers = addrs;
    fopts.requestDeadline = 30000ms;
    fopts.heartbeatInterval = 0ms;
    fleet::Coordinator coord(fopts);

    // Phase 1: concurrent ping round-trips through the coordinator.
    std::vector<std::vector<double>> samples(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    const auto pingStart = std::chrono::steady_clock::now();
    for (long t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            auto &mine = samples[static_cast<std::size_t>(t)];
            mine.reserve(static_cast<std::size_t>(requests));
            for (long i = 0; i < requests; ++i) {
                server::Ping ping;
                ping.nonce =
                    static_cast<std::uint64_t>(t * requests + i);
                const server::Frame frame{
                    server::MsgType::PingRequest, ping.encode()};
                const std::string key =
                    strFormat("bench-%ld-%ld", t, i);
                const auto begun = std::chrono::steady_clock::now();
                auto reply = coord.execute(frame, key);
                const double us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - begun)
                        .count();
                if (reply.ok())
                    mine.push_back(us);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    const double pingSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - pingStart)
            .count();

    std::vector<double> all;
    for (const auto &mine : samples)
        all.insert(all.end(), mine.begin(), mine.end());
    std::sort(all.begin(), all.end());
    const double p50 = percentile(all, 0.50);
    const double p99 = percentile(all, 0.99);
    const double rps =
        pingSeconds > 0 ? static_cast<double>(all.size()) / pingSeconds
                        : 0.0;

    TextTable latTable(strFormat(
        "Fleet request latency: %zu pings, %ld threads, %d workers",
        all.size(), threads, kWorkers));
    latTable.header({"p50[us]", "p99[us]", "max[us]", "req/s"});
    latTable.row({TextTable::num(p50, 1), TextTable::num(p99, 1),
                  TextTable::num(all.empty() ? 0.0 : all.back(), 1),
                  TextTable::num(rps, 0)});
    latTable.print();

    if (all.size()
        != static_cast<std::size_t>(threads * requests)) {
        std::fprintf(stderr, "FAIL: %zu/%ld pings answered\n",
                     all.size(), threads * requests);
        return 1;
    }

    // Phase 2: sharded campaign vs the serial runner, byte-compared.
    const auto &suite = workload::evaluationSuite();
    std::vector<workload::AppSpec> apps(
        suite.begin(),
        suite.begin()
            + std::min(static_cast<std::size_t>(appCount),
                       suite.size()));

    const core::ExperimentDriver driver(gpu::baselineConfig());
    campaign::CampaignOptions serialOpts;
    campaign::CampaignRunner serial(driver, serialOpts);
    const auto serialStart = std::chrono::steady_clock::now();
    auto ref = serial.run(apps);
    const double serialSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - serialStart)
            .count();
    if (!ref.ok()) {
        std::fprintf(stderr, "serial campaign failed: %s\n",
                     ref.error().describe().c_str());
        return 1;
    }

    fleet::FleetCampaignOptions copts;
    copts.jobs = static_cast<int>(threads);
    fleet::FleetCampaign fleetCampaign(coord, copts);
    const auto fleetStart = std::chrono::steady_clock::now();
    auto outcome = fleetCampaign.run(apps);
    const double fleetSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - fleetStart)
            .count();
    if (!outcome.ok()) {
        std::fprintf(stderr, "fleet campaign failed: %s\n",
                     outcome.error().describe().c_str());
        return 1;
    }

    const bool identical =
        outcome.value().report.render() == ref.value().render();
    TextTable campTable(strFormat(
        "Sharded campaign: %zu apps, %d workers, %ld client jobs",
        apps.size(), kWorkers, threads));
    campTable.header({"Mode", "Wall[s]", "Speedup", "Report"});
    campTable.row({"serial", TextTable::num(serialSeconds, 2), "1.00x",
                   "(reference)"});
    campTable.row({"fleet", TextTable::num(fleetSeconds, 2),
                   strFormat("%.2fx", serialSeconds / fleetSeconds),
                   identical ? "identical" : "DIVERGED"});
    campTable.print();

    if (!jsonPath.empty()) {
        const std::string json = strFormat(
            "{\n"
            "  \"bench\": \"bench_fleet\",\n"
            "  \"workers\": %d,\n"
            "  \"threads\": %ld,\n"
            "  \"ping_requests\": %zu,\n"
            "  \"ping_p50_us\": %.3f,\n"
            "  \"ping_p99_us\": %.3f,\n"
            "  \"ping_requests_per_s\": %.1f,\n"
            "  \"campaign_apps\": %zu,\n"
            "  \"campaign_serial_s\": %.3f,\n"
            "  \"campaign_fleet_s\": %.3f,\n"
            "  \"campaign_speedup\": %.3f,\n"
            "  \"report_identical\": %s\n"
            "}\n",
            kWorkers, threads, all.size(), p50, p99, rps, apps.size(),
            serialSeconds, fleetSeconds, serialSeconds / fleetSeconds,
            identical ? "true" : "false");
        if (const auto wrote = atomicWriteFile(jsonPath, json);
            !wrote.ok()) {
            std::fprintf(stderr, "could not write %s: %s\n",
                         jsonPath.c_str(),
                         wrote.error().describe().c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    for (auto &w : workers) {
        w->requestStop();
        w->drain();
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: fleet report diverged from the "
                             "serial bytes\n");
        return 1;
    }
    std::printf("fleet report byte-identical to serial\n");
    return 0;
}
