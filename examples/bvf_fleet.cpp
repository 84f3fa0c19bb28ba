/**
 * @file
 * bvf_fleet: fault-tolerant campaign coordinator for a bvfd fleet.
 *
 * Two modes sharing one coordinator core (src/fleet):
 *
 *   campaign APP... | all    spread the campaign's applications across
 *                            the workers, journal each completion
 *                            (the journal `bvf_sim --journal` writes,
 *                            so either tool resumes the other's) and
 *                            write a report bit-identical to a serial
 *                            `bvf_sim campaign` of the same
 *                            configuration -- regardless of worker
 *                            count, routing, or mid-run worker death.
 *
 *   serve                    run a front-end daemon (same framed
 *                            protocol as bvfd) that proxies every
 *                            request to the fleet with consistent-hash
 *                            routing, failover and circuit breaking:
 *                            a load balancer clients can talk to as if
 *                            it were one big bvfd.
 *
 * Usage:
 *   bvf_fleet --worker HOST:PORT [--worker ...] campaign all \
 *             [--journal FILE [--resume]] [--report FILE]
 *   bvf_fleet --worker HOST:PORT [--worker ...] serve [--port N]
 *
 * Fleet options:
 *   --worker SPEC     worker endpoint, repeatable (HOST:PORT or
 *                     unix:PATH); at least one is required
 *   --deadline-ms N   per-request transport deadline (default 30000)
 *   --backoff-ms N    retry backoff envelope base (default 100)
 *   --max-attempts N  passes over the preference list (default 4)
 *   --heartbeat-ms N  worker probe period, 0 disables (default 500)
 *   --breaker-threshold N  consecutive failures to open (default 3)
 *   --breaker-cooldown-ms N  open time before half-open (default 1000)
 *
 * Campaign options:
 *   --journal FILE      campaign journal (optional)
 *   --report FILE       campaign report
 *   --resume            continue from an existing --journal
 *   --jobs N            concurrent in-flight applications (default 4)
 *   --arch/--sched/--pivot/--dynamic-isa/--node/--pstate/--cell/
 *   --ecc/--cells-bitline   as in bvf_sim; bvf6t past its reliability
 *                           limit is rejected (a fault study needs a
 *                           fault seed, which the wire cannot carry)
 *
 * Serve options:
 *   --host ADDR --port N --unix PATH --max-inflight N   as in bvfd
 */

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/eval_config.hh"
#include "fleet/coordinator.hh"
#include "fleet/fleet_campaign.hh"
#include "server/server.hh"
#include "workload/app_spec.hh"

using namespace bvf;

namespace
{

server::Server *activeServer = nullptr;

extern "C" void
onSignal(int)
{
    if (activeServer)
        activeServer->requestStop(); // async-signal-safe
}

struct Options
{
    fleet::FleetOptions fleet;
    fleet::FleetCampaignOptions campaign;
    server::ServerOptions serve;
    std::string command;
    std::vector<std::string> apps;
};

Options
parse(int argc, char **argv)
{
    Options o;
    o.campaign.jobs = 4;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (core::parseEvalFlag(args, arg, o.campaign.config))
            continue;
        if (arg == "--worker") {
            auto addr = fleet::parseWorkerAddress(args.value(arg));
            if (!addr.ok())
                cli::dieUsage(addr.error().message);
            o.fleet.workers.push_back(addr.value());
        } else if (arg == "--deadline-ms") {
            o.fleet.requestDeadline = std::chrono::milliseconds(
                cli::parseInteger(arg, args.value(arg), 1, 3600000));
        } else if (arg == "--backoff-ms") {
            o.fleet.backoffBase = std::chrono::milliseconds(
                cli::parseInteger(arg, args.value(arg), 0, 60000));
        } else if (arg == "--max-attempts") {
            o.fleet.maxAttempts =
                cli::parseInteger(arg, args.value(arg), 1, 100);
        } else if (arg == "--heartbeat-ms") {
            o.fleet.heartbeatInterval = std::chrono::milliseconds(
                cli::parseInteger(arg, args.value(arg), 0, 60000));
        } else if (arg == "--breaker-threshold") {
            o.fleet.breakerThreshold =
                cli::parseInteger(arg, args.value(arg), 1, 1000);
        } else if (arg == "--breaker-cooldown-ms") {
            o.fleet.breakerCooldown = std::chrono::milliseconds(
                cli::parseInteger(arg, args.value(arg), 0, 3600000));
        } else if (arg == "--journal") {
            o.campaign.journalPath = args.value(arg);
        } else if (arg == "--report") {
            o.campaign.reportPath = args.value(arg);
        } else if (arg == "--resume") {
            o.campaign.resume = true;
        } else if (arg == "--jobs") {
            o.campaign.jobs =
                cli::parseInteger(arg, args.value(arg), 1, 64);
        } else if (arg == "--host") {
            o.serve.host = args.value(arg);
        } else if (arg == "--port") {
            o.serve.port =
                cli::parseInteger(arg, args.value(arg), 0, 65535);
        } else if (arg == "--unix") {
            o.serve.unixPath = args.value(arg);
        } else if (arg == "--max-inflight") {
            o.serve.maxInflight =
                cli::parseInteger(arg, args.value(arg), 1, 4096);
        } else if (arg == "--log-level") {
            const auto v = args.value(arg);
            LogLevel level;
            if (!parseLogLevel(v, level))
                cli::badChoice(arg, v, "quiet, warn, info, debug");
            setLogLevel(level);
        } else if (arg.rfind("--", 0) == 0) {
            cli::dieUsage("unknown option '" + arg + "'");
        } else if (o.command.empty()) {
            o.command = arg;
        } else {
            o.apps.push_back(arg);
        }
    }
    if (o.command != "campaign" && o.command != "serve") {
        cli::dieUsage(
            "command must be 'campaign' or 'serve'\n"
            "usage: bvf_fleet --worker HOST:PORT [--worker ...] campaign "
            "APP... | all\n"
            "                 [--journal FILE [--resume]] [--report FILE] "
            "[--jobs N]\n"
            "                 "
            + core::evalUsage("                 ")
            + "\n       bvf_fleet --worker HOST:PORT [--worker ...] serve "
              "[--port N]");
    }
    if (o.fleet.workers.empty())
        cli::dieUsage("at least one --worker HOST:PORT is required");
    if (o.command == "campaign") {
        if (o.apps.empty())
            cli::dieUsage("campaign needs application names or 'all'");
        if (o.campaign.resume && o.campaign.journalPath.empty())
            cli::dieUsage("--resume requires --journal FILE");
    }
    return o;
}

int
runCampaign(Options &o)
{
    const auto specs = workload::resolveApps(o.apps);
    fleet::Coordinator coordinator(o.fleet);
    coordinator.start();
    fleet::FleetCampaign campaign(coordinator, o.campaign);
    auto outcome = campaign.run(specs);
    coordinator.stop();
    fatal_if(!outcome.ok(), "fleet campaign failed: %s",
             outcome.error().describe().c_str());
    const auto &out = outcome.value();

    std::printf("fleet campaign: %zu app(s) on %zu worker(s)\n",
                out.report.results.size(), coordinator.workerCount());
    std::printf(
        "  completed %d quarantined %d restored %d config %08x\n",
        out.report.completed, out.report.quarantined, out.report.resumed,
        out.report.configCrc);
    std::printf("  failovers %llu deaths %llu revivals %llu "
                "breaker-opens %llu\n",
                static_cast<unsigned long long>(out.fleetStats.failovers),
                static_cast<unsigned long long>(out.fleetStats.deaths),
                static_cast<unsigned long long>(out.fleetStats.revivals),
                static_cast<unsigned long long>(
                    out.fleetStats.breakerOpens));
    if (!o.campaign.reportPath.empty()) {
        std::printf("  report: %s\n", o.campaign.reportPath.c_str());
    } else {
        std::fputs(out.report.render().c_str(), stdout);
    }
    return out.report.quarantined == 0 ? 0 : 1;
}

int
runServe(Options &o)
{
    fleet::Coordinator coordinator(o.fleet);
    coordinator.start();
    o.serve.handler = coordinator.proxyHandler();

    server::Server front(o.serve);
    const auto started = front.start();
    fatal_if(!started.ok(), "bvf_fleet: cannot start: %s",
             started.error().describe().c_str());

    if (!o.serve.host.empty()) {
        std::printf("bvf_fleet: listening on %s:%d (%zu workers)\n",
                    o.serve.host.c_str(), front.port(),
                    coordinator.workerCount());
    }
    if (!o.serve.unixPath.empty()) {
        std::printf("bvf_fleet: listening on unix:%s (%zu workers)\n",
                    o.serve.unixPath.c_str(),
                    coordinator.workerCount());
    }
    std::fflush(stdout);

    activeServer = &front;
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    front.waitForStop();
    front.drain();
    activeServer = nullptr;
    coordinator.stop();

    const auto s = coordinator.stats();
    std::printf("bvf_fleet: %llu request(s), %llu failover(s), "
                "%llu overloaded\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.failovers),
                static_cast<unsigned long long>(s.overloaded));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("bvf_fleet", e);
    }
    ::signal(SIGPIPE, SIG_IGN); // dying workers must not kill us
    return o.command == "campaign" ? runCampaign(o) : runServe(o);
}
