/**
 * @file
 * Distributed campaign implementation.
 */

#include "fleet/fleet_campaign.hh"

#include <atomic>
#include <mutex>
#include <optional>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "runtime/ordered.hh"
#include "runtime/thread_pool.hh"

namespace bvf::fleet
{

using campaign::AppResult;
using campaign::AppStatus;
using server::Frame;
using server::MsgType;

namespace
{

/** "127.0.0.1:7001" -> "127.0.0.1_7001" (filesystem-safe). */
std::string
sanitizeId(const std::string &id)
{
    std::string out = id;
    for (char &c : out) {
        if (c == ':' || c == '/')
            c = '_';
    }
    return out;
}

} // namespace

FleetCampaign::FleetCampaign(Coordinator &coordinator,
                             FleetCampaignOptions options)
    : coordinator_(coordinator), options_(std::move(options))
{
}

std::string
FleetCampaign::shardPath(std::size_t index) const
{
    return strFormat(
        "%s/shard-%s.bvfj", options_.journalDir.c_str(),
        sanitizeId(coordinator_.workerAddress(index).id()).c_str());
}

std::uint32_t
FleetCampaign::configDigest(
    std::span<const workload::AppSpec> apps) const
{
    const core::ExperimentDriver driver(options_.config.machine());
    campaign::CampaignOptions serial;
    serial.run = options_.config.runOptions();
    serial.pricing = options_.config.pricing();
    return campaign::CampaignRunner(driver, serial).configDigest(apps);
}

Result<FleetCampaignOutcome>
FleetCampaign::run(std::span<const workload::AppSpec> apps)
{
    if (options_.journalDir.empty()) {
        return Error{ErrorCode::InvalidArgument,
                     "fleet campaign requires --journal-dir: shard "
                     "journals are what the merge merges"};
    }
    if (auto servable = server::checkServable(options_.config);
        !servable.ok())
        return servable.error();

    const std::uint32_t digest = configDigest(apps);
    FleetCampaignOutcome out;
    const std::size_t nWorkers = coordinator_.workerCount();
    for (std::size_t w = 0; w < nWorkers; ++w)
        out.shardPaths.push_back(shardPath(w));

    // One journal per worker, created lazily on first append so a
    // zero-job shard leaves no file (the merge treats that as empty).
    std::vector<std::unique_ptr<campaign::CampaignJournal>> journals(
        nWorkers);
    std::vector<AppResult> restored;
    for (std::size_t w = 0; w < nWorkers; ++w) {
        if (!fileExists(out.shardPaths[w]))
            continue;
        if (!options_.resume) {
            return Error{
                ErrorCode::InvalidArgument,
                strFormat("shard journal '%s' already exists; pass "
                          "resume to continue or merge, or remove it",
                          out.shardPaths[w].c_str())};
        }
        auto bytes = readFileBytes(out.shardPaths[w]);
        if (!bytes.ok())
            return bytes.error();
        auto load = campaign::parseJournal(bytes.value(), digest);
        if (!load.ok())
            return load.error();
        if (load.value().salvaged) {
            warn("shard '%s': %s", out.shardPaths[w].c_str(),
                 load.value().warning.c_str());
        }
        journals[w] = std::make_unique<campaign::CampaignJournal>(
            out.shardPaths[w], digest);
        journals[w]->adopt(load.value().results);
        for (AppResult &r : load.value().results)
            restored.push_back(std::move(r));
    }

    auto findRestored =
        [&](const std::string &abbr) -> const AppResult * {
        for (const AppResult &r : restored) {
            if (r.abbr == abbr)
                return &r;
        }
        return nullptr;
    };

    std::mutex journalMutex;
    std::atomic<bool> doomed{false};
    std::optional<Error> campaignError;
    std::atomic<int> restoredCount{0};

    auto produce = [&](const workload::AppSpec &spec,
                       std::size_t) -> int {
        if (findRestored(spec.abbr)) {
            restoredCount.fetch_add(1);
            return 0;
        }
        if (doomed.load(std::memory_order_acquire))
            return 0; // campaign already failed; stop burning workers

        server::ChipEnergyRequest req;
        server::setEvalConfig(req, options_.config);
        req.query.abbr = spec.abbr;
        Frame frame{MsgType::ChipEnergyRequest, req.encode()};

        ExecuteInfo info;
        auto reply = coordinator_.execute(frame, spec.abbr, &info);

        AppResult result;
        result.name = spec.name;
        result.abbr = spec.abbr;

        if (!reply.ok()) {
            // Transport-level give-up: no worker could even run the
            // job. That dooms the campaign, not just the app.
            std::lock_guard<std::mutex> lock(journalMutex);
            if (!campaignError)
                campaignError = reply.error();
            doomed.store(true, std::memory_order_release);
            return 0;
        }

        if (reply.value().type == MsgType::ErrorResponse) {
            auto wire = server::WireError::decode(reply.value().payload);
            result.status = AppStatus::Quarantined;
            // Serial accounting: a quarantined app consumed its whole
            // retry budget.
            result.attempts =
                static_cast<std::uint32_t>(options_.maxRetries + 1);
            if (wire.ok()) {
                result.error =
                    Error{static_cast<ErrorCode>(wire.value().code),
                          wire.value().message};
            } else {
                result.error = wire.error();
            }
        } else {
            auto resp =
                server::ChipEnergyResponse::decode(reply.value().payload);
            if (!resp.ok()) {
                std::lock_guard<std::mutex> lock(journalMutex);
                if (!campaignError)
                    campaignError = resp.error();
                doomed.store(true, std::memory_order_release);
                return 0;
            }
            result.status = AppStatus::Completed;
            result.attempts = 1; // failovers are not app attempts
            result.cycles = resp.value().cycles;
            result.instructions = resp.value().instructions;
            result.chipEnergy = resp.value().chipEnergy;
            result.bvfUnitsEnergy = resp.value().bvfUnitsEnergy;
        }

        std::lock_guard<std::mutex> lock(journalMutex);
        if (doomed.load(std::memory_order_relaxed))
            return 0;
        auto &journal = journals[info.worker];
        if (!journal) {
            journal = std::make_unique<campaign::CampaignJournal>(
                out.shardPaths[info.worker], digest);
        }
        auto appended = journal->append(result);
        if (!appended.ok()) {
            campaignError = appended.error();
            doomed.store(true, std::memory_order_release);
        }
        return 0;
    };

    if (options_.jobs > 1) {
        runtime::ThreadPool pool(options_.jobs);
        runtime::parallelMapOrdered(pool, apps, produce);
    } else {
        for (std::size_t i = 0; i < apps.size(); ++i)
            produce(apps[i], i);
    }

    if (campaignError)
        return *campaignError;

    auto merged = mergeShardJournals(out.shardPaths, digest, apps);
    if (!merged.ok())
        return merged.error();
    out.mergeInfo = std::move(merged.value());
    out.report = out.mergeInfo.report;
    out.fleetStats = coordinator_.stats();
    out.restored = restoredCount.load();

    if (!options_.reportPath.empty()) {
        auto wrote =
            atomicWriteFile(options_.reportPath, out.report.render());
        if (!wrote.ok())
            return wrote.error();
    }
    if (!options_.mergedJournalPath.empty()) {
        auto wrote = atomicWriteFile(
            options_.mergedJournalPath,
            campaign::serializeJournal(digest, out.report.results));
        if (!wrote.ok())
            return wrote.error();
    }
    return out;
}

} // namespace bvf::fleet
