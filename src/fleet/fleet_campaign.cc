/**
 * @file
 * Distributed campaign implementation.
 */

#include "fleet/fleet_campaign.hh"

#include "common/atomic_file.hh"
#include "core/experiment.hh"

namespace bvf::fleet
{

using campaign::AppResult;
using campaign::AppStatus;
using server::Frame;
using server::MsgType;

FleetCampaign::FleetCampaign(Coordinator &coordinator,
                             FleetCampaignOptions options)
    : coordinator_(coordinator), options_(std::move(options))
{
}

campaign::CampaignOptions
FleetCampaign::campaignOptions() const
{
    campaign::CampaignOptions serial;
    serial.journalPath = options_.journalPath;
    serial.resume = options_.resume;
    serial.maxRetries = options_.maxRetries;
    serial.jobs = options_.jobs;
    serial.run = options_.config.runOptions();
    serial.pricing = options_.config.pricing();
    serial.onSalvage = options_.onSalvage;
    return serial;
}

std::uint32_t
FleetCampaign::configDigest(
    std::span<const workload::AppSpec> apps) const
{
    const core::ExperimentDriver driver(options_.config.machine());
    return campaign::CampaignRunner(driver, campaignOptions())
        .configDigest(apps);
}

Result<AppResult>
FleetCampaign::remoteStep(const workload::AppSpec &spec)
{
    server::ChipEnergyRequest req;
    server::setEvalConfig(req, options_.config);
    req.query.abbr = spec.abbr;
    // Transport-level give-up: no worker could even run the job. That
    // dooms the campaign, not just the app.
    auto reply = coordinator_.execute(
        Frame{MsgType::ChipEnergyRequest, req.encode()}, spec.abbr);
    if (!reply.ok())
        return reply.error();

    AppResult result;
    result.name = spec.name;
    result.abbr = spec.abbr;
    if (reply.value().type == MsgType::ErrorResponse) {
        auto wire = server::WireError::decode(reply.value().payload);
        result.status = AppStatus::Quarantined;
        // Serial accounting: a quarantined app consumed its whole
        // retry budget.
        result.attempts =
            static_cast<std::uint32_t>(options_.maxRetries + 1);
        if (wire.ok()) {
            result.error = Error{static_cast<ErrorCode>(wire.value().code),
                                 wire.value().message};
        } else {
            result.error = wire.error();
        }
        return result;
    }
    auto resp = server::ChipEnergyResponse::decode(reply.value().payload);
    if (!resp.ok())
        return resp.error();
    result.status = AppStatus::Completed;
    result.attempts = 1; // failovers are not app attempts
    result.cycles = resp.value().cycles;
    result.instructions = resp.value().instructions;
    result.chipEnergy = resp.value().chipEnergy;
    result.bvfUnitsEnergy = resp.value().bvfUnitsEnergy;
    return result;
}

Result<FleetCampaignOutcome>
FleetCampaign::run(std::span<const workload::AppSpec> apps)
{
    if (auto servable = server::checkServable(options_.config);
        !servable.ok())
        return servable.error();

    const core::ExperimentDriver driver(options_.config.machine());
    auto report = campaign::CampaignRunner(driver, campaignOptions())
                      .run(apps, [this](const workload::AppSpec &spec) {
                          return remoteStep(spec);
                      });
    if (!report.ok())
        return report.error();

    FleetCampaignOutcome out;
    out.report = std::move(report.value());
    out.fleetStats = coordinator_.stats();
    if (!options_.reportPath.empty()) {
        auto wrote =
            atomicWriteFile(options_.reportPath, out.report.render());
        if (!wrote.ok())
            return wrote.error();
    }
    return out;
}

} // namespace bvf::fleet
