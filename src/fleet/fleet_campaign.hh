/**
 * @file
 * Distributed campaign: the 58-app sweep spread across a bvfd fleet.
 *
 * The campaign loop is campaign::CampaignRunner's: it restores from
 * the journal, stops on the first campaign-level failure, journals
 * every finished app and derives the counters. The fleet supplies only
 * the step that produces one app: a ChipEnergyRequest routed by the
 * app's abbreviation through the coordinator. The coordinator process
 * writes the one journal, in the format and under the digest of
 * `bvf_sim`'s, so either tool resumes the other's journal.
 *
 * Bit identity with `bvf_sim campaign` holds because:
 *  - the wire carries energies as raw IEEE-754 u64 bit patterns;
 *  - bvf_sim, the worker and the report's `# config` digest all build
 *    their GpuConfig/RunOptions/Pricing from one core::EvalConfig
 *    mapping, so the worker runs the configuration that is digested;
 *  - a first-try remote success records attempts=1 and a failover
 *    does NOT bump attempts (the app itself never failed -- only a
 *    worker did), matching what the serial run would have recorded.
 *
 * The `# config` digest is computed here, not by the workers, so on its
 * own it cannot show that a worker ran the same config. A config the
 * wire cannot serve (server::checkServable: BVF-6T past its reliability
 * limit) is rejected up front instead of being priced wrong.
 */

#ifndef BVF_FLEET_FLEET_CAMPAIGN_HH
#define BVF_FLEET_FLEET_CAMPAIGN_HH

#include <functional>
#include <span>
#include <string>

#include "campaign/campaign.hh"
#include "common/result.hh"
#include "core/eval_config.hh"
#include "fleet/coordinator.hh"
#include "workload/app_spec.hh"

namespace bvf::fleet
{

/** Knobs for one distributed campaign. */
struct FleetCampaignOptions
{
    /** Campaign journal; empty runs without persistence. */
    std::string journalPath;

    /** Report file; empty skips writing (render still runs). */
    std::string reportPath;

    /** Continue from an existing journal instead of refusing. */
    bool resume = false;

    /** Client-side concurrent in-flight apps; <= 1 is serial. */
    int jobs = 1;

    /**
     * Mirror of the serial campaign's retry budget: quarantined apps
     * render attempts = maxRetries + 1, exactly as the serial runner
     * records after exhausting its attempts.
     */
    int maxRetries = 1;

    /** The config every app is requested and digested under. */
    core::EvalConfig config;

    /** As campaign::CampaignOptions::onSalvage. */
    std::function<void(const std::string &note)> onSalvage;
};

/** Everything a finished fleet campaign hands back. */
struct FleetCampaignOutcome
{
    campaign::CampaignReport report; //!< campaign-ordered
    FleetStats fleetStats;           //!< failovers, revivals, ...
};

/** Runs one campaign through a coordinator. */
class FleetCampaign
{
  public:
    FleetCampaign(Coordinator &coordinator,
                  FleetCampaignOptions options);

    /**
     * Execute, journal and (optionally) persist the report. Per-app
     * rejections are quarantined in the report; the error path is
     * reserved for campaign-level problems: no routable worker left,
     * an undecodable reply, journal I/O failure, or a cell
     * configuration the wire protocol cannot express.
     */
    Result<FleetCampaignOutcome>
    run(std::span<const workload::AppSpec> apps);

    /**
     * The digest a serial `bvf_sim campaign` of this configuration
     * would stamp on its journal and report.
     */
    std::uint32_t
    configDigest(std::span<const workload::AppSpec> apps) const;

  private:
    /** The serial runner's options for this campaign. */
    campaign::CampaignOptions campaignOptions() const;

    /** Produce one app on the fleet. */
    Result<campaign::AppResult>
    remoteStep(const workload::AppSpec &spec);

    Coordinator &coordinator_;
    FleetCampaignOptions options_;
};

} // namespace bvf::fleet

#endif // BVF_FLEET_FLEET_CAMPAIGN_HH
