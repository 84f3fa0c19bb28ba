/**
 * @file
 * Distributed campaign: the 58-app sweep sharded across a bvfd fleet.
 *
 * Each application becomes one ChipEnergyRequest routed by its
 * abbreviation through the coordinator, so under normal operation the
 * suite partitions cleanly across workers and each worker's journal
 * holds a disjoint shard. Failover blurs that -- an app whose primary
 * died finishes on a failover worker and lands in *that* worker's
 * journal, possibly alongside a replayed copy elsewhere -- and the
 * merge (fleet/merge.hh) is what restores the exactly-once,
 * campaign-ordered, bit-identical-to-serial report at the end.
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

#include <span>
#include <string>
#include <vector>

#include "common/result.hh"
#include "core/eval_config.hh"
#include "fleet/coordinator.hh"
#include "fleet/merge.hh"
#include "workload/app_spec.hh"

namespace bvf::fleet
{

/** Knobs for one distributed campaign. */
struct FleetCampaignOptions
{
    /** Directory for per-worker shard journals (required). */
    std::string journalDir;

    /** Merged report file; empty skips writing (render still runs). */
    std::string reportPath;

    /** Merged single-journal file; empty skips writing. */
    std::string mergedJournalPath;

    /** Continue from existing shard journals instead of refusing. */
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
};

/** Everything a finished fleet campaign hands back. */
struct FleetCampaignOutcome
{
    campaign::CampaignReport report; //!< merged, campaign-ordered
    MergeOutcome mergeInfo;          //!< dedupe/salvage accounting
    FleetStats fleetStats;           //!< failovers, revivals, ...
    std::vector<std::string> shardPaths;
    int restored = 0; //!< apps adopted from shard journals (resume)
};

/** Runs one campaign through a coordinator and merges the shards. */
class FleetCampaign
{
  public:
    FleetCampaign(Coordinator &coordinator,
                  FleetCampaignOptions options);

    /**
     * Shard, execute, journal, merge, and (optionally) persist the
     * report. Per-app rejections are quarantined in the report; the
     * error path is reserved for campaign-level problems: no routable
     * worker left, journal I/O failure, merge conflict, or a cell
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

    /** Shard journal path for worker @p index under journalDir. */
    std::string shardPath(std::size_t index) const;

  private:
    Coordinator &coordinator_;
    FleetCampaignOptions options_;
};

} // namespace bvf::fleet

#endif // BVF_FLEET_FLEET_CAMPAIGN_HH
