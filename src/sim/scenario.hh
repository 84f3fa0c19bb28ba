/**
 * @file
 * Seeded end-to-end fault scenarios for the fleet.
 *
 * One scenario = one full distributed campaign (coordinator + N
 * simulated workers + the campaign journal) executed in a single
 * thread on simulated time, while a seeded fault schedule drops,
 * delays, corrupts and duplicates wire messages, kills and restarts
 * workers, and tears or fails journal writes. The property under test
 * is the robustness contract of the whole stack:
 *
 *  - every run either produces the byte-identical report a fault-free
 *    ("serial") run of the same configuration produces, or fails
 *    cleanly with an error from the existing taxonomy;
 *  - it never hangs (a simulated-time/op watchdog turns livelock into
 *    a visible violation);
 *  - it never double-counts a job replayed across a failover;
 *  - it never accepts a corrupt journal as truth.
 *
 * Everything is a deterministic function of ScenarioOptions::seed, so
 * a sweep failure is reproduced exactly with
 * `bvf_simsweep --sim-seed N`.
 */

#ifndef BVF_SIM_SCENARIO_HH
#define BVF_SIM_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"

namespace bvf::sim
{

/** Knobs for one scenario run. */
struct ScenarioOptions
{
    std::uint64_t seed = 1;

    /** Scratch directory for journals/reports (required; reused). */
    std::string scratchDir;

    /**
     * Fault phases before the final quiet phase; each phase is one
     * campaign attempt (resume=true after the first). 0 draws 1-3
     * from the seed.
     */
    int maxPhases = 0;
};

/** What one scenario run observed. */
struct ScenarioResult
{
    bool ok = false;          //!< contract held (identical or clean)
    bool identical = false;   //!< produced the byte-identical report
    bool cleanFailure = false; //!< failed with a taxonomy error
    std::string violation;    //!< non-empty = the contract was broken
    int phases = 0;           //!< campaign attempts made
    int kills = 0;            //!< worker crashes injected
    std::uint64_t transportOps = 0;
    /** One note per phase that resumed a salvaged journal. */
    std::vector<std::string> salvaged;
};

/**
 * Run the scenario for @p options.seed. Returns an error only for
 * harness-level problems (unusable scratch dir); contract violations
 * are reported in ScenarioResult::violation so sweeps can print the
 * failing seed and keep counting.
 */
Result<ScenarioResult> runScenario(const ScenarioOptions &options);

} // namespace bvf::sim

#endif // BVF_SIM_SCENARIO_HH
