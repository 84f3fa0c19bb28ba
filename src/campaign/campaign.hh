/**
 * @file
 * Resilient campaign orchestration.
 *
 * A campaign drives a list of applications through the experiment
 * driver and prices each under one campaign-wide Pricing, with the
 * robustness a multi-hour 58-app x 5-scenario sweep needs:
 *
 *  - crash safety: every finished application is journaled through the
 *    atomic-rename path, so a kill -9 loses at most the in-flight app
 *    and `resume` continues the campaign bit-identically;
 *  - a watchdog: each attempt gets a wall-clock budget enforced by
 *    cooperative cancellation inside the GPU cycle loop, so a
 *    pathological specification times out instead of hanging;
 *  - retry with exponential backoff: a failed attempt (fault, timeout,
 *    broken spec) is reseeded and retried; an application exhausting
 *    its attempts is quarantined and reported, never sinking the run.
 *
 * The rendered report deliberately excludes resume/wall-clock metadata:
 * an interrupted-then-resumed campaign renders the same bytes as an
 * uninterrupted one, which is what makes partial results trustworthy.
 *
 * With jobs > 1 applications are simulated concurrently on a
 * thread pool. Each application is still simulated by exactly
 * one thread with all-local state and a per-call watchdog, results are
 * merged in campaign order (runtime/ordered.hh) and journal appends are
 * serialized, so a parallel campaign's report is byte-identical to the
 * serial one -- only the journal's line order (irrelevant to resume,
 * which keys by abbreviation) reflects completion order.
 */

#ifndef BVF_CAMPAIGN_CAMPAIGN_HH
#define BVF_CAMPAIGN_CAMPAIGN_HH

#include <chrono>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hh"
#include "core/experiment.hh"

namespace bvf::campaign
{

/** Campaign-wide knobs. */
struct CampaignOptions
{
    /** Journal file; empty runs the campaign without persistence. */
    std::string journalPath;

    /**
     * Continue from an existing journal instead of refusing to touch
     * it. Without resume, a pre-existing journal is an error -- a
     * half-finished campaign should never be silently overwritten.
     */
    bool resume = false;

    /** Wall-clock budget per attempt; zero disables the watchdog. */
    std::chrono::milliseconds appTimeout{0};

    /** Extra attempts after the first failure (reseeded each time). */
    int maxRetries = 1;

    /** First retry backoff; doubled per subsequent retry. */
    std::chrono::milliseconds backoffBase{100};

    /**
     * Worker threads simulating applications concurrently; <= 1 runs
     * the classic serial loop. Absent from configDigest() for the same
     * reason as the wall-clock knobs: parallelism must not (and, by the
     * ordered-merge construction, does not) change any result byte.
     */
    int jobs = 1;

    /** Simulation options applied to every application. */
    core::RunOptions run;

    /** Pricing every application's energies are evaluated under. */
    core::Pricing pricing;

    /**
     * Told "journal 'PATH': WHAT" when a resume loads a journal by
     * salvaging its intact records and dropping a damaged tail. Unset,
     * the note is a warn() line.
     */
    std::function<void(const std::string &note)> onSalvage;
};

/** Campaign outcome: per-app results plus bookkeeping counters. */
struct CampaignReport
{
    std::vector<AppResult> results; //!< campaign order, all apps
    int completed = 0;   //!< simulated or restored successfully
    int resumed = 0;     //!< restored from the journal, not re-run
    int retried = 0;     //!< needed more than one attempt
    int quarantined = 0; //!< exhausted every attempt
    std::uint32_t configCrc = 0;

    /**
     * Canonical textual report: one line per application with exact
     * (hexfloat) per-scenario energies. Identical bytes for resumed and
     * uninterrupted campaigns of the same configuration. A rendered
     * report is also the golden reference (tests/golden/) a later
     * campaign is checked against with diffReports().
     */
    std::string render() const;
};

/**
 * Compare two rendered reports. Returns one entry per header line that
 * differs and one per differing column of an `app` line, naming the app
 * and the column from @p expected's `# columns:` line (e.g. "BCK chip:NV
 * expected 0x1.74...p-18 got 0x1.75...p-18"); apps present on one side
 * only are listed as missing or unexpected. Empty means identical.
 *
 * Text that is not a campaign report is a Corrupt error, and reports of
 * two different configurations (their `# config` digests differ) are
 * refused with InvalidArgument: their numbers are not comparable.
 */
Result<std::vector<std::string>> diffReports(std::string_view expected,
                                             std::string_view actual);

/**
 * How a campaign produces one application's result. A failed
 * application is a Quarantined result; an Error is a campaign-level
 * failure that ends the campaign.
 */
using AppStep =
    std::function<Result<AppResult>(const workload::AppSpec &)>;

/**
 * Drives applications through an ExperimentDriver with journaling,
 * watchdog, retry and quarantine.
 */
class CampaignRunner
{
  public:
    CampaignRunner(const core::ExperimentDriver &driver,
                   CampaignOptions options);

    /**
     * Run (or resume) the campaign over @p apps.
     *
     * Per-application failures are quarantined, never returned as
     * errors; the error path is reserved for campaign-level problems
     * (journal conflicts, persistence failures).
     */
    Result<CampaignReport> run(std::span<const workload::AppSpec> apps);

    /**
     * Run (or resume) the campaign over @p apps, producing each app
     * that the journal does not already hold with @p step. The first
     * Error -- from the step or from a journal append -- stops every
     * later app and is returned.
     */
    Result<CampaignReport> run(std::span<const workload::AppSpec> apps,
                               const AppStep &step);

    /**
     * Digest of everything that determines campaign results: machine,
     * run options, pricing and the application list. Journals carry it
     * so a resume under a different configuration fails loudly.
     */
    std::uint32_t configDigest(
        std::span<const workload::AppSpec> apps) const;

  private:
    /**
     * Simulate one application (with watchdog, retry, quarantine).
     * Uses only local state -- including a per-call watchdog token --
     * so any number of pool workers may run it concurrently.
     */
    AppResult runOneApp(const workload::AppSpec &spec) const;

    const core::ExperimentDriver &driver_;
    CampaignOptions options_;
};

} // namespace bvf::campaign

#endif // BVF_CAMPAIGN_CAMPAIGN_HH
