/**
 * @file
 * Tests for the resilient campaign layer: the crash-safe journal must
 * round-trip results bit-exactly and salvage torn tails, a resumed
 * campaign must render byte-identically to an uninterrupted one, the
 * watchdog must quarantine a hanging application without sinking the
 * run, retries must be counted and exhausted into quarantine, the
 * campaign loop must resume a journal cut anywhere and stop on a
 * step's error (driven by stub steps, without simulation), and a
 * report diffed against a golden one must flag a single ULP of drift.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "campaign/campaign.hh"
#include "common/atomic_file.hh"

namespace bvf::campaign
{
namespace
{

/** Self-cleaning scratch directory. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/bvf-campaign-XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        dir_ = made ? made : "";
    }

    ~TempDir()
    {
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((dir_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir_.c_str());
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

  private:
    std::string dir_;
};

/** A completed result with awkward (non-terminating) energy values. */
AppResult
sampleResult(const std::string &abbr, double seed)
{
    AppResult r;
    r.name = "app-" + abbr;
    r.abbr = abbr;
    r.status = AppStatus::Completed;
    r.attempts = 1;
    r.cycles = 123456 + static_cast<std::uint64_t>(seed);
    r.instructions = 654321;
    for (std::size_t i = 0; i < r.chipEnergy.size(); ++i) {
        r.chipEnergy[i] = (seed + static_cast<double>(i)) / 3.0;
        r.bvfUnitsEnergy[i] = (seed + static_cast<double>(i)) / 7.0;
    }
    return r;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Journal, RoundTripIsBitExact)
{
    std::vector<AppResult> results = {sampleResult("AAA", 1.0),
                                      sampleResult("BBB", 2.0)};
    AppResult bad;
    bad.name = "broken";
    bad.abbr = "BRK";
    bad.status = AppStatus::Quarantined;
    bad.attempts = 3;
    bad.error = Error{ErrorCode::Timeout, "watchdog fired"};
    results.push_back(bad);

    const std::string image = serializeJournal(0xdeadbeef, results);
    const auto loaded = parseJournal(image, 0xdeadbeef);
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.value().salvaged);
    const auto &parsed = loaded.value().results;
    ASSERT_EQ(parsed.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(parsed[i].name, results[i].name);
        EXPECT_EQ(parsed[i].abbr, results[i].abbr);
        EXPECT_EQ(parsed[i].status, results[i].status);
        EXPECT_EQ(parsed[i].attempts, results[i].attempts);
        EXPECT_EQ(parsed[i].error.code, results[i].error.code);
        EXPECT_EQ(parsed[i].error.message, results[i].error.message);
        EXPECT_EQ(parsed[i].cycles, results[i].cycles);
        EXPECT_EQ(parsed[i].instructions, results[i].instructions);
        for (std::size_t s = 0; s < parsed[i].chipEnergy.size(); ++s) {
            EXPECT_TRUE(sameBits(parsed[i].chipEnergy[s],
                                 results[i].chipEnergy[s]));
            EXPECT_TRUE(sameBits(parsed[i].bvfUnitsEnergy[s],
                                 results[i].bvfUnitsEnergy[s]));
        }
    }
}

TEST(Journal, RejectsForeignConfiguration)
{
    const std::vector<AppResult> results = {sampleResult("AAA", 1.0)};
    const std::string image = serializeJournal(0x1111, results);
    const auto loaded = parseJournal(image, 0x2222);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(loaded.error().message.find("different campaign"),
              std::string::npos);
}

TEST(Journal, RejectsGarbageAndForeignVersions)
{
    const auto garbage = parseJournal("definitely not a journal", 0);
    ASSERT_FALSE(garbage.ok());
    EXPECT_EQ(garbage.error().code, ErrorCode::Corrupt);

    const std::vector<AppResult> one = {sampleResult("AAA", 1.0)};
    std::string image = serializeJournal(0, one);
    image[4] = 99; // version field
    const auto version = parseJournal(image, 0);
    ASSERT_FALSE(version.ok());
    EXPECT_EQ(version.error().code, ErrorCode::Unsupported);
}

TEST(Journal, SalvagesTruncatedTail)
{
    const std::vector<AppResult> results = {sampleResult("AAA", 1.0),
                                            sampleResult("BBB", 2.0),
                                            sampleResult("CCC", 3.0)};
    const std::string image = serializeJournal(7, results);

    // Cut inside the last record: the two intact records survive.
    const auto cut = parseJournal(
        std::string_view(image).substr(0, image.size() - 5), 7);
    ASSERT_TRUE(cut.ok());
    EXPECT_TRUE(cut.value().salvaged);
    EXPECT_FALSE(cut.value().warning.empty());
    ASSERT_EQ(cut.value().results.size(), 2u);
    EXPECT_EQ(cut.value().results[1].abbr, "BBB");
}

TEST(Journal, SalvagesCorruptTailChecksum)
{
    const std::vector<AppResult> results = {sampleResult("AAA", 1.0),
                                            sampleResult("BBB", 2.0)};
    std::string image = serializeJournal(7, results);
    image[image.size() - 3] ^= 0x40; // damage the last payload

    const auto loaded = parseJournal(image, 7);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().salvaged);
    EXPECT_NE(loaded.value().warning.find("checksum"),
              std::string::npos);
    ASSERT_EQ(loaded.value().results.size(), 1u);
    EXPECT_EQ(loaded.value().results[0].abbr, "AAA");
}

TEST(Journal, HeaderOnlyImageHoldsZeroRecords)
{
    const std::string image = serializeJournal(7, {});
    const auto loaded = parseJournal(image, 7);
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.value().salvaged);
    EXPECT_TRUE(loaded.value().results.empty());
}

TEST(Journal, OnDiskAppendThenLoadRoundTrips)
{
    TempDir dir;
    const std::string path = dir.path("campaign.journal");
    CampaignJournal journal(path, 42);
    ASSERT_TRUE(journal.append(sampleResult("AAA", 1.0)).ok());
    ASSERT_TRUE(journal.append(sampleResult("BBB", 2.0)).ok());
    EXPECT_EQ(journal.records(), 2u);

    CampaignJournal reader(path, 42);
    const auto loaded = reader.load();
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.value().salvaged);
    ASSERT_EQ(loaded.value().results.size(), 2u);
    EXPECT_EQ(loaded.value().results[0].abbr, "AAA");
    EXPECT_EQ(loaded.value().results[1].abbr, "BBB");
}

TEST(Journal, AppendFailureSurfacesAndRollsBack)
{
    CampaignJournal journal("/nonexistent-dir/campaign.journal", 42);
    const auto appended = journal.append(sampleResult("AAA", 1.0));
    ASSERT_FALSE(appended.ok());
    EXPECT_EQ(appended.error().code, ErrorCode::Io);
    // The in-memory image must not silently diverge from disk.
    EXPECT_EQ(journal.records(), 0u);
}

/** Small deterministic app list for whole-campaign tests. */
std::vector<workload::AppSpec>
fastApps()
{
    return {workload::findApp("GAU"), workload::findApp("HWL")};
}

TEST(Campaign, RefusesExistingJournalWithoutResume)
{
    TempDir dir;
    const std::string path = dir.path("campaign.journal");
    ASSERT_TRUE(atomicWriteFile(path, "whatever").ok());

    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.journalPath = path;
    CampaignRunner runner(driver, opts);
    const auto apps = fastApps();
    const auto outcome = runner.run(apps);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(outcome.error().message.find("already exists"),
              std::string::npos);
}

TEST(Campaign, ResumedReportIsByteIdenticalToUninterrupted)
{
    TempDir dir;
    const auto apps = fastApps();
    core::ExperimentDriver driver(gpu::baselineConfig());

    // Reference: an uninterrupted campaign.
    CampaignOptions opts;
    opts.journalPath = dir.path("ref.journal");
    CampaignRunner reference(driver, opts);
    const auto ref = reference.run(apps);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref.value().completed, 2);

    // Simulate a kill -9 after the first app: a journal holding only
    // record zero, plus a torn frame for the in-flight second app.
    const std::uint32_t digest = reference.configDigest(apps);
    std::vector<AppResult> prefix = {ref.value().results[0]};
    std::string torn = serializeJournal(digest, prefix);
    torn += std::string("JREC\x30\x00", 6); // in-flight, cut mid-frame
    ASSERT_TRUE(atomicWriteFile(dir.path("torn.journal"), torn).ok());

    CampaignOptions resumeOpts;
    resumeOpts.journalPath = dir.path("torn.journal");
    resumeOpts.resume = true;
    CampaignRunner resumed(driver, resumeOpts);
    const auto cont = resumed.run(apps);
    ASSERT_TRUE(cont.ok());
    EXPECT_EQ(cont.value().resumed, 1);
    EXPECT_EQ(cont.value().completed, 2);
    EXPECT_TRUE(cont.value().results[0].fromJournal);
    EXPECT_FALSE(cont.value().results[1].fromJournal);

    // The acceptance bar: byte-identical reports.
    EXPECT_EQ(ref.value().render(), cont.value().render());
}

TEST(Campaign, ResumeRequiresMatchingConfiguration)
{
    TempDir dir;
    const auto apps = fastApps();
    core::ExperimentDriver driver(gpu::baselineConfig());

    // A journal stamped with a foreign digest must be refused.
    const std::string foreign = serializeJournal(0xbad0c0de, {});
    ASSERT_TRUE(
        atomicWriteFile(dir.path("foreign.journal"), foreign).ok());

    CampaignOptions opts;
    opts.journalPath = dir.path("foreign.journal");
    opts.resume = true;
    CampaignRunner runner(driver, opts);
    const auto outcome = runner.run(apps);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::InvalidArgument);
}

TEST(Campaign, DigestTracksResultsNotWallClock)
{
    core::ExperimentDriver driver(gpu::baselineConfig());
    const auto apps = fastApps();

    CampaignOptions a;
    CampaignOptions b;
    b.appTimeout = std::chrono::milliseconds(1234);
    b.maxRetries = 9; // wall-clock knobs must not invalidate journals
    EXPECT_EQ(CampaignRunner(driver, a).configDigest(apps),
              CampaignRunner(driver, b).configDigest(apps));

    CampaignOptions c;
    c.pricing.ecc = true; // pricing changes the numbers
    EXPECT_NE(CampaignRunner(driver, a).configDigest(apps),
              CampaignRunner(driver, c).configDigest(apps));

    CampaignOptions d;
    d.run.vsRegisterPivot = 13; // so do run options
    EXPECT_NE(CampaignRunner(driver, a).configDigest(apps),
              CampaignRunner(driver, d).configDigest(apps));

    // And so does the application list itself.
    std::vector<workload::AppSpec> fewer = {apps[0]};
    EXPECT_NE(CampaignRunner(driver, a).configDigest(apps),
              CampaignRunner(driver, a).configDigest(fewer));
}

TEST(Campaign, WatchdogQuarantinesHangWithoutSinkingTheRun)
{
    // One pathological application that would run for minutes, then a
    // normal one: the watchdog must reap the first and the campaign
    // must still complete the second.
    const workload::AppSpec &good = workload::findApp("GAU");
    workload::AppSpec hang = good;
    hang.name = "hanging-app";
    hang.abbr = "HNG";
    hang.loopIters = 2000; // ~300x the stock kernel: minutes of work
    const std::vector<workload::AppSpec> apps = {hang, good};

    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.maxRetries = 0;
    opts.backoffBase = std::chrono::milliseconds(0);

    // The watchdog is a multiple of the good app's time on this build
    // and host, measured without one, so a slow build (Debug ASan) or
    // a busy host stretches the budget with the work. 4x leaves the
    // good app room for a host that gets busier; the hang needs ~300x.
    const auto start = std::chrono::steady_clock::now();
    const auto alone = CampaignRunner(driver, opts).run(std::span(&good, 1));
    const auto goodTime = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(alone.ok() && alone.value().completed == 1);
    opts.appTimeout =
        std::chrono::ceil<std::chrono::milliseconds>(4 * goodTime);

    CampaignRunner runner(driver, opts);
    const auto outcome = runner.run(apps);
    ASSERT_TRUE(outcome.ok());
    const auto &report = outcome.value();
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].status, AppStatus::Quarantined);
    EXPECT_EQ(report.results[0].error.code, ErrorCode::Timeout);
    EXPECT_EQ(report.results[1].status, AppStatus::Completed);
    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(report.quarantined, 1);
}

TEST(Campaign, BrokenSpecExhaustsRetriesIntoQuarantine)
{
    workload::AppSpec broken = workload::findApp("GAU");
    broken.name = "broken-app";
    broken.abbr = "BRK";
    broken.blockThreads = 33; // not a multiple of the warp size
    const std::vector<workload::AppSpec> apps = {
        broken, workload::findApp("GAU")};

    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.maxRetries = 2;
    opts.backoffBase = std::chrono::milliseconds(1);
    CampaignRunner runner(driver, opts);
    const auto outcome = runner.run(apps);
    ASSERT_TRUE(outcome.ok());
    const auto &report = outcome.value();
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].status, AppStatus::Quarantined);
    EXPECT_EQ(report.results[0].attempts, 3u);
    EXPECT_EQ(report.results[0].error.code, ErrorCode::Failed);
    EXPECT_FALSE(report.results[0].error.message.empty());
    EXPECT_EQ(report.retried, 1);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.completed, 1);

    // Quarantined lines carry the failure, not fabricated numbers.
    const std::string rendered = report.render();
    EXPECT_NE(rendered.find("BRK quarantined 3 - - error"),
              std::string::npos);
}

TEST(Campaign, PricingRejectionIsQuarantined)
{
    // Both apps simulate; pricing then refuses BVF-6T past its
    // reliability limit. That is an app failure, not a crash.
    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.pricing.cellKind = circuit::CellKind::SramBvf6T;
    opts.pricing.cellsPerBitline = 128;
    opts.pricing.allowUnreliableCells = false;
    opts.maxRetries = 0;
    CampaignRunner runner(driver, opts);
    const auto outcome = runner.run(fastApps());
    ASSERT_TRUE(outcome.ok());
    const auto &report = outcome.value();
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].status, AppStatus::Quarantined);
    EXPECT_EQ(report.results[0].error.code, ErrorCode::Failed);
    EXPECT_NE(report.results[0].error.message.find(
                  "BVF-6T is unreliable beyond"),
              std::string::npos)
        << report.results[0].error.message;
    EXPECT_EQ(report.results[1].status, AppStatus::Quarantined);
    EXPECT_EQ(report.quarantined, 2);
    EXPECT_EQ(report.completed, 0);
}

class ParallelCampaign : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ParallelCampaign, ReportIsByteIdenticalToSerial)
{
    // The headline determinism claim: --jobs changes the wall clock and
    // nothing else. Two apps on four workers run concurrently.
    const auto first =
        workload::evaluationSuite().begin()
        + static_cast<std::ptrdiff_t>(GetParam());
    const std::vector<workload::AppSpec> apps(first, first + 2);
    core::ExperimentDriver driver(gpu::baselineConfig());

    CampaignOptions serialOpts;
    const auto serial = CampaignRunner(driver, serialOpts).run(apps);
    ASSERT_TRUE(serial.ok());

    CampaignOptions parallelOpts;
    parallelOpts.jobs = 4;
    const auto parallel =
        CampaignRunner(driver, parallelOpts).run(apps);
    ASSERT_TRUE(parallel.ok());

    EXPECT_EQ(parallel.value().completed, serial.value().completed);
    EXPECT_EQ(parallel.value().quarantined,
              serial.value().quarantined);
    EXPECT_EQ(parallel.value().render(), serial.value().render());
}

// The first six suite apps, two per entry so each entry fits the
// per-test timeout under the sanitizers.
INSTANTIATE_TEST_SUITE_P(
    Apps, ParallelCampaign, ::testing::Values(0, 2, 4),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return "Apps" + std::to_string(info.param) + "to"
               + std::to_string(info.param + 1);
    });

TEST(Campaign, ParallelJournalHoldsEveryResultAndSupportsResume)
{
    TempDir dir;
    const auto apps = fastApps();
    core::ExperimentDriver driver(gpu::baselineConfig());

    CampaignOptions opts;
    opts.jobs = 4;
    opts.journalPath = dir.path("parallel.journal");
    CampaignRunner runner(driver, opts);
    const auto outcome = runner.run(apps);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().completed, 2);

    // Workers append in completion order, which may differ from app
    // order; resume keys records by abbreviation, so a journal written
    // under --jobs 4 must restore a serial campaign completely.
    CampaignJournal reader(opts.journalPath,
                           runner.configDigest(apps));
    const auto loaded = reader.load();
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().results.size(), apps.size());

    CampaignOptions resumeOpts;
    resumeOpts.journalPath = opts.journalPath;
    resumeOpts.resume = true;
    const auto resumed =
        CampaignRunner(driver, resumeOpts).run(apps);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.value().resumed, 2);
    EXPECT_EQ(resumed.value().render(), outcome.value().render());
}

TEST(Campaign, ParallelQuarantineMatchesSerialCounters)
{
    // A broken spec in a parallel run must land in the same report
    // slot with the same counters as a serial run.
    workload::AppSpec broken = workload::findApp("GAU");
    broken.name = "broken-app";
    broken.abbr = "BRK";
    broken.blockThreads = 33;
    const std::vector<workload::AppSpec> apps = {
        workload::findApp("GAU"), broken, workload::findApp("HWL")};

    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.maxRetries = 1;
    opts.backoffBase = std::chrono::milliseconds(1);
    opts.jobs = 4;
    const auto outcome = CampaignRunner(driver, opts).run(apps);
    ASSERT_TRUE(outcome.ok());
    const auto &report = outcome.value();
    ASSERT_EQ(report.results.size(), 3u);
    EXPECT_EQ(report.results[1].abbr, "BRK");
    EXPECT_EQ(report.results[1].status, AppStatus::Quarantined);
    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.retried, 1);
}

// --- The campaign loop, driven by stub steps --------------------------

/** Specs that only name apps: a stub step needs no workload. */
std::vector<workload::AppSpec>
stubApps(const std::vector<std::string> &abbrs)
{
    std::vector<workload::AppSpec> specs;
    for (const std::string &abbr : abbrs) {
        workload::AppSpec spec;
        spec.name = "app-" + abbr;
        spec.abbr = abbr;
        specs.push_back(spec);
    }
    return specs;
}

/** A fixed result per app, keyed by its abbreviation. */
Result<AppResult>
stubStep(const workload::AppSpec &spec)
{
    return sampleResult(spec.abbr, static_cast<double>(spec.abbr[0]));
}

/** Records in the journal at @p path; 0 while it is missing or torn. */
std::size_t
journaledRecords(const std::string &path, std::uint32_t digest)
{
    const auto loaded = CampaignJournal(path, digest).load();
    return loaded.ok() ? loaded.value().results.size() : 0;
}

/** Poll @p done for up to ten seconds. */
template <typename Fn>
void
waitUntil(Fn done)
{
    for (int i = 0; i < 10000 && !done(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(CampaignLoop, JournalCutAtEveryOffsetResumesOrRefusesCleanly)
{
    TempDir dir;
    const auto apps = stubApps({"AAA", "BBB", "CCC"});
    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.journalPath = dir.path("full.journal");
    const auto full = CampaignRunner(driver, opts).run(apps, stubStep);
    ASSERT_TRUE(full.ok());
    const auto bytes = readFileBytes(opts.journalPath);
    ASSERT_TRUE(bytes.ok());

    opts.journalPath = dir.path("cut.journal");
    opts.resume = true;
    int resumedSome = 0;
    for (std::size_t cut = 0; cut <= bytes.value().size(); ++cut) {
        ASSERT_TRUE(
            atomicWriteFile(opts.journalPath, bytes.value().substr(0, cut))
                .ok());
        const auto resumed =
            CampaignRunner(driver, opts).run(apps, stubStep);
        if (resumed.ok()) {
            // Salvaged or whole, every app is delivered exactly once.
            EXPECT_EQ(resumed.value().render(), full.value().render())
                << cut;
            resumedSome += resumed.value().resumed > 0 ? 1 : 0;
        } else {
            // Header damage is refused from the taxonomy, never a crash.
            const ErrorCode code = resumed.error().code;
            EXPECT_TRUE(code == ErrorCode::Corrupt
                        || code == ErrorCode::InvalidArgument)
                << cut << ": " << resumed.error().describe();
        }
    }
    EXPECT_GT(resumedSome, 0);
}

TEST(CampaignLoop, SalvageNoteReachesTheCaller)
{
    TempDir dir;
    const auto apps = stubApps({"AAA", "BBB"});
    core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignOptions opts;
    opts.journalPath = dir.path("full.journal");
    ASSERT_TRUE(CampaignRunner(driver, opts).run(apps, stubStep).ok());
    const auto bytes = readFileBytes(opts.journalPath);
    ASSERT_TRUE(bytes.ok());

    // A torn tail: the last record loses its final byte.
    opts.journalPath = dir.path("torn.journal");
    opts.resume = true;
    ASSERT_TRUE(atomicWriteFile(opts.journalPath,
                                bytes.value().substr(
                                    0, bytes.value().size() - 1))
                    .ok());
    std::vector<std::string> notes;
    opts.onSalvage = [&notes](const std::string &note) {
        notes.push_back(note);
    };
    const auto resumed = CampaignRunner(driver, opts).run(apps, stubStep);
    ASSERT_TRUE(resumed.ok()) << resumed.error().describe();
    EXPECT_EQ(resumed.value().resumed, 1);
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].rfind("journal '" + opts.journalPath + "': ", 0),
              0u)
        << notes[0];

    // The resume rewrote a whole journal: nothing left to salvage.
    notes.clear();
    ASSERT_TRUE(CampaignRunner(driver, opts).run(apps, stubStep).ok());
    EXPECT_TRUE(notes.empty());
}

TEST(CampaignLoop, StepErrorEndsTheCampaignAfterAppOne)
{
    const auto apps = stubApps({"AAA", "BBB", "CCC"});
    core::ExperimentDriver driver(gpu::baselineConfig());
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        TempDir dir;
        CampaignOptions opts;
        opts.journalPath = dir.path("campaign.journal");
        opts.jobs = jobs;
        CampaignRunner runner(driver, opts);
        const std::uint32_t digest = runner.configDigest(apps);

        std::atomic<bool> failing{false};
        std::atomic<int> lastAppSteps{0};
        const AppStep step =
            [&](const workload::AppSpec &spec) -> Result<AppResult> {
            if (spec.abbr == "BBB") {
                // Fail only once app 1 is on disk, so the pool's
                // interleaving cannot decide what the journal holds.
                waitUntil([&] {
                    return journaledRecords(opts.journalPath, digest) == 1;
                });
                failing = true;
                return Error{ErrorCode::Io, "stub: the fleet is gone"};
            }
            if (spec.abbr == "CCC") {
                // Under the pool app 3 runs alongside app 2; finish
                // well after app 2's error has landed.
                ++lastAppSteps;
                waitUntil([&] { return failing.load(); });
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
            return stubStep(spec);
        };

        const auto outcome = runner.run(apps, step);
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.error().code, ErrorCode::Io);
        EXPECT_EQ(outcome.error().message, "stub: the fleet is gone");
        const auto loaded = CampaignJournal(opts.journalPath, digest).load();
        ASSERT_TRUE(loaded.ok());
        ASSERT_EQ(loaded.value().results.size(), 1u);
        EXPECT_EQ(loaded.value().results[0].abbr, "AAA");
        if (jobs == 1) {
            EXPECT_EQ(lastAppSteps.load(), 0); // the loop stopped
        }
    }
}

/** A synthetic two-app report; golden tests need no simulation. */
CampaignReport
syntheticReport()
{
    CampaignReport report;
    report.configCrc = 0x5eed;
    report.results = {sampleResult("AAA", 1.0), sampleResult("BBB", 2.0)};
    AppResult bad;
    bad.abbr = "BRK";
    bad.status = AppStatus::Quarantined;
    report.results.push_back(bad);
    report.completed = 2;
    report.quarantined = 1;
    return report;
}

/** Every diff line, one per line, for failure messages. */
std::string
listing(const std::vector<std::string> &diffs)
{
    std::string out;
    for (const std::string &diff : diffs)
        out += diff + "\n";
    return out;
}

TEST(Golden, RecordThenVerifyIsClean)
{
    const std::string golden = syntheticReport().render();
    const auto diffs = diffReports(golden, syntheticReport().render());
    ASSERT_TRUE(diffs.ok()) << diffs.error().describe();
    EXPECT_TRUE(diffs.value().empty()) << listing(diffs.value());
}

TEST(Golden, SingleUlpDriftIsDetected)
{
    const std::string golden = syntheticReport().render();
    CampaignReport report = syntheticReport();

    // Nudge one chip energy by exactly one ULP.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &report.results[1].chipEnergy[2], sizeof(bits));
    ++bits;
    std::memcpy(&report.results[1].chipEnergy[2], &bits, sizeof(bits));

    const auto diffs = diffReports(golden, report.render());
    ASSERT_TRUE(diffs.ok()) << diffs.error().describe();
    ASSERT_EQ(diffs.value().size(), 1u) << listing(diffs.value());
    const std::string column =
        "chip:" + coder::scenarioName(coder::allScenarios[2]);
    EXPECT_EQ(diffs.value()[0].rfind("BBB " + column + " expected 0x", 0),
              0u)
        << diffs.value()[0];
}

TEST(Golden, MissingAndUnexpectedAppsAreReported)
{
    const std::string golden = syntheticReport().render();

    // The fresh campaign lost BBB and gained CCC.
    CampaignReport shifted = syntheticReport();
    shifted.results[1] = sampleResult("CCC", 3.0);
    const auto diffs = diffReports(golden, shifted.render());
    ASSERT_TRUE(diffs.ok()) << diffs.error().describe();
    EXPECT_EQ(diffs.value(),
              (std::vector<std::string>{"BBB missing", "CCC unexpected"}));
}

TEST(Golden, QuarantinedAppShowsAsADiff)
{
    // BRK was quarantined when the golden report was recorded; the
    // fresh campaign completes it, and a quarantine of AAA is new.
    const std::string golden = syntheticReport().render();
    CampaignReport report = syntheticReport();
    report.results[2] = sampleResult("BRK", 4.0);
    report.results[0].status = AppStatus::Quarantined;
    report.results[0].error = Error{ErrorCode::Failed, "hung"};
    const auto diffs = diffReports(golden, report.render());
    ASSERT_TRUE(diffs.ok()) << diffs.error().describe();
    EXPECT_EQ(diffs.value(),
              (std::vector<std::string>{
                  "AAA status expected ok got quarantined",
                  "BRK status expected quarantined got ok"}));
}

TEST(Golden, ForeignConfigurationIsRefused)
{
    const CampaignReport report = syntheticReport();
    CampaignReport other = report;
    other.configCrc = 0x0bad;
    const auto diffs = diffReports(report.render(), other.render());
    ASSERT_FALSE(diffs.ok());
    EXPECT_EQ(diffs.error().code, ErrorCode::InvalidArgument);
}

TEST(Golden, GarbageSnapshotIsAStructuredError)
{
    const std::string report = syntheticReport().render();
    for (const auto &[expected, actual] :
         {std::pair<std::string, std::string>{"not a report\n", report},
          {report, "not a report\n"},
          {report, report + "stray line\n"}}) {
        const auto diffs = diffReports(expected, actual);
        ASSERT_FALSE(diffs.ok());
        EXPECT_EQ(diffs.error().code, ErrorCode::Corrupt);
    }
}

} // namespace
} // namespace bvf::campaign
