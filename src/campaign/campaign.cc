/**
 * @file
 * Campaign runner implementation.
 */

#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/atomic_file.hh"
#include "common/cancel.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "runtime/ordered.hh"
#include "runtime/thread_pool.hh"

namespace bvf::campaign
{

namespace
{

constexpr const char *reportMagic = "# BVF campaign report v1";

/** Hexfloat: exact, locale-free, round-trips bit-identically. */
std::string
exactDouble(double v)
{
    return strFormat("%a", v);
}

std::vector<std::string>
splitWords(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> words;
    for (std::string word; in >> word;)
        words.push_back(word);
    return words;
}

/** A rendered report: its `#` lines and its `app` lines by app. */
struct ReportLines
{
    std::vector<std::string> header;
    std::vector<std::pair<std::string, std::string>> apps; //!< abbr, line

    /** The rest of the first header line starting with @p prefix. */
    std::string
    headerField(const std::string &prefix) const
    {
        for (const std::string &line : header) {
            if (line.rfind(prefix, 0) == 0)
                return line.substr(prefix.size());
        }
        return "";
    }

    const std::string *
    app(const std::string &abbr) const
    {
        for (const auto &[name, line] : apps) {
            if (name == abbr)
                return &line;
        }
        return nullptr;
    }
};

Result<ReportLines>
splitReport(std::string_view text, const char *side)
{
    std::istringstream in{std::string(text)};
    std::string line;
    if (!std::getline(in, line) || line != reportMagic) {
        return Error{ErrorCode::Corrupt,
                     strFormat("%s text is not a campaign report", side)};
    }
    ReportLines out;
    out.header.push_back(line);
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            out.header.push_back(line);
            continue;
        }
        const auto words = splitWords(line);
        if (words.size() < 3 || words[0] != "app") {
            return Error{ErrorCode::Corrupt,
                         strFormat("%s report has a malformed line: %s",
                                   side, line.c_str())};
        }
        out.apps.emplace_back(words[1], line);
    }
    return out;
}

/** Append the differences between two `app` lines of one app. */
void
diffAppLine(const std::vector<std::string> &columns,
            const std::string &expected, const std::string &actual,
            std::vector<std::string> &diffs)
{
    if (expected == actual)
        return;
    // Word i of an app line sits in column i - 1: the line starts with
    // "app" and the abbreviation's column is called "app".
    const auto e = splitWords(expected);
    const auto a = splitWords(actual);
    const char *abbr = e[1].c_str();
    if (e[2] != a[2]) {
        diffs.push_back(strFormat("%s status expected %s got %s", abbr,
                                  e[2].c_str(), a[2].c_str()));
        return;
    }
    if (e[2] != appStatusName(AppStatus::Completed)) {
        // Failed on both sides, with different free-form error text.
        diffs.push_back(strFormat("%s expected '%s' got '%s'", abbr,
                                  expected.c_str(), actual.c_str()));
        return;
    }
    for (std::size_t i = 3; i < std::max(e.size(), a.size()); ++i) {
        const std::string want = i < e.size() ? e[i] : "(none)";
        const std::string got = i < a.size() ? a[i] : "(none)";
        if (want == got)
            continue;
        const std::string column = i - 1 < columns.size()
                                       ? columns[i - 1]
                                       : strFormat("#%zu", i - 1);
        diffs.push_back(strFormat("%s %s expected %s got %s", abbr,
                                  column.c_str(), want.c_str(),
                                  got.c_str()));
    }
}

} // namespace

std::string
CampaignReport::render() const
{
    std::string out;
    out += reportMagic;
    out += "\n";
    out += strFormat("# config %08x\n", configCrc);
    out += strFormat("# apps %zu completed %d quarantined %d\n",
                     results.size(), completed, quarantined);
    out += "# columns: app status attempts cycles instructions";
    for (const auto s : coder::allScenarios)
        out += strFormat(" chip:%s", coder::scenarioName(s).c_str());
    for (const auto s : coder::allScenarios)
        out += strFormat(" units:%s", coder::scenarioName(s).c_str());
    out += "\n";
    for (const AppResult &r : results) {
        out += strFormat("app %s %s %u", r.abbr.c_str(),
                         appStatusName(r.status).c_str(), r.attempts);
        if (r.status == AppStatus::Completed) {
            out += strFormat(
                " %llu %llu",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
            // Appended in steps, as in Error::describe.
            for (const double v : r.chipEnergy) {
                out += ' ';
                out += exactDouble(v);
            }
            for (const double v : r.bvfUnitsEnergy) {
                out += ' ';
                out += exactDouble(v);
            }
        } else {
            out += strFormat(" - - error %s",
                             r.error.describe().c_str());
        }
        out += "\n";
    }
    return out;
}

Result<std::vector<std::string>>
diffReports(std::string_view expected, std::string_view actual)
{
    const auto expectedLines = splitReport(expected, "expected");
    if (!expectedLines.ok())
        return expectedLines.error();
    const auto actualLines = splitReport(actual, "actual");
    if (!actualLines.ok())
        return actualLines.error();
    const ReportLines &e = expectedLines.value();
    const ReportLines &a = actualLines.value();

    const std::string wantConfig = e.headerField("# config ");
    const std::string gotConfig = a.headerField("# config ");
    if (wantConfig != gotConfig) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("the reports were produced under different "
                               "campaign configurations (digest %s, "
                               "expected %s)",
                               gotConfig.c_str(), wantConfig.c_str())};
    }

    std::vector<std::string> diffs;
    for (std::size_t i = 0; i < std::max(e.header.size(), a.header.size());
         ++i) {
        const std::string want = i < e.header.size() ? e.header[i] : "(none)";
        const std::string got = i < a.header.size() ? a.header[i] : "(none)";
        if (want != got) {
            diffs.push_back(strFormat("header expected '%s' got '%s'",
                                      want.c_str(), got.c_str()));
        }
    }

    const auto columns = splitWords(e.headerField("# columns: "));
    for (const auto &[abbr, line] : e.apps) {
        if (const std::string *other = a.app(abbr))
            diffAppLine(columns, line, *other, diffs);
        else
            diffs.push_back(abbr + " missing");
    }
    for (const auto &[abbr, line] : a.apps) {
        if (!e.app(abbr))
            diffs.push_back(abbr + " unexpected");
    }
    if (diffs.empty() && expected != actual)
        diffs.push_back("the same lines in a different order or layout");
    return diffs;
}

CampaignRunner::CampaignRunner(const core::ExperimentDriver &driver,
                               CampaignOptions options)
    : driver_(driver), options_(std::move(options))
{
}

std::uint32_t
CampaignRunner::configDigest(
    std::span<const workload::AppSpec> apps) const
{
    const gpu::GpuConfig &config = driver_.config();
    const core::Pricing &p = options_.pricing;
    const core::RunOptions &r = options_.run;
    // Everything that changes the numbers must be in the digest;
    // wall-clock knobs (timeout, retries, backoff) deliberately are
    // not -- they only change *whether* an app finishes, and a journal
    // written under a laxer watchdog is still valid under a stricter
    // one.
    std::string canon = strFormat(
        "arch=%d sms=%d sched=%d node=%d vdd=%a freq=%a cell=%d "
        "ecc=%d cpb=%d unreliable=%d dyn=%d pivot=%d "
        "fault=%d fseed=%llu fsoft=%a fdisturb=%a fstuck=%a fecc=%d "
        "apps=",
        static_cast<int>(config.arch), config.numSms,
        static_cast<int>(config.scheduler), static_cast<int>(p.node),
        p.pstate.vdd, p.pstate.frequency, static_cast<int>(p.cellKind),
        p.ecc ? 1 : 0, p.cellsPerBitline,
        p.allowUnreliableCells ? 1 : 0, r.dynamicIsa ? 1 : 0,
        r.vsRegisterPivot, r.fault.enabled ? 1 : 0,
        static_cast<unsigned long long>(r.fault.seed),
        r.fault.softErrorRate, r.fault.readDisturbRate,
        r.fault.stuckAtFraction, static_cast<int>(r.fault.ecc));
    for (const workload::AppSpec &spec : apps)
        canon += spec.abbr + ",";
    return crc32(canon.data(), canon.size());
}

AppResult
CampaignRunner::runOneApp(const workload::AppSpec &spec) const
{
    AppResult result;
    result.name = spec.name;
    result.abbr = spec.abbr;
    Error last{ErrorCode::Failed, "unknown failure"};
    // Per-call watchdog: a member token would be shared across pool
    // workers, and one app's timeout must never cancel another's run.
    CancelToken watchdog;

    const int maxAttempts = options_.maxRetries + 1;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        if (attempt > 0) {
            const auto backoff = options_.backoffBase * (1LL << (attempt - 1));
            warn("%s attempt %d/%d failed (%s); retrying with fresh "
                 "seed after %lld ms",
                 spec.abbr.c_str(), attempt, maxAttempts,
                 last.describe().c_str(),
                 static_cast<long long>(backoff.count()));
            if (backoff.count() > 0)
                std::this_thread::sleep_for(backoff);
        }

        workload::AppSpec trial = spec;
        trial.seedSalt = spec.seedSalt + static_cast<std::uint64_t>(attempt);

        core::RunOptions runOptions = options_.run;
        if (options_.appTimeout.count() > 0) {
            watchdog.reset();
            watchdog.setBudget(options_.appTimeout);
            runOptions.cancel = &watchdog;
        }

        auto attempted = driver_.runAppChecked(trial, runOptions);
        if (!attempted.ok()) {
            last = attempted.error();
            continue;
        }

        // Pricing can also reject a configuration (e.g. an unreliable
        // cell geometry); that is an application failure, not a crash.
        const auto priced = core::trapFatal([&] {
            return driver_.evaluate(attempted.value(), options_.pricing);
        });
        if (!priced.ok()) {
            last = priced.error();
            continue;
        }
        result.status = AppStatus::Completed;
        result.attempts = static_cast<std::uint32_t>(attempt + 1);
        result.error = Error{};
        result.cycles = attempted.value().gpuStats.cycles;
        result.instructions = attempted.value().gpuStats.sm.issued;
        result.chipEnergy = priced.value().chipTotals();
        result.bvfUnitsEnergy = priced.value().bvfUnitsTotals();
        return result;
    }

    result.status = AppStatus::Quarantined;
    result.attempts = static_cast<std::uint32_t>(maxAttempts);
    result.error = last;
    warn("quarantining %s after %d attempt(s): %s", spec.abbr.c_str(),
         maxAttempts, last.describe().c_str());
    return result;
}

Result<CampaignReport>
CampaignRunner::run(std::span<const workload::AppSpec> apps)
{
    return run(apps, [this](const workload::AppSpec &spec)
                   -> Result<AppResult> { return runOneApp(spec); });
}

Result<CampaignReport>
CampaignRunner::run(std::span<const workload::AppSpec> apps,
                    const AppStep &step)
{
    CampaignReport report;
    report.configCrc = configDigest(apps);

    // Results already on disk, keyed by abbreviation.
    std::vector<AppResult> restored;
    std::optional<CampaignJournal> journal;
    if (!options_.journalPath.empty()) {
        journal.emplace(options_.journalPath, report.configCrc);
        if (fileExists(options_.journalPath)) {
            if (!options_.resume) {
                return Error{
                    ErrorCode::InvalidArgument,
                    strFormat("journal '%s' already exists; resume the "
                              "campaign or remove it to start over",
                              options_.journalPath.c_str())};
            }
            auto loaded = journal->load();
            if (!loaded.ok())
                return loaded.error();
            if (loaded.value().salvaged) {
                const std::string note =
                    strFormat("journal '%s': %s",
                              options_.journalPath.c_str(),
                              loaded.value().warning.c_str());
                if (options_.onSalvage)
                    options_.onSalvage(note);
                else
                    warn("%s", note.c_str());
            }
            restored = std::move(loaded.value().results);
            journal->adopt(restored);
            inform("resuming campaign: %zu application(s) restored "
                   "from '%s'",
                   restored.size(), options_.journalPath.c_str());
        } else if (options_.resume) {
            inform("resume requested but '%s' does not exist; starting "
                   "a fresh campaign",
                   options_.journalPath.c_str());
        }
    }

    auto findRestored = [&](const std::string &abbr) -> const AppResult * {
        for (const AppResult &r : restored) {
            if (r.abbr == abbr)
                return &r;
        }
        return nullptr;
    };

    // One producer shared by both execution shapes. Journal appends
    // are serialized and happen in completion order; resume keys by
    // abbreviation, so line order is free to vary across runs. The
    // first campaign-level error wins and stops every later app.
    std::mutex journalMutex;
    std::atomic<bool> failed{false};
    Error failure;
    auto fail = [&](Error error) { // caller holds journalMutex
        if (!failed.load(std::memory_order_relaxed)) {
            failure = std::move(error);
            failed.store(true, std::memory_order_release);
        }
    };
    auto produce = [&](const workload::AppSpec &spec) -> AppResult {
        if (const AppResult *prior = findRestored(spec.abbr)) {
            AppResult result = *prior;
            result.fromJournal = true;
            return result;
        }
        // The campaign is doomed once anything failed; don't burn
        // hours producing results that will be discarded.
        AppResult skipped;
        skipped.name = spec.name;
        skipped.abbr = spec.abbr;
        skipped.error = Error{ErrorCode::Failed,
                              "skipped after a campaign failure"};
        if (failed.load(std::memory_order_acquire))
            return skipped;
        inform("simulating %s (%s)", spec.name.c_str(),
               spec.abbr.c_str());
        auto produced = step(spec);
        std::lock_guard<std::mutex> lock(journalMutex);
        if (!produced.ok()) {
            fail(produced.error());
            return skipped;
        }
        if (journal && !failed.load(std::memory_order_relaxed)) {
            if (auto appended = journal->append(produced.value());
                !appended.ok())
                fail(appended.error());
        }
        return std::move(produced.value());
    };

    if (options_.jobs > 1 && apps.size() > 1) {
        runtime::ThreadPool pool(options_.jobs);
        report.results = runtime::parallelMapOrdered(
            pool, apps,
            [&](const workload::AppSpec &spec, std::size_t) {
                return produce(spec);
            });
    } else {
        report.results.reserve(apps.size());
        for (const workload::AppSpec &spec : apps) {
            report.results.push_back(produce(spec));
            if (failed.load(std::memory_order_acquire))
                break;
        }
    }
    if (failed.load(std::memory_order_acquire))
        return failure;

    // Counters derive from the ordered results, never from completion
    // order, so they match the serial campaign bit for bit.
    for (const AppResult &r : report.results) {
        if (r.fromJournal)
            ++report.resumed;
        if (r.status == AppStatus::Completed)
            ++report.completed;
        else
            ++report.quarantined;
        if (r.attempts > 1)
            ++report.retried;
    }
    return report;
}

} // namespace bvf::campaign
