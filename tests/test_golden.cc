/**
 * @file
 * The checked-in campaign reports in tests/golden/ pin what the suite
 * computes. Each application, simulated afresh at the recorded
 * configuration, must render exactly its checked-in `app` line; one test
 * entry per application and configuration keeps every entry inside the
 * per-test timeout under the sanitizers, and a drift fails exactly that
 * application's entry with a message naming the column. A second test
 * per configuration checks the header: the configuration digest, the
 * columns and the application list.
 *
 * The references are `bvf_sim --report FILE all` output (plus --ecc for
 * campaign-ecc.txt); docs/TESTING.md describes how to re-record them.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <span>
#include <string>
#include <tuple>

#include "campaign/campaign.hh"
#include "common/atomic_file.hh"
#include "workload/app_spec.hh"

namespace bvf::campaign
{
namespace
{

/** One checked-in reference and the configuration it was recorded at. */
struct GoldenConfig
{
    const char *file;
    bool ecc;
};

/** Keeps test names stable: gtest would otherwise print raw bytes. */
void
PrintTo(const GoldenConfig &config, std::ostream *os)
{
    *os << config.file;
}

constexpr GoldenConfig defaultConfig{"campaign.txt", false};
constexpr GoldenConfig eccConfig{"campaign-ecc.txt", true};

/** The campaign bvf_sim runs with no options, or with only --ecc. */
CampaignOptions
optionsFor(const GoldenConfig &config)
{
    CampaignOptions options;
    options.pricing.ecc = config.ecc;
    options.run.fault.ecc = config.ecc ? fault::EccScheme::Secded72_64
                                       : fault::EccScheme::None;
    return options;
}

std::string
goldenText(const GoldenConfig &config)
{
    const std::string path = std::string(BVF_GOLDEN_DIR) + "/" + config.file;
    const auto bytes = readFileBytes(path);
    EXPECT_TRUE(bytes.ok()) << path;
    return bytes.ok() ? bytes.value() : std::string();
}

/** The lines of @p text that begin with @p prefix, newlines kept. */
std::string
linesStartingWith(const std::string &text, const std::string &prefix)
{
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = std::min(text.find('\n', pos), text.size());
        if (text.compare(pos, prefix.size(), prefix) == 0)
            out += text.substr(pos, end - pos) + "\n";
        pos = end + 1;
    }
    return out;
}

/** The application abbreviations of a report's `app` lines, in order. */
std::vector<std::string>
appList(const std::string &report)
{
    std::vector<std::string> abbrs;
    const std::string lines = linesStartingWith(report, "app ");
    std::size_t pos = 0;
    while (pos < lines.size()) {
        const std::size_t start = pos + 4;
        abbrs.push_back(lines.substr(start, lines.find(' ', start) - start));
        pos = lines.find('\n', pos) + 1;
    }
    return abbrs;
}

class GoldenHeader : public ::testing::TestWithParam<GoldenConfig>
{
};

TEST_P(GoldenHeader, MatchesTheSuiteAndConfiguration)
{
    // The digest covers machine, run options, pricing and the app list,
    // so a match proves the per-app entries below simulate at exactly
    // the recorded configuration.
    const auto &suite = workload::evaluationSuite();
    const core::ExperimentDriver driver(gpu::baselineConfig());
    CampaignReport expected;
    expected.configCrc =
        CampaignRunner(driver, optionsFor(GetParam())).configDigest(suite);
    for (const auto &spec : suite) {
        AppResult result;
        result.abbr = spec.abbr;
        expected.results.push_back(result);
    }
    expected.completed = static_cast<int>(suite.size());
    const std::string golden = goldenText(GetParam());
    const std::string rendered = expected.render();
    EXPECT_EQ(linesStartingWith(golden, "#"),
              linesStartingWith(rendered, "#"));
    EXPECT_EQ(appList(golden), appList(rendered));
}

INSTANTIATE_TEST_SUITE_P(Default, GoldenHeader,
                         ::testing::Values(defaultConfig));
INSTANTIATE_TEST_SUITE_P(Ecc, GoldenHeader, ::testing::Values(eccConfig));

class GoldenApp
    : public ::testing::TestWithParam<std::tuple<GoldenConfig, std::size_t>>
{
};

TEST_P(GoldenApp, RendersItsCheckedInLine)
{
    const auto &[config, index] = GetParam();
    const workload::AppSpec &spec = workload::evaluationSuite()[index];
    const core::ExperimentDriver driver(gpu::baselineConfig());
    const auto outcome = CampaignRunner(driver, optionsFor(config))
                             .run(std::span(&spec, 1));
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    const std::string actual = outcome.value().render();

    // A one-app campaign has its own digest and counts; GoldenHeader
    // checks the reference's header, so this compares the app line
    // under the run's own header.
    const std::string expected =
        linesStartingWith(actual, "#")
        + linesStartingWith(goldenText(config), "app " + spec.abbr + " ");
    const auto diffs = diffReports(expected, actual);
    ASSERT_TRUE(diffs.ok()) << diffs.error().describe();
    std::string listing;
    for (const std::string &diff : diffs.value())
        listing += "\n  " + diff;
    EXPECT_TRUE(diffs.value().empty())
        << config.file << " drifted:" << listing;
}

std::string
appName(const ::testing::TestParamInfo<GoldenApp::ParamType> &info)
{
    return workload::evaluationSuite()[std::get<1>(info.param)].abbr;
}

const auto suiteIndices =
    ::testing::Range<std::size_t>(0, workload::evaluationSuite().size());

INSTANTIATE_TEST_SUITE_P(Default, GoldenApp,
                         ::testing::Combine(::testing::Values(defaultConfig),
                                            suiteIndices),
                         appName);
INSTANTIATE_TEST_SUITE_P(Ecc, GoldenApp,
                         ::testing::Combine(::testing::Values(eccConfig),
                                            suiteIndices),
                         appName);

} // namespace
} // namespace bvf::campaign
