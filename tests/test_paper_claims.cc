/**
 * @file
 * The paper's Fig 18 claims, checked against the checked-in campaign
 * report. tests/golden/campaign.txt is `bvf_sim --report FILE all` at
 * the default configuration (28 nm pricing), so every claim here is a
 * function of its bytes and nothing is simulated. test_golden proves
 * the golden is what the code computes; these checks prove it still
 * says what the paper says, which a deliberate re-record could change
 * without failing anything else.
 *
 * Every saving is one minus the mean of per-app ratios to Baseline, as
 * ExperimentDriver::meanChipRatio computes it. Each claim has a band
 * around the paper's figure, with its reason beside it, and a failure
 * names the figure. The negative control scales the BVF columns of the
 * golden's rows and expects exactly the Fig 18 headline to fail.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "workload/app_spec.hh"

namespace bvf
{
namespace
{

/** The report's scenarios, in column order. */
constexpr std::array<const char *, 5> kScenarios{"Baseline", "NV", "VS",
                                                 "ISA", "BVF"};
enum Scenario : std::size_t
{
    Baseline,
    Nv,
    Vs,
    Isa,
    Bvf
};

/** One `app` line: chip and BVF-unit energy per scenario. */
struct AppRow
{
    std::string abbr;
    std::array<double, 5> chip{};
    std::array<double, 5> units{};
};

using Column = std::array<double, 5> AppRow::*;

std::vector<std::string>
words(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** The `app` lines of a rendered campaign report; fails on a bad one. */
std::vector<AppRow>
parseReport(const std::string &text)
{
    std::vector<std::string> columns;
    std::vector<AppRow> rows;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("# columns: ", 0) == 0) {
            columns = words(line.substr(11));
            continue;
        }
        if (line.rfind("app ", 0) != 0)
            continue;
        const std::vector<std::string> fields = words(line.substr(4));
        if (fields.size() != columns.size() || fields[1] != "ok") {
            ADD_FAILURE() << "not a completed app line: " << line;
            return {};
        }
        AppRow row;
        row.abbr = fields[0];
        for (std::size_t s = 0; s < kScenarios.size(); ++s) {
            for (std::size_t c = 0; c < columns.size(); ++c) {
                const double value = std::strtod(fields[c].c_str(), nullptr);
                if (columns[c] == std::string("chip:") + kScenarios[s])
                    row.chip[s] = value;
                if (columns[c] == std::string("units:") + kScenarios[s])
                    row.units[s] = value;
            }
            if (row.chip[s] <= 0.0 || row.units[s] <= 0.0) {
                ADD_FAILURE() << row.abbr << " has no " << kScenarios[s]
                              << " energy";
                return {};
            }
        }
        rows.push_back(row);
    }
    return rows;
}

std::vector<AppRow>
golden()
{
    const std::string path = std::string(BVF_GOLDEN_DIR) + "/campaign.txt";
    const auto bytes = readFileBytes(path);
    EXPECT_TRUE(bytes.ok()) << path;
    std::vector<AppRow> rows = parseReport(bytes.ok() ? bytes.value() : "");
    EXPECT_EQ(rows.size(), workload::evaluationSuite().size());
    return rows;
}

/** Saving of @p s over Baseline in @p col, percent, mean of ratios. */
double
savingPct(const std::vector<AppRow> &rows, Column col, Scenario s)
{
    panic_if(rows.empty(), "no apps to average");
    double sum = 0.0;
    for (const AppRow &row : rows)
        sum += (row.*col)[s] / (row.*col)[Baseline];
    return 100.0 * (1.0 - sum / static_cast<double>(rows.size()));
}

/** Failures of one claim: empty when it holds. */
using Failures = std::vector<std::string>;

void
checkBand(Failures &out, const char *claim, double measured, double paper,
          double halfWidth)
{
    if (measured < paper - halfWidth || measured > paper + halfWidth)
        out.push_back(strFormat("%s: measured %.1f%%, paper %.0f%%, band "
                                "+-%.0f points",
                                claim, measured, paper, halfWidth));
}

/**
 * Fig 18 headline: BVF cuts chip energy by 21% and the BVF units' by
 * 47%. Band: 3 points either side. The suite is 58 synthetic apps
 * calibrated to the paper's published value profiles, not its
 * binaries, and the headline sits 1.7 points above the paper
 * (EXPERIMENTS.md, "Summary of known deviations"); 3 points holds that
 * offset with room, and is still a seventh of the chip saving.
 */
Failures
fig18Headline(const std::vector<AppRow> &rows)
{
    Failures out;
    checkBand(out, "Fig 18 BVF chip saving",
              savingPct(rows, &AppRow::chip, Bvf), 21.0, 3.0);
    checkBand(out, "Fig 18 BVF-unit saving",
              savingPct(rows, &AppRow::units, Bvf), 47.0, 3.0);
    return out;
}

/**
 * Figs 16 and 18, coder order: by chip saving, ISA < NV < VS < BVF.
 * Band: each coder beats the one before by at least 1 point. A smaller
 * step would rest on less than the headline's own offset from the
 * paper; the smallest measured step (VS to BVF) is 2.6 points.
 */
Failures
coderOrder(const std::vector<AppRow> &rows)
{
    Failures out;
    const std::array<Scenario, 4> order{Isa, Nv, Vs, Bvf};
    for (std::size_t i = 1; i < order.size(); ++i) {
        const double before = savingPct(rows, &AppRow::chip, order[i - 1]);
        const double after = savingPct(rows, &AppRow::chip, order[i]);
        if (after - before < 1.0)
            out.push_back(strFormat(
                "Figs 16/18 coder order: %s saves %.1f%%, %s %.1f%%; the "
                "paper orders ISA < NV < VS < BVF, band >= 1 point a step",
                kScenarios[order[i - 1]], before, kScenarios[order[i]],
                after));
    }
    return out;
}

/**
 * Fig 18 class split: memory-intensive apps (AppSpec::memoryIntensive)
 * save the most. The paper gives the sign, not a size. Band: the
 * memory-bound mean beats the compute-bound mean by at least 0.5
 * points, so that a tie does not pass as the claim; the measured gap is
 * thin, 1.4 points (23.9% against 22.5%).
 */
Failures
classSplit(const std::vector<AppRow> &rows)
{
    std::vector<AppRow> memory;
    std::vector<AppRow> compute;
    for (const AppRow &row : rows)
        (workload::findApp(row.abbr).memoryIntensive ? memory : compute)
            .push_back(row);
    Failures out;
    if (memory.empty() || compute.empty()) {
        out.push_back("Fig 18 class split: a class has no apps");
        return out;
    }
    const double mem = savingPct(memory, &AppRow::chip, Bvf);
    const double comp = savingPct(compute, &AppRow::chip, Bvf);
    if (mem - comp < 0.5)
        out.push_back(strFormat(
            "Fig 18 class split: memory-bound apps save %.1f%%, "
            "compute-bound %.1f%%; the paper has memory-bound apps saving "
            "the most, band >= 0.5 points",
            mem, comp));
    return out;
}

std::string
listing(const Failures &failures)
{
    std::string out;
    for (const std::string &f : failures)
        out += "\n  " + f;
    return out;
}

TEST(PaperClaims, Fig18BvfChipAndUnitSavings)
{
    const Failures failures = fig18Headline(golden());
    EXPECT_TRUE(failures.empty()) << listing(failures);
}

TEST(PaperClaims, CoderOrderIsaNvVsBvf)
{
    const Failures failures = coderOrder(golden());
    EXPECT_TRUE(failures.empty()) << listing(failures);
}

TEST(PaperClaims, MemoryBoundAppsSaveTheMost)
{
    const Failures failures = classSplit(golden());
    EXPECT_TRUE(failures.empty()) << listing(failures);
}

TEST(PaperClaims, ScaledBvfColumnsFailOnlyTheFig18Headline)
{
    // Negative control: 10% less BVF energy per app moves the chip
    // saving to about 30% and the units' to about 52%, out of the
    // headline's band, while BVF stays first in the coder order and
    // the class split keeps nine tenths of its gap.
    std::vector<AppRow> rows = golden();
    for (AppRow &row : rows) {
        row.chip[Bvf] *= 0.9;
        row.units[Bvf] *= 0.9;
    }
    EXPECT_EQ(fig18Headline(rows).size(), 2u);
    EXPECT_TRUE(coderOrder(rows).empty()) << listing(coderOrder(rows));
    EXPECT_TRUE(classSplit(rows).empty()) << listing(classSplit(rows));
}

} // namespace
} // namespace bvf
