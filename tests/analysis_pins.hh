/**
 * @file
 * Exact work counts of the abstract interpreter, pinned. A change that
 * moves one changed the fixpoint's iteration, not just its speed.
 */

#ifndef BVF_TESTS_ANALYSIS_PINS_HH
#define BVF_TESTS_ANALYSIS_PINS_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace bvf::tests
{

struct AppSteps
{
    std::string_view abbr;
    std::uint64_t steps;
};

/** AnalysisResult::steps of analyzeProgram per suite kernel, suite order. */
inline constexpr std::array<AppSteps, 58> kAppAnalysisSteps{{
    {"BCK", 49320}, {"BFS", 32620}, {"BTR", 28682}, {"CFD", 20744},
    {"GAU", 7289}, {"HWL", 9250}, {"HSP", 22420}, {"KMN", 8692},
    {"MD", 31382}, {"LUD", 21300}, {"NN", 7010}, {"NW", 20180},
    {"PAT", 20172}, {"SRD", 8412}, {"CUT", 8689}, {"HIS", 28682},
    {"LBM", 10092}, {"MRQ", 9529}, {"SAD", 20814}, {"SGE", 28570},
    {"SPM", 34188}, {"STE", 8972}, {"BLA", 9246}, {"CON", 30822},
    {"DXT", 22970}, {"FWT", 27460}, {"MMU", 27452}, {"MGS", 21860},
    {"OFT", 23540}, {"IMD", 10932}, {"RED", 26344}, {"SCP", 20744},
    {"SCN", 26900}, {"TRA", 26904}, {"FFT", 64996}, {"MDS", 40906},
    {"QTC", 34748}, {"S3D", 10092}, {"SRT", 28020}, {"TRI", 6170},
    {"LBF", 32620}, {"BH", 35866}, {"MST", 33744}, {"SP", 12612},
    {"SSP", 32620}, {"ATA", 7851}, {"BIC", 7851}, {"COR", 8131},
    {"COV", 19062}, {"GEM", 23536}, {"GES", 8411}, {"MVT", 7571},
    {"SYR", 8691}, {"SYK", 9531}, {"2DC", 8132}, {"CP", 9245},
    {"LIB", 8405}, {"NQU", 17986},
}};

/**
 * One analyzeProgram pass over the whole suite
 * (scripts/ci_kernel_admission.sh checks it against a live daemon).
 */
inline constexpr std::uint64_t kSuiteAnalysisSteps = 1188980;

static_assert(
    [] {
        std::uint64_t sum = 0;
        for (const AppSteps &app : kAppAnalysisSteps)
            sum += app.steps;
        return sum;
    }() == kSuiteAnalysisSteps,
    "per-app pins must add up to the suite pin");

} // namespace bvf::tests

#endif // BVF_TESTS_ANALYSIS_PINS_HH
