/**
 * @file
 * Static coder-selection advisor.
 *
 * The predictor (predictor.hh) proves density bounds for the coder
 * wiring it is told about; this module turns the analysis facts into
 * the wiring itself. From the lane-affine component of the abstract
 * interpreter it derives, per candidate VS pivot lane, a proven bound
 * on the one-density of the register file's VS-coded stream, ranks the
 * 32 candidates, and reports how far the dynamic optimum can possibly
 * beat the static choice (the proven slack). From the program's actual
 * instruction encodings it specializes the ISA preference mask (the
 * paper's dynamic-ISA variant, Section 4.3) and bounds the gain
 * exactly. Per unit it ranks NV against VS from the proven intervals,
 * flagging ranks whose intervals do not overlap as proven.
 *
 * The pivot math: a register source whose 32-lane vector is proven
 * affine in the lane index (v_i = v_p + s * (i - p) mod 2^32) has, for
 * any pivot p and non-pivot lane i, a difference d = s * (i - p). When
 * d == 0 the XNOR against the pivot is all ones. Otherwise, with
 * t = ctz(d), the low t bits of v_i and v_p agree (adding d cannot
 * carry into them), bit t provably differs (no carry reaches it), and
 * bits the interpreter proved constant agree in every lane -- giving a
 * per-lane Hamming-distance interval and hence a one-density interval
 * for the coded word. Hulling over lanes and sources yields the
 * per-pivot bound that bvf_sim --check-advice validates dynamically.
 */

#ifndef BVF_ANALYSIS_ADVISOR_HH
#define BVF_ANALYSIS_ADVISOR_HH

#include <array>
#include <string>
#include <vector>

#include "analysis/predictor.hh"
#include "coder/vs_coder.hh"
#include "isa/encoding.hh"

namespace bvf::analysis
{

/** Knobs mirroring the run the advice is meant to configure. */
struct AdvisorOptions
{
    isa::GpuArch arch = isa::GpuArch::Pascal;

    /** Data/texture cache line size in bytes (GpuConfig::lineBytes). */
    std::uint32_t lineBytes = 128;
};

/** The advisor's VS register-pivot ranking. */
struct PivotAdvice
{
    /**
     * Proven one-density interval of the register file's raw VS-coded
     * stream for every candidate pivot lane. any == false means the
     * program provably never touches the register file.
     */
    std::array<DensityBound, 32> bounds{};

    /**
     * Ranking score per pivot: the mean over sources of the source's
     * bound midpoint. Unlike the hull bounds -- where one unbounded
     * source pins every pivot's lo to 0 -- the mean keeps the pivots
     * distinguishable, so it drives the choice; the hull bounds remain
     * the checkable certificate.
     */
    std::array<double, 32> score{};

    /** The statically chosen pivot lane. */
    int bestPivot = coder::VsCoder::defaultRegisterPivot;

    /**
     * Proven cap on how much any other pivot's measured density can
     * exceed the chosen pivot's: max_p hi(p) - lo(bestPivot), clamped
     * to >= 0. A dynamic sweep beating the advice by more than this is
     * a soundness bug somewhere in the pipeline.
     */
    double provenSlack = 1.0;

    /** Register sources carrying a usable lane-affine fact. */
    int affineSources = 0;

    /** All register sources feeding the bounds. */
    int totalSources = 0;
};

/** ISA-mask specialization derived from the program's own encodings. */
struct IsaAdvice
{
    Word64 defaultMask = 0;      //!< Table 2 mask of the architecture
    Word64 specializedMask = 0;  //!< majority mask of this body

    /** Exact coded-density hulls of the body under each mask. */
    RatioBound defaultDensity;
    RatioBound specializedDensity;
    bool anyInstruction = false;

    /** Static opcode counts the specialization was derived from. */
    std::array<std::uint32_t,
               static_cast<std::size_t>(isa::Opcode::NumOpcodes)>
        histogram{};
};

/** Per-unit NV-vs-VS ranking from the proven intervals. */
struct UnitPick
{
    coder::UnitId unit = coder::UnitId::Reg;
    DensityBound nv;    //!< NvOnly bound for the unit
    DensityBound vs;    //!< VsOnly bound (Reg uses the advised pivot)
    coder::Scenario pick = coder::Scenario::NvOnly;

    /** True when the winner's interval lies wholly above the loser's. */
    bool proven = false;
};

/** Everything the advisor derives for one kernel. */
struct StaticAdvice
{
    PivotAdvice pivot;
    IsaAdvice isa;
    std::vector<UnitPick> unitPicks;

    /**
     * Full density prediction under the advised wiring (specialized
     * ISA mask, advised register pivot). Advisory: --check-advice
     * validates the pivot bounds; check-static validates predictions
     * for the wiring a run actually used.
     */
    StaticPrediction prediction;

    /** Scenario ranking under the advised wiring. */
    coder::Scenario bestScenario = coder::Scenario::Baseline;
};

/**
 * Derive coder advice for @p program. @p analysis must come from
 * analyzeProgram on the same program.
 */
StaticAdvice adviseProgram(const isa::Program &program,
                           const AnalysisResult &analysis,
                           const AdvisorOptions &options = {});

/** Human-readable per-kernel report (bvf_lint --advise). */
std::string renderAdviceReport(const std::string &name,
                               const StaticAdvice &advice);

/** Machine-readable JSON object (bvf_lint --advise --json). */
std::string adviceJson(const std::string &name, const StaticAdvice &advice);

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_ADVISOR_HH
