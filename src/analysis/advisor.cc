#include "analysis/advisor.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/json.hh"

namespace bvf::analysis
{

using coder::Scenario;
using coder::UnitId;
using isa::Opcode;

namespace
{

/**
 * One register-file source stream as the pivot ranking sees it: the
 * per-thread facts and -- when the access provably involves the whole
 * warp -- the lane-affine structure of the full block.
 */
struct RegSource
{
    KnownBits kb;
    LaneAffine affine;

    /**
     * True when the affine fact may be used: the vector fact is known
     * AND the access is whole-warp (StaticSource::wholeWarp), so the
     * reported block is exactly the 32 in-relation lane values.
     */
    bool laneExact = false;

    /**
     * The bound at every pivot when !laneExact: the predictor's VS
     * register word bound, non-pivot words XNOR anything the pivot lane
     * might hold, the pivot word raw.
     */
    RatioBound anyPivot;
};

/** Proven one-density interval of this source's VS stream at pivot p. */
RatioBound
sourcePivotBound(const RegSource &src, int p)
{
    if (!src.laneExact)
        return src.anyPivot;

    // The pivot word passes through unchanged.
    RatioBound r = ratioBounds(src.kb);
    const Word stride = src.affine.stride;
    const Word known = src.kb.knownMask();
    for (int i = 0; i < 32; ++i) {
        if (i == p)
            continue;
        const Word d =
            stride * static_cast<Word>(static_cast<std::int32_t>(i - p));
        if (d == 0) {
            // v_i == v_p exactly: XNOR is all ones.
            r = hull(r, {1.0, 1.0});
            continue;
        }
        const int t = std::countr_zero(d);
        // Bits below t see no carry from adding d, so they agree; bit t
        // flips; interpreter-proven bits agree lane-to-lane. H >= 1
        // always (the flipped bit), so the coded word has at most 31
        // ones; at least 32 - maxDiffer.
        const Word agree = known | ((Word(1) << t) - 1);
        const int maxDiffer = std::max(1, hammingWeight(~agree));
        r = hull(r, {(32.0 - maxDiffer) / 32.0, 31.0 / 32.0});
    }
    return r;
}

double
midpoint(const DensityBound &b)
{
    return (b.lo + b.hi) / 2;
}

PivotAdvice
rankPivots(const std::vector<RegSource> &sources)
{
    PivotAdvice out;
    out.totalSources = static_cast<int>(sources.size());
    for (const RegSource &s : sources)
        out.affineSources += s.laneExact ? 1 : 0;

    for (int p = 0; p < 32; ++p) {
        std::vector<RatioBound> parts;
        parts.reserve(sources.size());
        double sum = 0.0;
        for (const RegSource &s : sources) {
            const RatioBound b = sourcePivotBound(s, p);
            sum += (b.lo + b.hi) / 2;
            parts.push_back(b);
        }
        out.bounds[static_cast<std::size_t>(p)] = densityHull(parts);
        out.score[static_cast<std::size_t>(p)] =
            sources.empty() ? 0.0 : sum / static_cast<double>(
                                        sources.size());
    }

    if (sources.empty()) {
        out.bestPivot = coder::VsCoder::defaultRegisterPivot;
        out.provenSlack = 0.0;
        return out;
    }

    // 1 is the favored bit value: pick the pivot whose proven lower
    // bound is greatest, break ties by the per-source mean score, then
    // prefer the paper's profiled lane 21, then the lowest lane.
    constexpr double eps = 1e-12;
    auto better = [&](int a, int b) {
        const DensityBound &da = out.bounds[static_cast<std::size_t>(a)];
        const DensityBound &db = out.bounds[static_cast<std::size_t>(b)];
        if (da.lo > db.lo + eps)
            return true;
        if (da.lo < db.lo - eps)
            return false;
        const double sa = out.score[static_cast<std::size_t>(a)];
        const double sb = out.score[static_cast<std::size_t>(b)];
        if (sa > sb + eps)
            return true;
        if (sa < sb - eps)
            return false;
        return a == coder::VsCoder::defaultRegisterPivot
               && b != coder::VsCoder::defaultRegisterPivot;
    };
    int best = coder::VsCoder::defaultRegisterPivot;
    for (int p = 0; p < 32; ++p) {
        if (better(p, best))
            best = p;
    }
    out.bestPivot = best;

    double maxHi = 0.0;
    for (const DensityBound &b : out.bounds)
        maxHi = std::max(maxHi, b.hi);
    out.provenSlack = std::max(
        0.0, maxHi - out.bounds[static_cast<std::size_t>(best)].lo);
    return out;
}

IsaAdvice
specializeIsa(const isa::Program &program, isa::GpuArch arch)
{
    IsaAdvice out;
    out.defaultMask = isa::paperIsaMask(arch);
    out.histogram = isa::opcodeHistogram(program.body);

    const isa::InstructionEncoder encoder(arch);
    const std::vector<Word64> binaries = encoder.encode(program.body);
    out.specializedMask = binaries.empty()
                              ? out.defaultMask
                              : isa::extractPreferenceMask(binaries);

    out.anyInstruction = !binaries.empty();
    if (out.anyInstruction) {
        out.defaultDensity = instrDensity(binaries, out.defaultMask);
        out.specializedDensity = instrDensity(binaries, out.specializedMask);
    } else {
        out.defaultDensity = {0.0, 0.0};
        out.specializedDensity = {0.0, 0.0};
    }
    return out;
}

std::vector<UnitPick>
rankUnits(const StaticPrediction &prediction, const PivotAdvice &pivot)
{
    std::vector<UnitPick> picks;
    for (UnitId unit : coder::allUnits()) {
        if (coder::isInstructionUnit(unit))
            continue; // NV/VS never cover the instruction stream
        UnitPick pick;
        pick.unit = unit;
        pick.nv = prediction.unitBound(unit, Scenario::NvOnly);
        const DensityBound &advised =
            pivot.bounds[static_cast<std::size_t>(pivot.bestPivot)];
        pick.vs = unit == UnitId::Reg && advised.any
                      ? advised
                      : prediction.unitBound(unit, Scenario::VsOnly);
        if (!pick.nv.any && !pick.vs.any)
            continue;
        const bool vsWins = midpoint(pick.vs) >= midpoint(pick.nv);
        pick.pick = vsWins ? Scenario::VsOnly : Scenario::NvOnly;
        const DensityBound &win = vsWins ? pick.vs : pick.nv;
        const DensityBound &lose = vsWins ? pick.nv : pick.vs;
        pick.proven = win.lo > lose.hi;
        picks.push_back(pick);
    }
    return picks;
}

std::string
maskHex(Word64 mask)
{
    std::ostringstream os;
    os << "0x" << std::hex << mask;
    return os.str();
}

std::string
boundStr(const DensityBound &b)
{
    std::ostringstream os;
    if (!b.any)
        return "idle";
    os.setf(std::ios::fixed);
    os.precision(4);
    os << "[" << b.lo << ", " << b.hi << "]";
    return os.str();
}

std::string
ratioStr(const RatioBound &b)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(4);
    os << "[" << b.lo << ", " << b.hi << "]";
    return os.str();
}

} // namespace

StaticAdvice
adviseProgram(const isa::Program &program, const AnalysisResult &analysis,
              const AdvisorOptions &options)
{
    StaticAdvice advice;
    std::vector<RegSource> regs;
    forEachSource(program, analysis, [&](const StaticSource &src) {
        if (src.unit != SourceUnit::Reg)
            return;
        RegSource s{src.value.kb(), src.value.affine(),
                    src.wholeWarp && src.value.affine().known, {}};
        if (!s.laneExact) {
            s.anyPivot =
                dataBound(kbSource(s.kb, analysis.regAnywhere[src.reg]),
                          Scenario::VsOnly, UnitId::Reg);
        }
        regs.push_back(s);
    });
    advice.pivot = rankPivots(regs);
    advice.isa = specializeIsa(program, options.arch);

    PredictorOptions popts;
    popts.arch = options.arch;
    popts.isaMask = advice.isa.specializedMask;
    popts.lineBytes = options.lineBytes;
    advice.prediction = predictDensity(program, analysis, popts);
    advice.bestScenario = advice.prediction.bestStatic;

    advice.unitPicks = rankUnits(advice.prediction, advice.pivot);
    return advice;
}

std::string
renderAdviceReport(const std::string &name, const StaticAdvice &advice)
{
    std::ostringstream os;
    os << "=== " << name << " ===\n";

    const PivotAdvice &pv = advice.pivot;
    os.setf(std::ios::fixed);
    os.precision(4);
    os << "VS register pivot: lane " << pv.bestPivot << " (proven slack "
       << pv.provenSlack << ", " << pv.affineSources << "/"
       << pv.totalSources << " lane-affine sources)\n";
    const auto &bb = pv.bounds[static_cast<std::size_t>(pv.bestPivot)];
    os << "  advised-pivot density " << boundStr(bb) << ", score "
       << pv.score[static_cast<std::size_t>(pv.bestPivot)] << "\n";
    const auto &db = pv.bounds[static_cast<std::size_t>(
        coder::VsCoder::defaultRegisterPivot)];
    if (pv.bestPivot != coder::VsCoder::defaultRegisterPivot)
        os << "  default-pivot density " << boundStr(db) << "\n";

    const IsaAdvice &ia = advice.isa;
    os << "ISA mask: " << maskHex(ia.specializedMask)
       << (ia.specializedMask == ia.defaultMask ? " (= Table 2)"
                                                : " (specialized)")
       << "\n";
    os << "  coded density " << ratioStr(ia.specializedDensity)
       << " vs Table 2 " << ratioStr(ia.defaultDensity) << "\n";

    os << "Unit ranking (NV vs VS):\n";
    for (const UnitPick &p : advice.unitPicks) {
        os << "  " << coder::unitName(p.unit) << ": "
           << coder::scenarioName(p.pick)
           << (p.proven ? " (proven)" : " (heuristic)") << "  NV "
           << boundStr(p.nv) << "  VS " << boundStr(p.vs) << "\n";
    }
    os << "Best scenario under advised wiring: "
       << coder::scenarioName(advice.bestScenario) << "\n";
    return os.str();
}

std::string
adviceJson(const std::string &name, const StaticAdvice &advice)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(6);

    auto bound = [&](const DensityBound &b) {
        std::ostringstream j;
        j.setf(std::ios::fixed);
        j.precision(6);
        j << "{\"any\": " << (b.any ? "true" : "false")
          << ", \"lo\": " << b.lo << ", \"hi\": " << b.hi << "}";
        return j.str();
    };

    // Schema version for downstream tooling; bump on any shape change
    // (docs/ADVISOR.md documents the schema).
    // The kernel name comes from untrusted .bvfasm/.bvfk inputs;
    // escape it so a quote or control character cannot break the
    // document.
    os << "{\"version\": 1, \"kernel\": " << jsonQuote(name)
       << ", \"pivot\": {";
    os << "\"best\": " << advice.pivot.bestPivot
       << ", \"proven_slack\": " << advice.pivot.provenSlack
       << ", \"affine_sources\": " << advice.pivot.affineSources
       << ", \"total_sources\": " << advice.pivot.totalSources
       << ", \"bounds\": [";
    for (int p = 0; p < 32; ++p) {
        if (p)
            os << ", ";
        os << bound(advice.pivot.bounds[static_cast<std::size_t>(p)]);
    }
    os << "], \"scores\": [";
    for (int p = 0; p < 32; ++p) {
        if (p)
            os << ", ";
        os << advice.pivot.score[static_cast<std::size_t>(p)];
    }
    os << "]}, \"isa\": {";
    os << "\"default_mask\": \"" << maskHex(advice.isa.defaultMask)
       << "\", \"specialized_mask\": \""
       << maskHex(advice.isa.specializedMask)
       << "\", \"default_density\": {\"lo\": "
       << advice.isa.defaultDensity.lo
       << ", \"hi\": " << advice.isa.defaultDensity.hi
       << "}, \"specialized_density\": {\"lo\": "
       << advice.isa.specializedDensity.lo
       << ", \"hi\": " << advice.isa.specializedDensity.hi
       << "}, \"histogram\": {";
    bool first = true;
    for (std::size_t op = 0; op < advice.isa.histogram.size(); ++op) {
        if (advice.isa.histogram[op] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << isa::opcodeName(static_cast<Opcode>(op))
           << "\": " << advice.isa.histogram[op];
    }
    os << "}}, \"units\": [";
    for (std::size_t i = 0; i < advice.unitPicks.size(); ++i) {
        const UnitPick &p = advice.unitPicks[i];
        if (i)
            os << ", ";
        os << "{\"unit\": \"" << coder::unitName(p.unit) << "\", \"pick\": \""
           << coder::scenarioName(p.pick)
           << "\", \"proven\": " << (p.proven ? "true" : "false")
           << ", \"nv\": " << bound(p.nv) << ", \"vs\": " << bound(p.vs)
           << "}";
    }
    os << "], \"best_scenario\": \""
       << coder::scenarioName(advice.bestScenario) << "\"}";
    return os.str();
}

} // namespace bvf::analysis
