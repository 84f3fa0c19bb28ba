#include "analysis/predictor.hh"

#include <vector>

#include "coder/nv_coder.hh"

namespace bvf::analysis
{

using coder::Scenario;
using coder::UnitId;

namespace
{

DataSource
fromWords(const std::vector<Word> &words, bool includeZero)
{
    DataSource s;
    s.exact = true;
    s.rawExact = s.nvExact = {1.0, 0.0};
    const coder::NvCoder nv;
    bool first = true;
    auto feed = [&](Word w) {
        const double raw = hammingWeight(w) / 32.0;
        const double enc = hammingWeight(nv.encode(w)) / 32.0;
        s.kb = first ? KnownBits::constant(w)
                     : join(s.kb, KnownBits::constant(w));
        first = false;
        s.rawExact = hull(s.rawExact, {raw, raw});
        s.nvExact = hull(s.nvExact, {enc, enc});
    };
    if (includeZero || words.empty())
        feed(0);
    for (Word w : words)
        feed(w);
    s.pivot = s.kb;
    return s;
}

RatioBound
rawBound(const DataSource &s)
{
    return s.exact ? s.rawExact : ratioBounds(s.kb);
}

RatioBound
nvBound(const DataSource &s)
{
    return s.exact ? s.nvExact : nvRatioBounds(s.kb);
}

/** Raw and ISA-coded bounds of an instruction stream. */
struct InstrBounds
{
    RatioBound raw;
    RatioBound isa;
};

bool
isaApplies(Scenario s)
{
    return s == Scenario::IsaOnly || s == Scenario::AllCoders;
}

} // namespace

DensityBound
densityHull(const std::vector<RatioBound> &parts)
{
    if (parts.empty())
        return {};
    RatioBound r{1.0, 0.0};
    for (const RatioBound &b : parts)
        r = hull(r, b);
    return {r.lo, r.hi, true};
}

RatioBound
instrDensity(std::span<const Word64> binaries, Word64 mask)
{
    RatioBound r{1.0, 0.0};
    for (const Word64 bin : binaries) {
        const double d = hammingWeight64(xnorWord64(bin, mask)) / 64.0;
        r = hull(r, {d, d});
    }
    return r;
}

RatioBound
dataBound(const DataSource &src, Scenario s, UnitId unit)
{
    static const auto nv_units = coder::nvSpaceUnits();
    static const auto vs_reg_units = coder::vsRegisterSpaceUnits();
    static const auto vs_cache_units = coder::vsCacheSpaceUnits();

    const bool nv_on = (s == Scenario::NvOnly || s == Scenario::AllCoders)
                       && nv_units.count(unit) > 0;
    const bool vs_on = s == Scenario::VsOnly || s == Scenario::AllCoders;
    const bool vs_reg = vs_on && vs_reg_units.count(unit) > 0;
    const bool vs_cache = vs_on && vs_cache_units.count(unit) > 0;

    const RatioBound word_bound = nv_on ? nvBound(src) : rawBound(src);
    if (!vs_reg && !vs_cache)
        return word_bound;

    // VS rewrites every non-pivot word to word XNOR pivot; the pivot
    // word itself passes through, so the access mixes both forms.
    const KnownBits base = nv_on ? nvEncodeKnownBits(src.kb) : src.kb;
    const KnownBits pivot_base =
        vs_reg ? (nv_on ? nvEncodeKnownBits(src.pivot) : src.pivot)
               : base; // cache-line pivot is the block's own element 0
    return hull(xnorRatioBounds(base, pivot_base), word_bound);
}

StaticPrediction
predictDensity(const isa::Program &program, const AnalysisResult &analysis,
               const PredictorOptions &options)
{
    StaticPrediction out;

    // --- collect per-unit data sources ---------------------------------
    std::vector<DataSource> reg_sources;
    std::vector<DataSource> sme_sources;
    std::vector<DataSource> global_sources;
    bool global_load = false;
    bool global_store = false;
    bool any_const = false;
    bool any_tex = false;

    forEachSource(program, analysis, [&](const StaticSource &src) {
        // An ALU result is bounded by its unreduced known bits
        // (aluResult), not by the reduced product the advisor reads.
        const KnownBits kb =
            src.role == SourceRole::Result
                ? aluResult(program.body[src.pc], analysis.in[src.pc],
                            program.launch)
                : src.value.kb();
        switch (src.unit) {
          case SourceUnit::Reg:
            reg_sources.push_back(
                kbSource(kb, analysis.regAnywhere[src.reg]));
            break;
          case SourceUnit::Shared:
            sme_sources.push_back(kbSource(kb, kb));
            break;
          case SourceUnit::Global:
            if (src.role == SourceRole::Store) {
                global_sources.push_back(kbSource(kb, kb));
                global_store = true;
            } else {
                global_load = true;
            }
            break;
          case SourceUnit::Constant:
            any_const = true;
            break;
          case SourceUnit::Texture:
            any_tex = true;
            break;
        }
    });

    // The global family covers loads, L1D/L2 fills, and store payloads;
    // out-of-range reads yield zero.
    if (global_load || global_store)
        global_sources.insert(global_sources.begin(),
                              fromWords(program.global, true));
    else
        global_sources.clear();

    // Constant/texture fills pad the trailing line with zeros whenever
    // the image does not end on a line boundary.
    constexpr std::uint32_t l1cLineBytes = 64;
    std::vector<DataSource> const_sources;
    if (any_const) {
        const auto bytes =
            static_cast<std::uint32_t>(program.constants.size() * 4);
        const_sources.push_back(
            fromWords(program.constants, bytes % l1cLineBytes != 0));
    }
    std::vector<DataSource> tex_sources;
    if (any_tex) {
        const auto bytes =
            static_cast<std::uint32_t>(program.texture.size() * 4);
        tex_sources.push_back(
            fromWords(program.texture,
                      options.lineBytes == 0
                          || bytes % options.lineBytes != 0));
    }

    // --- instruction-stream sources ------------------------------------
    const Word64 mask = options.isaMask != 0 ? options.isaMask
                                             : isa::paperIsaMask(options.arch);
    auto instr_bounds = [&](std::span<const Word64> binaries) {
        return InstrBounds{instrDensity(binaries, ~Word64{0}),
                           instrDensity(binaries, mask)};
    };
    std::vector<Word64> binaries =
        isa::InstructionEncoder(options.arch).encode(program.body);
    const InstrBounds body = instr_bounds(binaries);
    const InstrBounds *body_instrs = binaries.empty() ? nullptr : &body;
    // NoC instruction lines pad past the body with zero binaries.
    binaries.push_back(0);
    const InstrBounds noc_instrs = instr_bounds(binaries);

    // --- per-unit, per-scenario hulls ----------------------------------
    auto unit_bounds = [&](UnitId unit,
                           const std::vector<DataSource> &data,
                           const InstrBounds *instrs) {
        std::array<DensityBound, coder::numScenarios> bounds;
        for (const Scenario s : coder::allScenarios) {
            std::vector<RatioBound> parts;
            for (const DataSource &src : data)
                parts.push_back(dataBound(src, s, unit));
            if (instrs)
                parts.push_back(isaApplies(s) ? instrs->isa : instrs->raw);
            bounds[static_cast<std::size_t>(coder::scenarioIndex(s))] =
                densityHull(parts);
        }
        return bounds;
    };

    out.units[UnitId::Reg] = unit_bounds(UnitId::Reg, reg_sources, nullptr);
    out.units[UnitId::Sme] = unit_bounds(UnitId::Sme, sme_sources, nullptr);
    out.units[UnitId::L1D] = unit_bounds(
        UnitId::L1D,
        global_load ? global_sources : std::vector<DataSource>{}, nullptr);
    out.units[UnitId::L1C] =
        unit_bounds(UnitId::L1C, const_sources, nullptr);
    out.units[UnitId::L1T] = unit_bounds(UnitId::L1T, tex_sources, nullptr);
    out.units[UnitId::L1I] = unit_bounds(UnitId::L1I, {}, body_instrs);
    out.units[UnitId::Ifb] = unit_bounds(UnitId::Ifb, {}, body_instrs);
    out.units[UnitId::L2] =
        unit_bounds(UnitId::L2, global_sources, body_instrs);

    // NoC payload: data packets, padded instruction lines, and the
    // raw-zero flit padding added after every coder stage.
    for (const Scenario s : coder::allScenarios) {
        std::vector<RatioBound> parts;
        for (const DataSource &src : global_sources)
            parts.push_back(dataBound(src, s, UnitId::Noc));
        parts.push_back(isaApplies(s) ? noc_instrs.isa : noc_instrs.raw);
        parts.push_back(RatioBound{0.0, 0.0});
        out.noc[static_cast<std::size_t>(coder::scenarioIndex(s))] =
            densityHull(parts);
    }

    // --- scenario ranking ----------------------------------------------
    // 1 is the favored (cheap) bit value, so the best scenario is the
    // one predicted to raise mean density the most over Baseline on the
    // same units. Comparing gains rather than absolute midpoints keeps
    // units the analysis knows nothing about (midpoint pinned at 0.5 by
    // a vacuous [0, 1] interval) from drowning out units it does bound.
    // Ties go to the later, richer coder stack: its gain can only add.
    for (const Scenario s : coder::allScenarios) {
        const auto sidx =
            static_cast<std::size_t>(coder::scenarioIndex(s));
        double sum = 0;
        int n = 0;
        for (const auto &[unit, bounds] : out.units) {
            if (bounds[sidx].any) {
                sum += (bounds[sidx].lo + bounds[sidx].hi) / 2;
                ++n;
            }
        }
        out.meanMidpoint[sidx] = n ? sum / n : 0.0;
    }
    const auto base_idx = static_cast<std::size_t>(
        coder::scenarioIndex(Scenario::Baseline));
    double best = -2.0;
    for (const Scenario s : coder::allScenarios) {
        if (s == Scenario::Baseline)
            continue;
        const auto sidx =
            static_cast<std::size_t>(coder::scenarioIndex(s));
        const double gain =
            out.meanMidpoint[sidx] - out.meanMidpoint[base_idx];
        if (gain >= best) {
            best = gain;
            out.bestStatic = s;
        }
    }
    return out;
}

} // namespace bvf::analysis
