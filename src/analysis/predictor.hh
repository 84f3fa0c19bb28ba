/**
 * @file
 * Static bit-density predictor.
 *
 * Lowers the known-bits facts of the abstract interpreter through the
 * paper's three coder transforms to bound, per on-chip unit and per
 * coding scenario, the bit-1 ratio of everything the energy accountant
 * will count during a dynamic run. The key soundness fact is the
 * mixture bound: every counted word belongs to at least one statically
 * identified source stream, and the aggregate ratio of any mixture of
 * sources lies inside [min source lo, max source hi] regardless of how
 * the run weighs them. The dynamic cross-check (check.hh) turns these
 * intervals into a pipeline-wide invariant.
 */

#ifndef BVF_ANALYSIS_PREDICTOR_HH
#define BVF_ANALYSIS_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "analysis/interpreter.hh"
#include "coder/bvf_space.hh"
#include "coder/scenario.hh"
#include "isa/encoding.hh"
#include "isa/program.hh"

namespace bvf::analysis
{

/** Knobs that must match the accountant wiring of the run under test. */
struct PredictorOptions
{
    isa::GpuArch arch = isa::GpuArch::Pascal;

    /** ISA coder mask; 0 = the Table 2 mask of @ref arch. */
    Word64 isaMask = 0;

    /** Data/texture cache line size in bytes (GpuConfig::lineBytes). */
    std::uint32_t lineBytes = 128;
};

/** Proven interval for one unit+scenario's bit-1 ratio. */
struct DensityBound
{
    double lo = 0.0;
    double hi = 1.0;

    /** False when no static source feeds the unit (it must stay idle). */
    bool any = false;
};

/**
 * The hull of @p parts, the mixture bound of their sources; any ==
 * false when there are none.
 */
DensityBound densityHull(const std::vector<RatioBound> &parts);

/**
 * Hull over @p binaries of the one-density of each instruction word
 * XNORed with @p mask (~0 leaves it raw); {1, 0} when there are none.
 */
RatioBound instrDensity(std::span<const Word64> binaries, Word64 mask);

// --- the static source walk ---------------------------------------------

/** The unit family a static source feeds. */
enum class SourceUnit : std::uint8_t
{
    Reg,      //!< the register file
    Shared,   //!< shared memory
    Global,   //!< the global family: L1D, L2, NoC and DRAM
    Constant, //!< the constant cache
    Texture,  //!< the texture cache
};

/** What a source's value is at its pc. */
enum class SourceRole : std::uint8_t
{
    Operand, //!< a register the instruction reads (Reg)
    Result,  //!< a data-path result written to a register (Reg)
    Load,    //!< a loaded word, at its register and at its memory space
    Store,   //!< a stored register's word at its memory space
};

/**
 * One static source: a stream of dynamic accesses at one pc, all of
 * whose words the product value covers.
 */
struct StaticSource
{
    std::size_t pc = 0;
    SourceUnit unit = SourceUnit::Reg;
    SourceRole role = SourceRole::Operand;

    /** The register read or written (for a store, the data register). */
    std::uint8_t reg = 0;

    /** Covers every word of the stream; valid during the visit only. */
    const AbsValue &value;

    /**
     * Whole-warp access: full mask, block exactly the 32 current lane
     * values. Inside a divergent region the block may mix the two arms'
     * effects; under a non-uniform guard a write only updates some
     * lanes. Either way lane-affine facts must not be trusted for it.
     */
    bool wholeWarp = false;
};

/**
 * Call @p visit with every static source of @p program, in pc order
 * and, per pc, srcA, srcB, dst read, then the result, load or store.
 * It is the one decision of which dynamic accesses the density
 * predictor and the pivot advisor bound: every reachable non-control
 * pc whose guard is not provably false (such a guard leaves no active
 * lane to count), and no immediate srcB. A load's value is the space's
 * summary (loadValue), an ALU result's the reduced product (aluValue).
 */
template <typename Visit>
void
forEachSource(const isa::Program &program, const AnalysisResult &analysis,
              Visit &&visit)
{
    using isa::Opcode;
    for (std::size_t pc = 0; pc < program.body.size(); ++pc) {
        const AbsState &in = analysis.in[pc];
        if (!in.reachable)
            continue;
        const isa::Instruction &instr = program.body[pc];
        if (isa::isControlOp(instr.op)
            || guardValue(in, instr) == Bool3::False)
            continue;
        const bool wholeWarp =
            !analysis.divergentRegion[pc]
            && guardUniformity(in, instr) == Uniformity::Uniform;
        auto yield = [&](SourceUnit unit, SourceRole role, std::uint8_t reg,
                         const AbsValue &value) {
            visit(StaticSource{pc, unit, role,
                               static_cast<std::uint8_t>(
                                   reg % isa::numRegisters),
                               value, wholeWarp});
        };
        const auto regOf = [&](std::uint8_t reg) -> const AbsValue & {
            return in.regs[reg % isa::numRegisters];
        };

        if (isa::readsSrcA(instr.op))
            yield(SourceUnit::Reg, SourceRole::Operand, instr.srcA,
                  regOf(instr.srcA));
        if (isa::readsSrcB(instr.op) && !instr.immB)
            yield(SourceUnit::Reg, SourceRole::Operand, instr.srcB,
                  regOf(instr.srcB));
        if (isa::readsDst(instr.op))
            yield(SourceUnit::Reg, SourceRole::Operand, instr.dst,
                  regOf(instr.dst));

        // A loaded word reaches its register and its memory space.
        auto load = [&](SourceUnit space) {
            const AbsValue loaded = loadValue(instr, in, analysis.memory);
            yield(SourceUnit::Reg, SourceRole::Load, instr.dst, loaded);
            yield(space, SourceRole::Load, instr.dst, loaded);
        };
        auto store = [&](SourceUnit space) {
            yield(space, SourceRole::Store, instr.srcB, regOf(instr.srcB));
        };
        switch (instr.op) {
          case Opcode::Ldg:
            load(SourceUnit::Global);
            break;
          case Opcode::Lds:
            load(SourceUnit::Shared);
            break;
          case Opcode::Ldc:
            load(SourceUnit::Constant);
            break;
          case Opcode::Ldt:
            load(SourceUnit::Texture);
            break;
          case Opcode::Stg:
            store(SourceUnit::Global);
            break;
          case Opcode::Sts:
            store(SourceUnit::Shared);
            break;
          case Opcode::SetP:
            break;
          default:
            if (isa::writesRegister(instr.op))
                yield(SourceUnit::Reg, SourceRole::Result, instr.dst,
                      aluValue(instr, in, program.launch));
            break;
        }
    }
}

// --- per-source coder bounds ----------------------------------------------

/**
 * One data source stream as the coder bounds see it: a known-bits
 * description, optionally sharpened by exact raw/NV bounds when the
 * source is an enumerable word set (memory images), and the pivot
 * abstraction VS register coding sees.
 */
struct DataSource
{
    KnownBits kb;
    bool exact = false;
    RatioBound rawExact;
    RatioBound nvExact;

    /** What the VS register pivot lane may hold (Reg unit only). */
    KnownBits pivot;
};

/** A source known only by @p kb, whose VS register pivot is @p pivot. */
inline DataSource
kbSource(const KnownBits &kb, const KnownBits &pivot)
{
    DataSource s;
    s.kb = kb;
    s.pivot = pivot;
    return s;
}

/**
 * Bound on @p src's bit-1 ratio at @p unit under scenario @p s (Table 1
 * wiring). For a non-exact register source under VsOnly this is the VS
 * register word bound: the word XNOR anything the pivot lane may hold,
 * hulled with the raw pivot word itself.
 */
RatioBound dataBound(const DataSource &src, coder::Scenario s,
                     coder::UnitId unit);

/** Per-unit, per-scenario bounds plus the NoC payload bounds. */
struct StaticPrediction
{
    std::map<coder::UnitId, std::array<DensityBound, coder::numScenarios>>
        units;

    /** Bounds on NocAccount payloadOnes/payloadBits. */
    std::array<DensityBound, coder::numScenarios> noc{};

    /**
     * Mean bound midpoint across active units per scenario -- the
     * static figure of merit the scenario ranking uses.
     */
    std::array<double, coder::numScenarios> meanMidpoint{};

    /** Scenario with the greatest predicted density gain over Baseline. */
    coder::Scenario bestStatic = coder::Scenario::Baseline;

    const DensityBound &
    unitBound(coder::UnitId unit, coder::Scenario s) const
    {
        static const DensityBound none;
        auto it = units.find(unit);
        if (it == units.end())
            return none;
        return it->second[static_cast<std::size_t>(
            coder::scenarioIndex(s))];
    }
};

/**
 * Predict density bounds for @p program. @p analysis must come from
 * analyzeProgram on the same program.
 */
StaticPrediction predictDensity(const isa::Program &program,
                                const AnalysisResult &analysis,
                                const PredictorOptions &options = {});

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_PREDICTOR_HH
