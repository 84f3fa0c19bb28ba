/**
 * @file
 * Abstract interpreter over bvf::isa::Program (analysis v2).
 *
 * PR 3's interpreter ran the hard-wired KnownBits lattice; this version
 * runs a reduced product of three domains per register
 * (product.hh / domains.hh):
 *
 *   KnownBits      per-bit knowledge + unsigned interval (per-thread),
 *   SignedInterval signed value interval (per-thread),
 *   LaneAffine     base + stride * lane structure of the full 32-lane
 *                  warp vector (relational across lanes).
 *
 * The per-thread components model a single arbitrary thread: SIMT
 * scheduling changes *when* a thread executes an instruction, never
 * *what* it computes, so their facts at a pc cover every thread whose
 * own trajectory visits that pc (the active lanes of any dynamic
 * issue). LaneAffine is different: it speaks about all 32 lanes of a
 * warp at once, including lanes masked off at the access -- exactly
 * what the VS coder's pivot analysis needs -- so it is only kept when
 * every write was provably executed by whole warps. Two mechanisms
 * enforce that:
 *
 *  - predicate *uniformity* (can lanes disagree on a guard?), joined
 *    through the same fixpoint, downgrades predicated writes, and
 *  - *divergent regions*: a branch whose guard is both unknown and
 *    possibly non-uniform can split the warp, so every pc reachable
 *    from either arm short of the reconvergence point may execute with
 *    a partial mask; writes there lose their lane structure. The region
 *    set grows in an outer fixpoint until no new divergent branch
 *    appears (the set only grows, so it terminates).
 *
 * Memory is summarized per space (global, shared, constant, texture)
 * with an outer fixpoint so stored values feed back into loads, exactly
 * as in PR 3.
 */

#ifndef BVF_ANALYSIS_INTERPRETER_HH
#define BVF_ANALYSIS_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/domains.hh"
#include "analysis/known_bits.hh"
#include "analysis/product.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace bvf::analysis
{

/**
 * The register abstraction: reduced product of the three domains. The
 * product machinery is generic (any ValueDomain mix); this instance is
 * what the analysis pipeline runs.
 */
struct AbsValue : ProductValue<KnownBits, SignedInterval, LaneAffine>
{
    using Base = ProductValue<KnownBits, SignedInterval, LaneAffine>;

    KnownBits &kb() { return part<KnownBits>(); }
    const KnownBits &kb() const { return part<KnownBits>(); }
    SignedInterval &si() { return part<SignedInterval>(); }
    const SignedInterval &si() const { return part<SignedInterval>(); }
    LaneAffine &affine() { return part<LaneAffine>(); }
    const LaneAffine &affine() const { return part<LaneAffine>(); }

    /** Does the concrete word satisfy every per-thread component? */
    bool
    contains(Word v) const
    {
        return kb().contains(v) && si().contains(v);
    }

    bool isConstant() const { return kb().isConstant(); }

    static AbsValue top() { return {Base::top()}; }
    static AbsValue constant(Word v) { return {Base::constant(v)}; }

    friend AbsValue
    join(const AbsValue &a, const AbsValue &b)
    {
        return {join(static_cast<const Base &>(a),
                     static_cast<const Base &>(b))};
    }

    friend AbsValue
    widen(const AbsValue &prev, const AbsValue &next)
    {
        return {widen(static_cast<const Base &>(prev),
                      static_cast<const Base &>(next))};
    }
};

/**
 * Cross-domain reduction: KnownBits' unsigned interval pins the sign
 * when it avoids the 2^31 wrap point and then refines SignedInterval,
 * and vice versa. Transfer functions return reduced values; a reduction
 * that would be contradictory (possible only on unreachable paths) is
 * skipped rather than producing an empty element.
 */
AbsValue reduceValue(AbsValue v);

/** Predicate abstraction: three-valued content plus lane uniformity. */
struct PredValue
{
    Bool3 value = Bool3::False;
    Uniformity uni = Uniformity::Uniform;

    bool operator==(const PredValue &o) const = default;
};

constexpr PredValue
join(const PredValue &a, const PredValue &b)
{
    return {join(a.value, b.value), join(a.uni, b.uni)};
}

/** Abstract machine state at one program point (IN of a pc). */
struct AbsState
{
    std::array<AbsValue, isa::numRegisters> regs{};
    std::array<PredValue, isa::numPredicates> preds{};

    /** Bit r set: register r written on every path to this point. */
    std::uint64_t regWritten = 0;

    /** Bit p set: predicate p written on every path to this point. */
    std::uint8_t predWritten = 0;

    /** False until the fixpoint first reaches this pc. */
    bool reachable = false;
};

/** Per-space summaries of every value a load can observe. */
struct MemorySummaries
{
    KnownBits global;    //!< image words, stores, and the OOB zero
    KnownBits shared;    //!< zero-initialized words and Sts values
    KnownBits constant;  //!< constant image words
    KnownBits texture;   //!< texture image words

    bool operator==(const MemorySummaries &o) const = default;
};

/** Everything the fixpoint proves about one program. */
struct AnalysisResult
{
    /** IN state per pc (regs/preds just before the instruction). */
    std::vector<AbsState> in;

    MemorySummaries memory;

    /**
     * Join of register r over every program point plus the initial
     * zero -- covers stale values in lanes that sit out an access,
     * which the VS register pivot can expose to the accountant.
     */
    std::array<KnownBits, isa::numRegisters> regAnywhere{};

    /**
     * Per pc: 1 when a warp may issue this instruction with a partial
     * active mask (the pc lies inside some divergent branch's region).
     * Writes here cannot carry lane-affine facts, and blocks observed
     * here may mix current and stale lanes.
     */
    std::vector<std::uint8_t> divergentRegion;

    /** Some path runs past the last instruction (lint: FallsOffEnd). */
    bool fellOffEnd = false;

    /**
     * Worklist pops summed over every outer round (memory and
     * divergence): the fixpoint's exact work count.
     */
    std::uint64_t steps = 0;
};

/** Run the fixpoint. Handles empty bodies (returns no states). */
AnalysisResult analyzeProgram(const isa::Program &program);

/** The machine's entry state: zero registers, false uniform predicates. */
AbsState initialState();

/**
 * Join @p next into @p into in place; returns whether @p into changed.
 * With @p doWiden, any component still growing is widened per the
 * domain's own rule (see product.hh) so loops terminate; finite-height
 * components pass through.
 */
bool joinInto(AbsState &into, const AbsState &next, bool doWiden);

/**
 * The write discipline of a SetP or register-writing instruction (ALU
 * op or load) under guard @p guard, applied to @p state in place. A
 * True guard overwrites and marks the destination written; an Unknown
 * one joins into the old value; a False one, and any other opcode,
 * changes nothing. Only a whole-warp write -- outside every divergent
 * region (@p divergent false) under a lane-uniform guard -- keeps
 * lane-affine facts and predicate uniformity. Returns the register
 * written, or -1. The fixpoint's Stepper and the verifier's explorer
 * both step through this one function.
 */
int transferWrite(const isa::Instruction &instr, Bool3 guard, bool divergent,
                  const MemorySummaries &memory,
                  const isa::LaunchDims &launch, AbsState &state);

// --- transfer helpers shared with the linter, predictor and advisor ----

/** Abstract value of the instruction's guard at state @p s. */
Bool3 guardValue(const AbsState &s, const isa::Instruction &instr);

/** Can the lanes of a warp disagree on the instruction's guard? */
Uniformity guardUniformity(const AbsState &s, const isa::Instruction &instr);

/** Abstract srcA operand (KnownBits component). */
KnownBits operandA(const AbsState &s, const isa::Instruction &instr);

/** Abstract srcB operand (immediate-aware, KnownBits component). */
KnownBits operandB(const AbsState &s, const isa::Instruction &instr);

/** Full product value of the srcA operand. */
AbsValue valueA(const AbsState &s, const isa::Instruction &instr);

/** Full product value of the srcB operand (immediate-aware). */
AbsValue valueB(const AbsState &s, const isa::Instruction &instr);

/**
 * Abstract result of a register-writing data-path instruction (loads
 * use the matching MemorySummaries member instead; see loadResult).
 */
KnownBits aluResult(const isa::Instruction &instr, const AbsState &s,
                    const isa::LaunchDims &launch);

/** Product-domain result of a register-writing data-path instruction. */
AbsValue aluValue(const isa::Instruction &instr, const AbsState &s,
                  const isa::LaunchDims &launch);

/** Abstract value a load's destination receives. */
KnownBits loadResult(const isa::Instruction &instr,
                     const MemorySummaries &memory);

/** Product-domain load result (lane-uniform when the address is). */
AbsValue loadValue(const isa::Instruction &instr, const AbsState &s,
                   const MemorySummaries &memory);

/** Abstract byte address of a memory instruction (reg[srcA] + imm). */
KnownBits memoryAddress(const AbsState &s, const isa::Instruction &instr);

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_INTERPRETER_HH
