/**
 * @file
 * Translation validator for optimized BVFK programs.
 *
 * The optimizer (analysis/optimizer.hh) is *not* trusted: every
 * optimized program is re-checked here against the original before
 * anything downstream may prefer it. Validation is independent of the
 * optimizer's own reasoning and has two layers:
 *
 *  1. Per-instruction symbolic matching. The validator takes the
 *     reduced-product abstract interpreter's fixpoint over the
 *     *original* program (a pure function of it, which a caller that
 *     already ran it may pass in), runs its own backward liveness over
 *     it, then demands a
 *     justification for every edit: a kept instruction must be
 *     identical modulo remapped branch fields, or a rewrite the
 *     original's own abstract facts prove (a constant fold whose
 *     result the product domain pins, an identity-operand strength
 *     reduction, a multiply by a proven power of two, a copy-propagated
 *     operand backed by an unpredicated reaching MOV, an
 *     unpredication of a provably-taken branch); a deleted instruction
 *     must be unreachable, a no-op, provably guarded off, a dead
 *     register/predicate write under deletion-restricted liveness, or
 *     a branch whose arms collapse onto the fallthrough.
 *
 *  2. Differential concrete simulation. Both programs run under a
 *     deterministic reference interpreter that shares the SM's
 *     evaluator: per-lane results, special registers and the memory
 *     address mappings come from isa/semantics.hh, and the SIMT stack
 *     and barrier release mirror gpu/sm.cc. It runs over the original
 *     images plus seeded random replacements; the full store sequence
 *     and the final global/shared contents must match record for
 *     record. tests/test_semantics.cc checks that the SM and this
 *     interpreter leave the same final global image on every suite
 *     kernel.
 *
 * A program that fails either layer is rejected with the first
 * offending edit named; the optimizer then falls back to the original,
 * so an optimizer bug can cost performance but never correctness.
 */

#ifndef BVF_ANALYSIS_EQUIV_HH
#define BVF_ANALYSIS_EQUIV_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/interpreter.hh"
#include "isa/program.hh"

namespace bvf::analysis
{

/** Differential-simulation budget. */
struct EquivOptions
{
    /** Input images simulated per program (seed 0 = the originals). */
    int seeds = 3;

    /** Warp-instructions one simulation may issue before giving up. */
    std::uint64_t maxSteps = std::uint64_t(1) << 22;

    /** Base RNG seed for the replacement images. */
    std::uint64_t baseSeed = 0xb1fe9u;
};

struct EquivVerdict
{
    bool equivalent = false;

    /** First failed justification or observation mismatch. */
    std::string reason;

    /** Differential runs that completed (diagnostics). */
    int simulatedSeeds = 0;
};

/**
 * Check @p optimized against @p original. @p sourcePc maps every
 * optimized instruction index to the original index it was derived
 * from and must be strictly increasing; original indices absent from
 * the map are the deleted instructions. Total: never crashes, never
 * accepts a pair it cannot justify.
 */
EquivVerdict validateTranslation(const isa::Program &original,
                                 const isa::Program &optimized,
                                 std::span<const int> sourcePc,
                                 const EquivOptions &options = {});

/**
 * As above, with @p originalFacts = analyzeProgram(original) supplied
 * by a caller that already ran the fixpoint (the optimizer).
 */
EquivVerdict validateTranslation(const isa::Program &original,
                                 const AnalysisResult &originalFacts,
                                 const isa::Program &optimized,
                                 std::span<const int> sourcePc,
                                 const EquivOptions &options = {});

/**
 * One store instruction's architectural effect under the reference
 * interpreter: the per-lane (address, value) writes in lane order.
 * Shared stores record word indices (post-wrap), global stores record
 * absolute byte addresses.
 */
struct RefStore
{
    char space;                  //!< 'g' global, 's' shared
    std::vector<std::pair<std::uint32_t, Word>> writes;

    bool operator==(const RefStore &o) const = default;
};

/** Everything observable a reference run produced. */
struct RefObservation
{
    bool finished = false;       //!< every warp exited within budget
    std::vector<RefStore> stores;
    std::vector<Word> globalFinal;
    std::vector<std::vector<Word>> sharedFinal; //!< per block

    bool operator==(const RefObservation &o) const = default;
};

/**
 * Run @p program functionally to completion (or the step budget) under
 * the deterministic reference schedule: blocks in order, warps
 * round-robin run-to-barrier within a block. Exposed for tests; the
 * validator uses it for the differential layer.
 */
RefObservation runReference(const isa::Program &program,
                            std::uint64_t maxSteps);

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_EQUIV_HH
