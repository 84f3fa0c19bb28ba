/**
 * @file
 * Certificate-guided bytecode-to-bytecode optimizer for BVFK kernels.
 *
 * The passes are driven entirely by facts the reduced-product abstract
 * interpreter (analysis/interpreter.hh) proves about the *original*
 * program, so every rewrite carries a justification the translation
 * validator (analysis/equiv.hh) can re-derive independently:
 *
 *  - dead-code elimination: unreachable instructions, NOPs, provably
 *    guarded-off instructions, dead register/predicate writes (the
 *    PR 3 dead-load lint turned into an actual rewrite) and branches
 *    whose arms collapse onto the fallthrough,
 *  - constant folding: any register-writing instruction whose abstract
 *    result KnownBits/SignedInterval pin to one immediate-range word
 *    becomes a canonical `MOV dst, #c` under the same guard,
 *  - copy propagation: operands rewritten through unpredicated
 *    reg-reg MOVs inside one basic block (sound per-lane because the
 *    active mask is constant between block boundaries),
 *  - strength reduction: identity operands (x+0, x-0, x|0, x^0,
 *    x<<0, x*1, x&~0) reduce to MOVs, multiplies by a proven power of
 *    two become shifts,
 *  - branch flattening: a branch whose guard the interpreter proves
 *    true for every reaching thread (LaneAffine-backed uniformity
 *    rules out partial masks) drops its predicate.
 *
 * optimizeProgram is *total and safe on admitted input*: the result is
 * only preferred over the original when the translation validator
 * passes AND the optimized program re-admits through the PR 8 verifier
 * with a certificate no weaker than the original's (trip bound not
 * above, every footprint hull contained). Any failure -- including an
 * optimizer bug -- falls back to the byte-identical original.
 */

#ifndef BVF_ANALYSIS_OPTIMIZER_HH
#define BVF_ANALYSIS_OPTIMIZER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/equiv.hh"
#include "analysis/verifier.hh"
#include "isa/program.hh"

namespace bvf::analysis
{

/** Per-pass rewrite counters (what the passes did, pre-validation). */
struct OptStats
{
    std::uint32_t removedDead = 0;       //!< dead reg/pred writes
    std::uint32_t removedUnreachable = 0;
    std::uint32_t removedGuardFalse = 0; //!< provably guarded off
    std::uint32_t removedNops = 0;       //!< NOPs and self-moves
    std::uint32_t removedBranches = 0;   //!< collapsed branches
    std::uint32_t foldedConstants = 0;
    std::uint32_t propagatedCopies = 0;  //!< operands rewritten
    std::uint32_t reducedStrength = 0;   //!< identity + power-of-two
    std::uint32_t flattenedBranches = 0; //!< guards dropped

    std::uint32_t
    total() const
    {
        return removedDead + removedUnreachable + removedGuardFalse
               + removedNops + removedBranches + foldedConstants
               + propagatedCopies + reducedStrength
               + flattenedBranches;
    }
};

struct OptimizeOptions
{
    /** Deletion-fixpoint rounds cap (each round re-derives liveness). */
    int maxRounds = 64;

    /**
     * Gate the result behind the translation validator and the
     * re-admission check. Disabling this is only for tests that probe
     * the raw passes; production callers must leave it on.
     */
    bool validate = true;

    VerifyOptions verify{}; //!< admission budget (original + optimized)
    EquivOptions equiv{};   //!< differential-simulation budget
};

struct OptimizeResult
{
    /** The accepted optimized program, or the original untouched. */
    isa::Program program;

    /** Per returned-instruction original pc (identity on fallback). */
    std::vector<int> sourcePc;

    /** The returned program differs from the original. */
    bool changed = false;

    /** Passes rewrote something AND the validation gate passed. */
    bool accepted = false;

    /** The original itself passed admission (else nothing was tried). */
    bool originalAdmitted = false;

    /** Rewrites the passes applied (kept on fallback, for diagnosis). */
    OptStats stats;

    /** Certificate of the returned program. */
    Certificate certificate;

    /** Why the optimized program was not preferred ("" when it was). */
    std::string note;

    /**
     * AnalysisResult::steps of every fixpoint this call ran itself:
     * the original's admission unless one was passed in, and the
     * re-admission of a rewritten program.
     */
    std::uint64_t analysisSteps = 0;
};

/** Per-pc live-in register and predicate sets. */
struct Liveness
{
    std::vector<std::uint64_t> regs;
    std::vector<std::uint8_t> preds;
};

/**
 * Deletion-restricted backward liveness in original coordinates:
 * edges from the original body, gens/kills from the rewritten
 * instructions @p work of kept slots, identity through deleted slots.
 * A branch's taken edge counts while the branch is kept or its guard
 * is not provably false under @p ar. With every slot kept and
 * work == orig.body this is plain liveness over the syntactic CFG
 * (both branch edges), which the linter's dead-write check uses. The
 * translation validator recomputes the fixpoint independently.
 */
Liveness deletionLiveness(const isa::Program &orig,
                          const std::vector<isa::Instruction> &work,
                          const std::vector<char> &kept,
                          const AnalysisResult &ar);

/** Live-out of @p pc under @p live (same edge rule as the fixpoint). */
std::pair<std::uint64_t, std::uint8_t>
liveOutOf(const isa::Program &orig, const std::vector<char> &kept,
          const AnalysisResult &ar, const Liveness &live, int pc);

/**
 * Optimize @p program. Total over every decodeProgram / parseAsm
 * result: never crashes, never simulates outside the validator's
 * reference interpreter, and never returns a program that failed
 * validation.
 */
OptimizeResult optimizeProgram(const isa::Program &program,
                               const OptimizeOptions &options = {});

/**
 * As above, reusing @p admission = admitProgram(program,
 * options.verify): its verdict gates the passes and its fixpoint is
 * the facts they rewrite by, so admitting and optimizing a program
 * runs the abstract interpreter once.
 */
OptimizeResult optimizeProgram(const isa::Program &program,
                               const Admission &admission,
                               const OptimizeOptions &options = {});

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_OPTIMIZER_HH
