/**
 * @file
 * Kernel linter built on the known-bits abstract interpreter.
 *
 * Every diagnostic describes something the dynamic pipeline silently
 * absorbs -- zero-initialized registers hide uninitialized reads, the
 * shared/constant address wrap hides out-of-bounds offsets, the decoder
 * ignores non-canonical fields -- so the linter is where such latent
 * kernel and kernel-builder bugs become visible.
 *
 * The per-instruction rules below are also the admission verifier's
 * (verifier.hh): it calls them and turns each finding into a
 * rejection, so a rule is written once and means the same in both.
 */

#ifndef BVF_ANALYSIS_LINT_HH
#define BVF_ANALYSIS_LINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/known_bits.hh"
#include "isa/program.hh"

namespace bvf::analysis
{

enum class LintCode
{
    UninitRegRead,   //!< register read before any write on some path
    UninitPredRead,  //!< predicate guard read before any SetP on some path
    DeadWrite,       //!< register/predicate write never observed
    Unreachable,     //!< instruction no abstract path reaches
    SharedOob,       //!< shared offset may exceed the block's segment
    ConstOob,        //!< constant offset may wrap the constant image
    TexOob,          //!< texture offset may wrap the texture image
    NonCanonical,    //!< encoding field set that the opcode ignores
    BadReconv,       //!< Bra reconvergence point malformed
    FallsOffEnd,     //!< a path runs past the last instruction
};

/** Stable diagnostic name, e.g. "uninit-reg-read". */
std::string lintCodeName(LintCode code);

struct LintFinding
{
    LintCode code;
    int pc;               //!< instruction index the finding anchors to
    std::string message;  //!< human-readable detail

    /** "pc 12: uninit-reg-read: ..." rendering. */
    std::string toString() const;
};

/** Run every check over @p program. Findings are sorted by pc. */
std::vector<LintFinding> lintProgram(const isa::Program &program);

struct AbsState;

// --- the rules the admission verifier shares -------------------------------
// Each appends its findings for @p instr at @p pc to @p out.

/**
 * NonCanonical: every encoding field the opcode ignores is zero and
 * every one it reads is in range. An unknown opcode is one finding and
 * ends the check (the field rules need the opcode's table row).
 */
void lintCanonical(int pc, const isa::Instruction &instr,
                   std::vector<LintFinding> &out);

/**
 * BadReconv: a forward branch reconverges at or past its target, a
 * backward one (a loop) strictly past the branch, both inside a body
 * of @p bodySize instructions.
 */
void lintReconv(int pc, const isa::Instruction &instr, int bodySize,
                std::vector<LintFinding> &out);

/**
 * UninitRegRead / UninitPredRead: every register and guard predicate
 * the instruction reads is written on every path to it, per the
 * fixpoint's IN state @p in.
 */
void lintUninit(int pc, const isa::Instruction &instr, const AbsState &in,
                std::vector<LintFinding> &out);

/** A memory space's byte extent [base, base + bytes) in a program. */
struct SegmentExtent
{
    std::uint32_t base = 0; //!< isa::globalSegmentBase for global, else 0
    std::uint32_t bytes = 0;
};

/** @p space's extent in @p program (empty for MemSpace::None). */
SegmentExtent segmentExtent(const isa::Program &program,
                            isa::MemSpace space);

/**
 * Why an access to @p space at a byte address in @p addr may leave its
 * segment -- the segment is empty, or the address hull is not inside
 * it -- or "" when it provably stays inside.
 */
std::string segmentEscape(const isa::Program &program, isa::MemSpace space,
                          const KnownBits &addr);

} // namespace bvf::analysis

#endif // BVF_ANALYSIS_LINT_HH
