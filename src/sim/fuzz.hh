/**
 * @file
 * Deterministic byte-mutation fuzzing for every untrusted parser.
 *
 * Nine surfaces accept bytes from outside the process's trust
 * boundary: wire-protocol frames, the /metrics HTTP request head,
 * trace v2 streams (salvage included), campaign journals (salvage
 * included), BVFK kernel bytecode, kernel
 * assembly text, Verilog netlist text, packed netlist test vectors
 * and the certificate-guided optimizer pipeline (bytecode in,
 * validated bytecode or byte-identical fallback out). Each gets a
 * driver that feeds mutated
 * inputs -- valid seed inputs built with the real encoders, then
 * bit-flipped, truncated, spliced and extended by a seeded Rng -- and
 * checks structural invariants on every outcome: parse results stay
 * in bounds, success round-trips, salvage never does worse than
 * strict, and no input is ever accepted as clean when re-parsing says
 * otherwise. Memory-safety violations are the sanitizers' half of the
 * bargain: the sweep binary runs these drivers under ASan/UBSan in CI.
 *
 * Everything is a pure function of (target, seed), so a CI failure
 * line is reproduced locally with the same
 * `bvf_simsweep --fuzz-target T --sim-seed N` invocation, and the
 * failing input is written out for the regression corpus
 * (tests/corpus/<target>/).
 */

#ifndef BVF_SIM_FUZZ_HH
#define BVF_SIM_FUZZ_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"

namespace bvf::sim
{

/** One untrusted parser under fuzz. */
enum class FuzzTarget : std::uint8_t
{
    Frame,    //!< server::parseFrame over a byte stream
    Http,     //!< server::scanHttpHead
    Trace,    //!< core::replayTrace, strict and salvage
    Journal,  //!< campaign::parseJournal, salvage included
    Bytecode, //!< isa::decodeProgram + the admission verifier
    Asm,      //!< isa::parseAsm + render round trip + verifier
    Rtl,      //!< rtl::parseVerilog + canonical re-emission fixed point
    RtlVec,   //!< packed vectors through a netlist vs the C++ coder
    Opt,      //!< analysis::optimizeProgram + translation validation
};

constexpr std::array<FuzzTarget, 9> kAllFuzzTargets = {
    FuzzTarget::Frame,   FuzzTarget::Http,     FuzzTarget::Trace,
    FuzzTarget::Journal, FuzzTarget::Bytecode, FuzzTarget::Asm,
    FuzzTarget::Rtl,     FuzzTarget::RtlVec,   FuzzTarget::Opt};

/** Display name, e.g. "frame". */
std::string fuzzTargetName(FuzzTarget target);

/** Parse a target name; InvalidArgument lists the valid ones. */
Result<FuzzTarget> fuzzTargetFromName(const std::string &name);

/** What one fuzz run (or corpus replay) observed. */
struct FuzzReport
{
    std::uint64_t iterations = 0; //!< inputs checked
    bool failed = false;
    std::string what;        //!< violated invariant, when failed
    std::string failingPath; //!< where the failing input was written
};

/**
 * Check the target's invariants against one exact input. The returned
 * error describes the violated invariant; crashes are left to the
 * sanitizers. This is the primitive both the fuzz loop and corpus
 * replay share.
 */
Result<void> checkFuzzInput(FuzzTarget target, const std::string &bytes);

/** Valid seed inputs for @p target, built with the real encoders. */
std::vector<std::string> corpusSeeds(FuzzTarget target);

/**
 * Run @p iterations mutated inputs against @p target. A failing input
 * is written under @p scratchDir and reported; the run stops at the
 * first failure.
 */
Result<FuzzReport> runFuzz(FuzzTarget target, std::uint64_t seed,
                           std::uint64_t iterations,
                           const std::string &scratchDir);

/**
 * Replay every regular file in @p dir (sorted by name, so runs are
 * reproducible) against @p target's invariants. Missing directory =
 * empty corpus = success.
 */
Result<FuzzReport> replayCorpusDir(FuzzTarget target,
                                   const std::string &dir);

} // namespace bvf::sim

#endif // BVF_SIM_FUZZ_HH
