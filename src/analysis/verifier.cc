/**
 * @file
 * Admission verifier implementation.
 *
 * Three passes, each gating the next:
 *
 *  1. structural -- the linter's per-instruction NonCanonical and
 *     BadReconv rules (no abstract interpretation; total over
 *     arbitrary decode results), launch geometry and resource caps;
 *  2. semantic   -- the interpreter fixpoint proves def-before-use
 *     (the linter's UninitRegRead / UninitPredRead rules) and locates
 *     divergent regions (partial-warp barriers);
 *  3. exploration -- an abstract walk from the entry state peels
 *     loops with per-iteration-sharp states, forks at unknown-guard
 *     forward branches and rejoins at the reconvergence point,
 *     proving the per-warp trip bound and the memory footprints.
 *
 * Each lint rule's finding becomes a rejection under the reason
 * rejectionFor maps its code to, with the same pc and message. The
 * explorer has its own *control* walk only: every write goes through
 * the fixpoint's own transferWrite and every memory access through
 * the linter's segmentEscape, so explorer states are always at least
 * as sharp as fixpoint states and agree with the dynamic pipeline by
 * the interpreter's own soundness tests.
 */

#include "analysis/verifier.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/interpreter.hh"
#include "analysis/lint.hh"
#include "common/logging.hh"

namespace bvf::analysis
{

using isa::Instruction;
using isa::Opcode;

namespace
{

/** The admission reason of a finding of one of the shared lint rules. */
RejectReason
rejectionFor(LintCode code)
{
    switch (code) {
      case LintCode::NonCanonical: return RejectReason::MalformedInstruction;
      case LintCode::BadReconv: return RejectReason::BadBranch;
      case LintCode::UninitRegRead:
      case LintCode::UninitPredRead: return RejectReason::UninitRead;
      default:
        panic("lint code %s is not an admission rule",
              lintCodeName(code).c_str());
    }
}

class Verifier
{
  public:
    Verifier(const isa::Program &program, const VerifyOptions &options)
        : program_(program), options_(options)
    {
    }

    Admission run();

  private:
    void reject(RejectReason reason, int pc, std::string message);
    void rejectFindings();
    void checkLimits();

    // --- trip-count / footprint exploration ---------------------------

    struct WalkResult
    {
        std::uint64_t steps = 0; //!< warp issue-count bound for the walk
        bool exited = false;     //!< the walk retired at an Exit
        AbsState state;
    };

    std::optional<WalkResult> explore(int pc, int lowPc, int endPc,
                                      AbsState state, int depth);
    bool checkAccess(int pc, const Instruction &instr,
                     const AbsState &state);

    Admission finish();

    const isa::Program &program_;
    const VerifyOptions &options_;
    std::optional<AnalysisResult> analysis_;
    std::vector<LintFinding> findings_; //!< shared lint rules' output
    std::vector<Rejection> rejections_;
    Certificate cert_;
    std::uint64_t stepsUsed_ = 0;
    bool exploreFailed_ = false;
};

void
Verifier::reject(RejectReason reason, int pc, std::string message)
{
    rejections_.push_back({reason, pc, std::move(message)});
}

void
Verifier::rejectFindings()
{
    for (LintFinding &finding : findings_) {
        reject(rejectionFor(finding.code), finding.pc,
               std::move(finding.message));
    }
    findings_.clear();
}

void
Verifier::checkLimits()
{
    if (program_.name.size() > options_.maxNameBytes) {
        reject(RejectReason::ResourceLimit, 0,
               strFormat("kernel name is %zu bytes (limit %u)",
                         program_.name.size(), options_.maxNameBytes));
    }
    if (program_.body.size() > options_.maxBodyInstructions) {
        reject(RejectReason::ResourceLimit, 0,
               strFormat("body has %zu instructions (limit %u)",
                         program_.body.size(), options_.maxBodyInstructions));
    }
    const auto image = [&](const std::vector<Word> &img, const char *space) {
        if (img.size() > options_.maxImageWords) {
            reject(RejectReason::ResourceLimit, 0,
                   strFormat("%s image has %zu words (limit %u)", space,
                             img.size(), options_.maxImageWords));
        }
    };
    image(program_.global, "global");
    image(program_.constants, "constant");
    image(program_.texture, "texture");
    if (program_.sharedBytesPerBlock > options_.maxSharedBytes) {
        reject(RejectReason::ResourceLimit, 0,
               strFormat("shared segment is %u bytes (limit %u)",
                         program_.sharedBytesPerBlock,
                         options_.maxSharedBytes));
    }

    const isa::LaunchDims &launch = program_.launch;
    if (launch.blockThreads < 1
        || launch.blockThreads > options_.maxBlockThreads) {
        reject(RejectReason::BadLaunch, 0,
               strFormat("blockThreads=%d outside [1, %d]",
                         launch.blockThreads, options_.maxBlockThreads));
    }
    if (launch.gridBlocks < 1 || launch.gridBlocks > options_.maxGridBlocks) {
        reject(RejectReason::BadLaunch, 0,
               strFormat("gridBlocks=%d outside [1, %d]", launch.gridBlocks,
                         options_.maxGridBlocks));
    }

    if (program_.body.empty())
        reject(RejectReason::FallsOffEnd, 0, "empty kernel body");
}

/**
 * Bounds-check one memory access against its declared segment and fold
 * it into the footprint hull. The address hull is the KnownBits
 * component of reg[srcA] + imm, already cross-refined by the signed
 * interval through reduceValue inside the transfer functions.
 */
bool
Verifier::checkAccess(int pc, const Instruction &instr,
                      const AbsState &state)
{
    const KnownBits addr = memoryAddress(state, instr);
    const isa::MemSpace space = isa::memSpace(instr.op);
    std::string escape = segmentEscape(program_, space, addr);
    if (!escape.empty()) {
        reject(RejectReason::MemoryOutOfBounds, pc, std::move(escape));
        return false;
    }
    cert_.footprint(space).cover(addr.lo, addr.hi);
    return true;
}

/**
 * Abstract walk over [@p lowPc+1, @p endPc). Returns the issue-count
 * bound and the out state at @p endPc (or at the Exit that retired the
 * warp); nullopt after recording a rejection. @p lowPc is exclusive:
 * a branch that escapes below it would re-execute its own fork point,
 * which the fork-join model cannot express.
 */
std::optional<Verifier::WalkResult>
Verifier::explore(int pc, int lowPc, int endPc, AbsState state, int depth)
{
    const auto fail = [&](RejectReason reason, int at, std::string msg) {
        if (!exploreFailed_) {
            exploreFailed_ = true;
            reject(reason, at, std::move(msg));
        }
        return std::nullopt;
    };

    WalkResult r;
    r.state = std::move(state);
    while (pc != endPc) {
        if (pc <= lowPc || pc > endPc) {
            return fail(RejectReason::IllFormedDivergence, pc,
                        strFormat("control escapes the divergent region "
                                  "(%d, %d)",
                                  lowPc, endPc));
        }
        if (++stepsUsed_ > options_.stepBudget) {
            return fail(RejectReason::BudgetExceeded, pc,
                        strFormat("abstract step budget (%llu) exhausted; "
                                  "termination not proven",
                                  static_cast<unsigned long long>(
                                      options_.stepBudget)));
        }
        ++r.steps;
        const Instruction &instr =
            program_.body[static_cast<std::size_t>(pc)];
        const Bool3 guard = guardValue(r.state, instr);

        switch (instr.op) {
          case Opcode::Exit:
            // The SM retires the whole warp regardless of the guard.
            r.exited = true;
            return r;
          case Opcode::Bar:
          case Opcode::Nop:
            ++pc;
            continue;
          case Opcode::Bra: {
            if (guard == Bool3::True) {
                pc = instr.imm; // loop-top range check catches escapes
                continue;
            }
            if (guard == Bool3::False) {
                ++pc;
                continue;
            }
            if (instr.imm <= pc) {
                return fail(
                    RejectReason::BudgetExceeded, pc,
                    "backward branch with an unprovable guard: loop "
                    "trip count not bounded");
            }
            if (depth >= options_.maxForkDepth) {
                return fail(RejectReason::IllFormedDivergence, pc,
                            strFormat("divergence nests deeper than %d",
                                      options_.maxForkDepth));
            }
            // Fork: walk both arms up to the reconvergence point. A
            // lane-uniform guard means the warp takes one arm or the
            // other (max); otherwise the SM serializes both (sum).
            const int reconv = instr.reconv;
            const Uniformity uni = guardUniformity(r.state, instr);
            auto taken = explore(instr.imm, pc, reconv, r.state, depth + 1);
            if (!taken)
                return std::nullopt;
            auto fall = explore(pc + 1, pc, reconv, r.state, depth + 1);
            if (!fall)
                return std::nullopt;
            r.steps += uni == Uniformity::Uniform
                           ? std::max(taken->steps, fall->steps)
                           : taken->steps + fall->steps;
            // An arm that retired the warp adds no state at the join.
            if (taken->exited != fall->exited) {
                r.state = std::move(taken->exited ? fall->state
                                                  : taken->state);
            } else {
                r.state = std::move(taken->state);
                joinInto(r.state, fall->state, false);
            }
            if (taken->exited && fall->exited) {
                r.exited = true;
                return r;
            }
            pc = reconv;
            continue;
          }
          default:
            break;
        }

        if (isa::isMemoryOp(instr.op) && guard != Bool3::False
            && !checkAccess(pc, instr, r.state)) {
            exploreFailed_ = true;
            return std::nullopt;
        }
        transferWrite(instr, guard,
                      analysis_->divergentRegion[static_cast<std::size_t>(pc)],
                      analysis_->memory, program_.launch, r.state);
        ++pc;
    }
    return r;
}

Admission
Verifier::run()
{
    // Pass 1: structural. Anything here makes the later passes
    // meaningless, so they are skipped entirely.
    checkLimits();
    const int size = static_cast<int>(program_.body.size());
    for (int pc = 0; pc < size; ++pc) {
        const Instruction &instr =
            program_.body[static_cast<std::size_t>(pc)];
        lintCanonical(pc, instr, findings_);
        lintReconv(pc, instr, size, findings_);
    }
    rejectFindings();
    if (!rejections_.empty())
        return finish();

    // Pass 2: fixpoint-based semantic checks.
    analysis_.emplace(analyzeProgram(program_));
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_->in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        lintUninit(pc, instr, analysis_->in[idx], findings_);
        rejectFindings();
        if (instr.op == Opcode::Bar && analysis_->divergentRegion[idx]) {
            reject(RejectReason::IllFormedDivergence, pc,
                   "barrier may be issued by a partially-masked warp");
        }
    }
    if (!rejections_.empty())
        return finish();

    // Uniform-control-flow certificate bit: every reachable branch
    // whose guard is decided (taken by all or by none) or proven
    // warp-uniform can never split the warp, so the SIMT stack stays
    // at its initial frame for the whole run.
    cert_.uniformControlFlow = true;
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_->in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        if (instr.op != Opcode::Bra)
            continue;
        const bool decided =
            guardValue(analysis_->in[idx], instr) != Bool3::Unknown;
        const bool uniform =
            guardUniformity(analysis_->in[idx], instr)
            == Uniformity::Uniform;
        if (!decided && !uniform) {
            cert_.uniformControlFlow = false;
            break;
        }
    }

    // Pass 3: trip-count and footprint exploration.
    auto walk = explore(0, -1, size, initialState(), 0);
    cert_.abstractSteps = stepsUsed_;
    if (walk) {
        if (!walk->exited) {
            reject(RejectReason::FallsOffEnd, size - 1,
                   "execution can run past the last instruction");
        } else {
            cert_.warpTripBound = walk->steps;
        }
    }
    return finish();
}

Admission
Verifier::finish()
{
    std::stable_sort(rejections_.begin(), rejections_.end(),
                     [](const Rejection &a, const Rejection &b) {
                         return a.pc < b.pc;
                     });
    Admission out;
    Verdict &verdict = out.verdict;
    verdict.admitted = rejections_.empty();
    verdict.rejections = std::move(rejections_);
    if (verdict.admitted)
        verdict.certificate = cert_;
    out.analysis = std::move(analysis_);
    return out;
}

} // namespace

std::string
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::MalformedInstruction:
        return "malformed-instruction";
      case RejectReason::BadBranch: return "bad-branch";
      case RejectReason::BadLaunch: return "bad-launch";
      case RejectReason::ResourceLimit: return "resource-limit";
      case RejectReason::UninitRead: return "uninit-read";
      case RejectReason::IllFormedDivergence:
        return "ill-formed-divergence";
      case RejectReason::MemoryOutOfBounds: return "memory-out-of-bounds";
      case RejectReason::FallsOffEnd: return "falls-off-end";
      case RejectReason::BudgetExceeded: return "budget-exceeded";
    }
    return "unknown";
}

std::string
Rejection::toString() const
{
    return "pc " + std::to_string(pc) + ": " + rejectReasonName(reason)
           + ": " + message;
}

Admission
admitProgram(const isa::Program &program, const VerifyOptions &options)
{
    return Verifier(program, options).run();
}

Verdict
verifyProgram(const isa::Program &program, const VerifyOptions &options)
{
    return admitProgram(program, options).verdict;
}

} // namespace bvf::analysis
