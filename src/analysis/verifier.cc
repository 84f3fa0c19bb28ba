/**
 * @file
 * Admission verifier implementation.
 *
 * Three passes, each gating the next:
 *
 *  1. structural -- per-instruction canonicality and branch shape
 *     (no abstract interpretation; total over arbitrary decode
 *     results), launch geometry and resource caps;
 *  2. semantic   -- the interpreter fixpoint proves def-before-use
 *     and locates divergent regions (partial-warp barriers);
 *  3. exploration -- an abstract walk from the entry state peels
 *     loops with per-iteration-sharp states, forks at unknown-guard
 *     forward branches and rejoins at the reconvergence point,
 *     proving the per-warp trip bound and the memory footprints.
 *
 * The explorer deliberately re-implements only the *control* shape;
 * every data-path transfer goes through the interpreter's public
 * helpers (guardValue, aluValue, loadValue, memoryAddress, ...), so
 * explorer states are always at least as sharp as fixpoint states and
 * agree with the dynamic pipeline by the interpreter's own soundness
 * tests.
 */

#include "analysis/verifier.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "analysis/interpreter.hh"

namespace bvf::analysis
{

using isa::Instruction;
using isa::Opcode;

namespace
{

std::string
format(const char *fmt, auto... args)
{
    char buf[192];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return buf;
}

/** Is the guard a real predicate-register read (not the PT sentinel)? */
bool
readsGuard(const Instruction &instr)
{
    return instr.pred != isa::predTrue || instr.predNegate;
}

std::size_t
regIndex(std::uint8_t r)
{
    return r % isa::numRegisters;
}

std::size_t
predIndex(std::uint8_t p)
{
    return p % isa::numPredicates;
}

/** The machine's entry state: zero registers, false predicates. */
AbsState
entryState()
{
    AbsState s;
    s.regs.fill(AbsValue::constant(0));
    s.preds.fill({Bool3::False, Uniformity::Uniform});
    s.reachable = true;
    return s;
}

AbsState
joinStates(const AbsState &a, const AbsState &b)
{
    AbsState out;
    for (std::size_t i = 0; i < a.regs.size(); ++i)
        out.regs[i] = join(a.regs[i], b.regs[i]);
    for (std::size_t p = 0; p < a.preds.size(); ++p)
        out.preds[p] = join(a.preds[p], b.preds[p]);
    out.regWritten = a.regWritten & b.regWritten;
    out.predWritten = a.predWritten & b.predWritten;
    out.reachable = true;
    return out;
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
    void checkLimits();
    void checkCanonical(int pc, const Instruction &instr);
    void checkBranchShape(int pc, const Instruction &instr);
    void checkUninit(int pc, const Instruction &instr, const AbsState &in);

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
    void transfer(const Instruction &instr, int pc, Bool3 guard,
                  AbsState &state);

    Admission finish();

    const isa::Program &program_;
    const VerifyOptions &options_;
    std::optional<AnalysisResult> analysis_;
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
Verifier::checkLimits()
{
    if (program_.name.size() > options_.maxNameBytes) {
        reject(RejectReason::ResourceLimit, 0,
               format("kernel name is %zu bytes (limit %u)",
                      program_.name.size(), options_.maxNameBytes));
    }
    if (program_.body.size() > options_.maxBodyInstructions) {
        reject(RejectReason::ResourceLimit, 0,
               format("body has %zu instructions (limit %u)",
                      program_.body.size(), options_.maxBodyInstructions));
    }
    const auto image = [&](const std::vector<Word> &img, const char *space) {
        if (img.size() > options_.maxImageWords) {
            reject(RejectReason::ResourceLimit, 0,
                   format("%s image has %zu words (limit %u)", space,
                          img.size(), options_.maxImageWords));
        }
    };
    image(program_.global, "global");
    image(program_.constants, "constant");
    image(program_.texture, "texture");
    if (program_.sharedBytesPerBlock > options_.maxSharedBytes) {
        reject(RejectReason::ResourceLimit, 0,
               format("shared segment is %u bytes (limit %u)",
                      program_.sharedBytesPerBlock,
                      options_.maxSharedBytes));
    }

    const isa::LaunchDims &launch = program_.launch;
    if (launch.blockThreads < 1
        || launch.blockThreads > options_.maxBlockThreads) {
        reject(RejectReason::BadLaunch, 0,
               format("blockThreads=%d outside [1, %d]",
                      launch.blockThreads, options_.maxBlockThreads));
    }
    if (launch.gridBlocks < 1 || launch.gridBlocks > options_.maxGridBlocks) {
        reject(RejectReason::BadLaunch, 0,
               format("gridBlocks=%d outside [1, %d]", launch.gridBlocks,
                      options_.maxGridBlocks));
    }

    if (program_.body.empty())
        reject(RejectReason::FallsOffEnd, 0, "empty kernel body");
}

/** Mirrors lint's NonCanonical rules; rejection, not diagnostic. */
void
Verifier::checkCanonical(int pc, const Instruction &instr)
{
    const auto bad = [&](std::string message) {
        reject(RejectReason::MalformedInstruction, pc, std::move(message));
    };
    if (static_cast<unsigned>(instr.op)
        >= static_cast<unsigned>(Opcode::NumOpcodes)) {
        bad(format("opcode %u unknown", unsigned(instr.op)));
        return; // classification helpers need a valid opcode
    }

    const Opcode op = instr.op;
    const bool writes_reg = isa::writesRegister(op);
    const bool reads_b = isa::readsSrcB(op);

    if (instr.pred >= isa::numPredicates)
        bad(format("predicate %d out of range", int(instr.pred)));
    else if (instr.pred == isa::predTrue && instr.predNegate)
        bad("guard reads the PT sentinel predicate (p0 with negate)");

    if (op == Opcode::SetP) {
        if (instr.dst >= isa::numPredicates)
            bad(format("SetP predicate destination %d out of range",
                       int(instr.dst)));
    } else if (writes_reg) {
        if (instr.dst >= isa::numRegisters)
            bad(format("destination register %d out of range",
                       int(instr.dst)));
    } else if (instr.dst != 0) {
        bad(format("%s ignores dst but dst=%d", opcodeName(op).c_str(),
                   int(instr.dst)));
    }

    if (isa::readsSrcA(op)) {
        if (instr.srcA >= isa::numRegisters)
            bad(format("srcA register %d out of range", int(instr.srcA)));
    } else if (instr.srcA != 0) {
        bad(format("%s ignores srcA but srcA=%d", opcodeName(op).c_str(),
                   int(instr.srcA)));
    }

    if (reads_b && !instr.immB) {
        if (instr.srcB >= isa::numRegisters)
            bad(format("srcB register %d out of range", int(instr.srcB)));
    } else if (instr.srcB != 0) {
        bad(format("%s ignores srcB but srcB=%d", opcodeName(op).c_str(),
                   int(instr.srcB)));
    }

    if (instr.immB && (!reads_b || isa::isMemoryOp(op)))
        bad(format("%s does not take an immediate srcB",
                   opcodeName(op).c_str()));

    if (op == Opcode::SetP || op == Opcode::S2R) {
        if (instr.flags >= 6)
            bad(format("%s selector flags=%d out of range",
                       opcodeName(op).c_str(), int(instr.flags)));
    } else if (instr.flags != 0) {
        bad(format("%s ignores flags but flags=%d", opcodeName(op).c_str(),
                   int(instr.flags)));
    }

    const bool uses_imm =
        instr.immB || isa::isMemoryOp(op) || op == Opcode::Bra;
    if (!uses_imm && instr.imm != 0)
        bad(format("%s ignores imm but imm=%d", opcodeName(op).c_str(),
                   instr.imm));
    if (instr.imm < -32768 || instr.imm > 32767)
        bad(format("imm=%d exceeds the 16-bit encoding", instr.imm));

    if (op != Opcode::Bra && instr.reconv != 0)
        bad(format("%s ignores reconv but reconv=%d",
                   opcodeName(op).c_str(), instr.reconv));
}

void
Verifier::checkBranchShape(int pc, const Instruction &instr)
{
    if (instr.op != Opcode::Bra)
        return;
    const int size = static_cast<int>(program_.body.size());
    const int target = instr.imm;
    const int reconv = instr.reconv;
    const bool forward = pc < target && target <= reconv && reconv < size;
    const bool backward =
        0 <= target && target <= pc && pc < reconv && reconv < size;
    if (!forward && !backward) {
        reject(RejectReason::BadBranch, pc,
               format("branch target %d / reconv %d malformed "
                      "(body size %d)",
                      target, reconv, size));
    }
}

void
Verifier::checkUninit(int pc, const Instruction &instr, const AbsState &in)
{
    const auto reg_read = [&](std::uint8_t r, const char *role) {
        if (r < isa::numRegisters && !((in.regWritten >> r) & 1u)) {
            reject(RejectReason::UninitRead, pc,
                   format("r%d read as %s before any write on some path",
                          int(r), role));
        }
    };
    if (isa::readsSrcA(instr.op))
        reg_read(instr.srcA, "srcA");
    if (isa::readsSrcB(instr.op) && !instr.immB)
        reg_read(instr.srcB, "srcB");
    if (readsDst(instr.op))
        reg_read(instr.dst, "accumulator");

    if (readsGuard(instr) && instr.pred < isa::numPredicates
        && !((in.predWritten >> instr.pred) & 1u)) {
        reject(RejectReason::UninitRead, pc,
               format("p%d guards before any SetP on some path",
                      int(instr.pred)));
    }
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
    const auto oob = [&](std::string message) {
        reject(RejectReason::MemoryOutOfBounds, pc, std::move(message));
        return false;
    };
    switch (instr.op) {
      case Opcode::Lds:
      case Opcode::Sts: {
        const std::uint32_t bytes = program_.sharedBytesPerBlock;
        if (bytes == 0)
            return oob("shared access but the block has no shared segment");
        if (addr.hi >= bytes)
            return oob(format("shared offset may reach %u of a %u-byte "
                              "segment",
                              addr.hi, bytes));
        cert_.shared.cover(addr.lo, addr.hi);
        return true;
      }
      case Opcode::Ldc:
      case Opcode::Ldt: {
        const bool tex = instr.op == Opcode::Ldt;
        const auto &image = tex ? program_.texture : program_.constants;
        const char *space = tex ? "texture" : "constant";
        const auto bytes = static_cast<std::uint32_t>(image.size() * 4);
        if (bytes == 0)
            return oob(format("%s load but the image is empty", space));
        if (addr.hi >= bytes)
            return oob(format("%s offset may reach %u of a %u-byte image",
                              space, addr.hi, bytes));
        (tex ? cert_.texture : cert_.constant).cover(addr.lo, addr.hi);
        return true;
      }
      case Opcode::Ldg:
      case Opcode::Stg: {
        const auto bytes =
            static_cast<std::uint32_t>(program_.globalBytes());
        if (bytes == 0)
            return oob("global access but the global image is empty");
        const std::uint32_t base = isa::globalSegmentBase;
        if (addr.lo < base || addr.hi >= base + bytes) {
            return oob(format("global address hull [%u, %u] escapes the "
                              "segment [%u, %u)",
                              addr.lo, addr.hi, base, base + bytes));
        }
        cert_.global.cover(addr.lo, addr.hi);
        return true;
      }
      default:
        return true;
    }
}

/**
 * Apply one non-control instruction to @p state, mirroring the
 * interpreter Stepper's write discipline (certain overwrite vs join,
 * lane-affine demotion on partial-mask writes).
 */
void
Verifier::transfer(const Instruction &instr, int pc, Bool3 guard,
                   AbsState &state)
{
    if (guard == Bool3::False)
        return;
    const bool certain = guard == Bool3::True;
    const bool wholeWarp =
        !analysis_->divergentRegion[static_cast<std::size_t>(pc)]
        && guardUniformity(state, instr) == Uniformity::Uniform;

    if (instr.op == Opcode::SetP) {
        const auto cmp = static_cast<isa::CmpOp>(instr.flags);
        Bool3 v = kbCompare(cmp, operandA(state, instr),
                            operandB(state, instr));
        if (v == Bool3::Unknown) {
            const SignedInterval &sa =
                state.regs[regIndex(instr.srcA)].si();
            const SignedInterval sb =
                instr.immB
                    ? SignedInterval::constant(static_cast<Word>(instr.imm))
                    : state.regs[regIndex(instr.srcB)].si();
            v = siCompare(cmp, sa, sb);
        }
        const bool lanesAgree =
            state.regs[regIndex(instr.srcA)].affine().isUniform()
            && (instr.immB
                || state.regs[regIndex(instr.srcB)].affine().isUniform());
        const Uniformity uni = wholeWarp && lanesAgree
                                   ? Uniformity::Uniform
                                   : Uniformity::MayDiverge;
        const std::size_t idx = predIndex(instr.dst);
        if (certain) {
            state.preds[idx] = {v, uni};
            state.predWritten |= static_cast<std::uint8_t>(1u << idx);
        } else {
            state.preds[idx].value = join(state.preds[idx].value, v);
            state.preds[idx].uni = wholeWarp
                                       ? join(state.preds[idx].uni, uni)
                                       : Uniformity::MayDiverge;
        }
        return;
    }

    if (isa::isStoreOp(instr.op))
        return; // footprint handled in checkAccess; no register effect

    if (!isa::writesRegister(instr.op))
        return;

    AbsValue result = isa::isLoadOp(instr.op)
                          ? loadValue(instr, state, analysis_->memory)
                          : aluValue(instr, state, program_.launch);
    if (!wholeWarp)
        result.affine() = LaneAffine::top();
    const std::size_t idx = regIndex(instr.dst);
    state.regs[idx] =
        certain ? result : join(state.regs[idx], result);
    if (certain)
        state.regWritten |= std::uint64_t(1) << idx;
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
                        format("control escapes the divergent region "
                               "(%d, %d)",
                               lowPc, endPc));
        }
        if (++stepsUsed_ > options_.stepBudget) {
            return fail(RejectReason::BudgetExceeded, pc,
                        format("abstract step budget (%llu) exhausted; "
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
                            format("divergence nests deeper than %d",
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
            if (taken->exited && fall->exited) {
                r.exited = true;
                r.state = joinStates(taken->state, fall->state);
                return r;
            }
            if (taken->exited)
                r.state = std::move(fall->state);
            else if (fall->exited)
                r.state = std::move(taken->state);
            else
                r.state = joinStates(taken->state, fall->state);
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
        transfer(instr, pc, guard, r.state);
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
        checkCanonical(pc, instr);
        checkBranchShape(pc, instr);
    }
    if (!rejections_.empty())
        return finish();

    // Pass 2: fixpoint-based semantic checks.
    analysis_.emplace(analyzeProgram(program_));
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_->in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        checkUninit(pc, instr, analysis_->in[idx]);
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
    auto walk = explore(0, -1, size, entryState(), 0);
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
