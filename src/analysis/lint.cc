#include "analysis/lint.hh"

#include <algorithm>

#include "analysis/interpreter.hh"
#include "common/logging.hh"

namespace bvf::analysis
{

using isa::Instruction;
using isa::Opcode;

namespace
{

class Linter
{
  public:
    explicit Linter(const isa::Program &program)
        : program_(program), analysis_(analyzeProgram(program))
    {
    }

    std::vector<LintFinding> run();

  private:
    void add(LintCode code, int pc, std::string message);
    void checkMemoryBounds(int pc, const Instruction &instr,
                           const AbsState &in);
    void checkFallsOffEnd();
    void checkDeadWrites();

    const isa::Program &program_;
    AnalysisResult analysis_;
    std::vector<LintFinding> findings_;
};

void
Linter::add(LintCode code, int pc, std::string message)
{
    findings_.push_back({code, pc, std::move(message)});
}

void
Linter::checkMemoryBounds(int pc, const Instruction &instr,
                          const AbsState &in)
{
    // Global accesses outside the image read 0 and drop the store (the
    // verifier still refuses them); a provably-false guard means the
    // access never happens.
    const isa::MemSpace space = isa::memSpace(instr.op);
    if (space == isa::MemSpace::Global
        || guardValue(in, instr) == Bool3::False)
        return;

    const std::string escape =
        segmentEscape(program_, space, memoryAddress(in, instr));
    if (escape.empty())
        return;
    const LintCode code = space == isa::MemSpace::Shared ? LintCode::SharedOob
                          : space == isa::MemSpace::Texture
                              ? LintCode::TexOob
                              : LintCode::ConstOob;
    // The pipeline wraps an offset past a non-empty segment around it.
    add(code, pc,
        segmentExtent(program_, space).bytes ? escape + " (wraps)" : escape);
}

void
Linter::checkFallsOffEnd()
{
    const int size = static_cast<int>(program_.body.size());
    if (size == 0) {
        add(LintCode::FallsOffEnd, 0, "empty kernel body");
        return;
    }
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_.in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        if (instr.op == Opcode::Exit)
            continue;
        const Bool3 guard = guardValue(analysis_.in[idx], instr);
        const bool falls_through =
            instr.op != Opcode::Bra || guard != Bool3::True;
        const bool takes_branch =
            instr.op == Opcode::Bra && guard != Bool3::False;
        if ((falls_through && pc + 1 >= size)
            || (takes_branch && (instr.imm < 0 || instr.imm >= size))) {
            add(LintCode::FallsOffEnd, pc,
                "execution can run past the last instruction");
        }
    }
}

void
Linter::checkDeadWrites()
{
    const int size = static_cast<int>(program_.body.size());

    // Backward liveness over the syntactic CFG (both branch edges kept,
    // so "dead" means dead on every path).
    std::vector<std::uint64_t> live_regs(static_cast<std::size_t>(size), 0);
    std::vector<std::uint8_t> live_preds(static_cast<std::size_t>(size), 0);

    auto transfer = [&](int pc) {
        const Instruction &instr =
            program_.body[static_cast<std::size_t>(pc)];
        std::uint64_t out_regs = 0;
        std::uint8_t out_preds = 0;
        if (instr.op != Opcode::Exit) {
            if (pc + 1 < size) {
                out_regs |= live_regs[static_cast<std::size_t>(pc + 1)];
                out_preds |= live_preds[static_cast<std::size_t>(pc + 1)];
            }
            if (instr.op == Opcode::Bra && instr.imm >= 0
                && instr.imm < size) {
                out_regs |= live_regs[static_cast<std::size_t>(instr.imm)];
                out_preds |=
                    live_preds[static_cast<std::size_t>(instr.imm)];
            }
        }
        // Kill: only unpredicated writes are certain to overwrite.
        const bool certain = !readsGuard(instr);
        if (certain && isa::writesRegister(instr.op)
            && instr.dst < isa::numRegisters) {
            out_regs &= ~(std::uint64_t(1) << instr.dst);
        }
        if (certain && instr.op == Opcode::SetP
            && instr.dst < isa::numPredicates) {
            out_preds &= static_cast<std::uint8_t>(~(1u << instr.dst));
        }
        // Gen: every register/predicate the instruction reads.
        if (isa::readsSrcA(instr.op) && instr.srcA < isa::numRegisters)
            out_regs |= std::uint64_t(1) << instr.srcA;
        if (isa::readsSrcB(instr.op) && !instr.immB
            && instr.srcB < isa::numRegisters) {
            out_regs |= std::uint64_t(1) << instr.srcB;
        }
        if (readsDst(instr.op) && instr.dst < isa::numRegisters)
            out_regs |= std::uint64_t(1) << instr.dst;
        if (readsGuard(instr) && instr.pred < isa::numPredicates)
            out_preds |= static_cast<std::uint8_t>(1u << instr.pred);
        return std::pair{out_regs, out_preds};
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int pc = size - 1; pc >= 0; --pc) {
            const auto [regs, preds] = transfer(pc);
            const auto idx = static_cast<std::size_t>(pc);
            if (regs != live_regs[idx] || preds != live_preds[idx]) {
                live_regs[idx] = regs;
                live_preds[idx] = preds;
                changed = true;
            }
        }
    }

    auto live_out = [&](int pc) {
        const Instruction &instr =
            program_.body[static_cast<std::size_t>(pc)];
        std::uint64_t regs = 0;
        std::uint8_t preds = 0;
        if (instr.op != Opcode::Exit) {
            if (pc + 1 < size) {
                regs |= live_regs[static_cast<std::size_t>(pc + 1)];
                preds |= live_preds[static_cast<std::size_t>(pc + 1)];
            }
            if (instr.op == Opcode::Bra && instr.imm >= 0
                && instr.imm < size) {
                regs |= live_regs[static_cast<std::size_t>(instr.imm)];
                preds |= live_preds[static_cast<std::size_t>(instr.imm)];
            }
        }
        return std::pair{regs, preds};
    };

    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        if (!analysis_.in[idx].reachable)
            continue;
        const Instruction &instr = program_.body[idx];
        const auto [regs, preds] = live_out(pc);
        if (isa::writesRegister(instr.op) && instr.dst < isa::numRegisters
            && !((regs >> instr.dst) & 1u)) {
            add(LintCode::DeadWrite, pc,
                strFormat("r%d written but never read afterwards",
                          int(instr.dst)));
        }
        if (instr.op == Opcode::SetP && instr.dst < isa::numPredicates
            && !((preds >> instr.dst) & 1u)) {
            add(LintCode::DeadWrite, pc,
                strFormat("p%d set but never read afterwards",
                          int(instr.dst)));
        }
    }
}

std::vector<LintFinding>
Linter::run()
{
    const int size = static_cast<int>(program_.body.size());
    for (int pc = 0; pc < size; ++pc) {
        const auto idx = static_cast<std::size_t>(pc);
        const Instruction &instr = program_.body[idx];
        lintCanonical(pc, instr, findings_);
        lintReconv(pc, instr, size, findings_);
        if (!analysis_.in[idx].reachable) {
            add(LintCode::Unreachable, pc,
                strFormat("%s is unreachable", opcodeName(instr.op).c_str()));
            continue;
        }
        lintUninit(pc, instr, analysis_.in[idx], findings_);
        if (isa::isMemoryOp(instr.op))
            checkMemoryBounds(pc, instr, analysis_.in[idx]);
    }
    checkFallsOffEnd();
    checkDeadWrites();

    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         return a.pc < b.pc;
                     });
    return std::move(findings_);
}

} // namespace

std::string
lintCodeName(LintCode code)
{
    switch (code) {
      case LintCode::UninitRegRead: return "uninit-reg-read";
      case LintCode::UninitPredRead: return "uninit-pred-read";
      case LintCode::DeadWrite: return "dead-write";
      case LintCode::Unreachable: return "unreachable";
      case LintCode::SharedOob: return "shared-oob";
      case LintCode::ConstOob: return "const-oob";
      case LintCode::TexOob: return "tex-oob";
      case LintCode::NonCanonical: return "non-canonical";
      case LintCode::BadReconv: return "bad-reconv";
      case LintCode::FallsOffEnd: return "falls-off-end";
    }
    return "unknown";
}

std::string
LintFinding::toString() const
{
    return "pc " + std::to_string(pc) + ": " + lintCodeName(code) + ": "
           + message;
}

std::vector<LintFinding>
lintProgram(const isa::Program &program)
{
    // The fixpoint reads every instruction's opcode table row, so a
    // program with an unknown opcode gets the NonCanonical findings
    // alone -- the admission verifier's pass order.
    const auto unknown = [](const Instruction &instr) {
        return instr.op >= Opcode::NumOpcodes;
    };
    if (std::any_of(program.body.begin(), program.body.end(), unknown)) {
        std::vector<LintFinding> findings;
        for (std::size_t pc = 0; pc < program.body.size(); ++pc)
            lintCanonical(static_cast<int>(pc), program.body[pc], findings);
        return findings;
    }
    return Linter(program).run();
}

void
lintCanonical(int pc, const Instruction &instr, std::vector<LintFinding> &out)
{
    const auto bad = [&](std::string message) {
        out.push_back({LintCode::NonCanonical, pc, std::move(message)});
    };
    if (instr.op >= Opcode::NumOpcodes) {
        bad(strFormat("opcode %u unknown", unsigned(instr.op)));
        return;
    }

    const Opcode op = instr.op;
    const char *name = isa::opcodeInfo(op).name;
    const bool reads_b = isa::readsSrcB(op);

    if (instr.pred >= isa::numPredicates)
        bad(strFormat("predicate %d out of range", int(instr.pred)));
    else if (instr.pred == isa::predTrue && instr.predNegate)
        bad("guard reads the PT sentinel predicate (p0 with negate)");

    if (op == Opcode::SetP) {
        if (instr.dst >= isa::numPredicates)
            bad(strFormat("SetP predicate destination %d out of range",
                          int(instr.dst)));
    } else if (isa::writesRegister(op)) {
        if (instr.dst >= isa::numRegisters)
            bad(strFormat("destination register %d out of range",
                          int(instr.dst)));
    } else if (instr.dst != 0) {
        bad(strFormat("%s ignores dst but dst=%d", name,
                      int(instr.dst)));
    }

    if (isa::readsSrcA(op)) {
        if (instr.srcA >= isa::numRegisters)
            bad(strFormat("srcA register %d out of range", int(instr.srcA)));
    } else if (instr.srcA != 0) {
        bad(strFormat("%s ignores srcA but srcA=%d", name,
                      int(instr.srcA)));
    }

    if (reads_b && !instr.immB) {
        if (instr.srcB >= isa::numRegisters)
            bad(strFormat("srcB register %d out of range", int(instr.srcB)));
    } else if (instr.srcB != 0) {
        bad(strFormat("%s ignores srcB but srcB=%d", name,
                      int(instr.srcB)));
    }

    // Stores read srcB from the register file unconditionally, so an
    // immediate-B store would silently use the register anyway.
    if (instr.immB && (!reads_b || isa::isMemoryOp(op)))
        bad(strFormat("%s does not take an immediate srcB", name));

    if (op == Opcode::SetP || op == Opcode::S2R) {
        if (instr.flags >= 6)
            bad(strFormat("%s selector flags=%d out of range", name,
                          int(instr.flags)));
    } else if (instr.flags != 0) {
        bad(strFormat("%s ignores flags but flags=%d", name,
                      int(instr.flags)));
    }

    const bool uses_imm =
        instr.immB || isa::isMemoryOp(op) || op == Opcode::Bra;
    if (!uses_imm && instr.imm != 0)
        bad(strFormat("%s ignores imm but imm=%d", name, instr.imm));
    if (instr.imm < -32768 || instr.imm > 32767)
        bad(strFormat("imm=%d exceeds the 16-bit encoding", instr.imm));

    if (op != Opcode::Bra && instr.reconv != 0)
        bad(strFormat("%s ignores reconv but reconv=%d", name,
                      instr.reconv));
}

void
lintReconv(int pc, const Instruction &instr, int bodySize,
           std::vector<LintFinding> &out)
{
    if (instr.op != Opcode::Bra)
        return;
    const int target = instr.imm;
    const int reconv = instr.reconv;
    const bool forward =
        pc < target && target <= reconv && reconv < bodySize;
    const bool backward =
        0 <= target && target <= pc && pc < reconv && reconv < bodySize;
    if (!forward && !backward) {
        out.push_back({LintCode::BadReconv, pc,
                       strFormat("branch target %d / reconv %d malformed "
                                 "(body size %d)",
                                 target, reconv, bodySize)});
    }
}

void
lintUninit(int pc, const Instruction &instr, const AbsState &in,
           std::vector<LintFinding> &out)
{
    const auto reg_read = [&](std::uint8_t r, const char *role) {
        if (r < isa::numRegisters && !((in.regWritten >> r) & 1u)) {
            out.push_back(
                {LintCode::UninitRegRead, pc,
                 strFormat("r%d read as %s before any write on some path",
                           int(r), role)});
        }
    };
    if (isa::readsSrcA(instr.op))
        reg_read(instr.srcA, "srcA");
    if (isa::readsSrcB(instr.op) && !instr.immB)
        reg_read(instr.srcB, "srcB");
    if (isa::readsDst(instr.op))
        reg_read(instr.dst, "accumulator");

    if (isa::readsGuard(instr) && instr.pred < isa::numPredicates
        && !((in.predWritten >> instr.pred) & 1u)) {
        out.push_back({LintCode::UninitPredRead, pc,
                       strFormat("p%d guards before any SetP on some path",
                                 int(instr.pred))});
    }
}

SegmentExtent
segmentExtent(const isa::Program &program, isa::MemSpace space)
{
    const auto imageBytes = [](const std::vector<Word> &image) {
        return static_cast<std::uint32_t>(image.size() * 4);
    };
    switch (space) {
      case isa::MemSpace::Global:
        return {isa::globalSegmentBase,
                static_cast<std::uint32_t>(program.globalBytes())};
      case isa::MemSpace::Shared:
        return {0, program.sharedBytesPerBlock};
      case isa::MemSpace::Constant:
        return {0, imageBytes(program.constants)};
      case isa::MemSpace::Texture:
        return {0, imageBytes(program.texture)};
      case isa::MemSpace::None:
        break;
    }
    return {};
}

std::string
segmentEscape(const isa::Program &program, isa::MemSpace space,
              const KnownBits &addr)
{
    const SegmentExtent seg = segmentExtent(program, space);
    const bool inside = addr.lo >= seg.base && addr.hi < seg.base + seg.bytes;
    switch (space) {
      case isa::MemSpace::Global:
        if (seg.bytes == 0)
            return "global access but the global image is empty";
        if (!inside) {
            return strFormat("global address hull [%u, %u] escapes the "
                             "segment [%u, %u)",
                             addr.lo, addr.hi, seg.base,
                             seg.base + seg.bytes);
        }
        return {};
      case isa::MemSpace::Shared:
        if (seg.bytes == 0)
            return "shared access but the block has no shared segment";
        if (!inside) {
            return strFormat("shared offset may reach %u of a %u-byte "
                             "segment",
                             addr.hi, seg.bytes);
        }
        return {};
      case isa::MemSpace::Constant:
      case isa::MemSpace::Texture: {
        const char *name =
            space == isa::MemSpace::Texture ? "texture" : "constant";
        if (seg.bytes == 0)
            return strFormat("%s load but the image is empty", name);
        if (!inside) {
            return strFormat("%s offset may reach %u of a %u-byte image",
                             name, addr.hi, seg.bytes);
        }
        return {};
      }
      case isa::MemSpace::None:
        break;
    }
    return {};
}

} // namespace bvf::analysis
