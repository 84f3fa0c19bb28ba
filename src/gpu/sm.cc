/**
 * @file
 * SM implementation.
 */

#include "gpu/sm.hh"

#include "coder/vs_coder.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace bvf::gpu
{

using isa::Instruction;
using isa::Opcode;
using coder::UnitId;
using sram::AccessType;

namespace
{

/**
 * A list of at most one entry per lane, on the stack: the issue path
 * runs every cycle and must not allocate.
 */
template <typename T>
class LaneList
{
  public:
    void push(T v) { items_[size_++] = v; }

    /** Append @p v unless it is already listed. */
    void
    pushUnique(T v)
    {
        if (std::find(begin(), end(), v) == end())
            push(v);
    }

    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }
    std::size_t size() const { return size_; }
    std::span<const T> span() const { return {items_.data(), size_}; }

  private:
    // Not zeroed: only [0, size_) is read, and push writes each entry
    // first. Zeroing the lists cost the `stall` benchmark about 7%.
    std::array<T, warpSize> items_;
    std::size_t size_ = 0;
};

/**
 * The cycle from which the scoreboard lets @p instr issue: its guard
 * predicate and every source are readable (and the destination, which
 * FFMA/IMAD also read and loads must not overwrite early).
 */
std::uint64_t
operandsReadyAt(const Warp &warp, const Instruction &instr)
{
    std::uint64_t at = 0;
    if (instr.pred != isa::predTrue)
        at = std::max(at, warp.predReadyCycle(instr.pred));
    if (isa::readsSrcA(instr.op))
        at = std::max(at, warp.regReadyCycle(instr.srcA));
    if (isa::readsSrcB(instr.op) && !instr.immB)
        at = std::max(at, warp.regReadyCycle(instr.srcB));
    if (isa::writesRegister(instr.op) || isa::readsDst(instr.op))
        at = std::max(at, warp.regReadyCycle(instr.dst));
    return at;
}

/**
 * The byte address of each lane in @p guard of a global access, into
 * @p addr, and the distinct lines of @p cache they touch, in lane order.
 */
LaneList<std::uint32_t>
laneLines(const TagCache &cache, const Warp &warp, const Instruction &instr,
          std::uint32_t guard, std::array<std::uint32_t, warpSize> &addr)
{
    LaneList<std::uint32_t> lines;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a =
            warp.reg(lane, instr.srcA)
            + static_cast<std::uint32_t>(instr.imm);
        addr[static_cast<std::size_t>(lane)] = a;
        lines.pushUnique(cache.lineAddr(a));
    }
    return lines;
}

} // namespace

Sm::Sm(int smId, const GpuConfig &config, const isa::Program &program,
       sram::AccessSink &sink, ChipInterface &chip)
    : smId_(smId), config_(config), program_(program), sink_(sink),
      chip_(chip),
      l1d_("L1D", config.l1dBytes, config.l1dAssoc, config.lineBytes,
           config.mshrsPerSm),
      l1i_("L1I", config.l1iBytes, 2, config.lineBytes, 4),
      l1c_("L1C", config.l1cBytes, 2, 64, 4),
      l1t_("L1T", config.l1tBytes, 2, config.lineBytes, 8)
{
    fatal_if(config.maxWarpsPerSm < 1 || config.maxWarpsPerSm > 64,
             "maxWarpsPerSm %d is outside [1, 64]: the SM's ready set is "
             "one 64-bit mask",
             config.maxWarpsPerSm);
    warps_.resize(static_cast<std::size_t>(config.maxWarpsPerSm));
    slotUsed_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), false);
    slotBlock_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), -1);
    ifbGroup_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), -1);
    ifetchPending_.assign(static_cast<std::size_t>(config.maxWarpsPerSm),
                          false);
    wakeCycle_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), never);
    lastIssue_.assign(static_cast<std::size_t>(config.maxWarpsPerSm), 0);
    scheduler_ = makeScheduler(config.scheduler, config.maxWarpsPerSm);
}

int
Sm::freeWarpSlots() const
{
    int free_slots = 0;
    for (bool used : slotUsed_) {
        if (!used)
            ++free_slots;
    }
    return free_slots;
}

bool
Sm::assignBlock(int blockId)
{
    const int warps_needed = program_.launch.warpsPerBlock();
    // Find a contiguous run of free slots (hardware allocates per block).
    int run_start = -1;
    int run_len = 0;
    for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
        if (!slotUsed_[static_cast<std::size_t>(s)]) {
            if (run_len == 0)
                run_start = s;
            if (++run_len == warps_needed)
                break;
        } else {
            run_len = 0;
        }
    }
    if (run_len < warps_needed)
        return false;

    ResidentBlock block;
    block.blockId = blockId;
    block.firstWarp = run_start;
    block.numWarps = warps_needed;
    block.shared.assign(program_.sharedBytesPerBlock / 4, 0);
    blocks_.push_back(std::move(block));
    const int block_idx = static_cast<int>(blocks_.size()) - 1;

    for (int w = 0; w < warps_needed; ++w) {
        const int slot = run_start + w;
        slotUsed_[static_cast<std::size_t>(slot)] = true;
        slotBlock_[static_cast<std::size_t>(slot)] = block_idx;
        warps_[static_cast<std::size_t>(slot)].init(
            w, blockId, program_.launch.blockThreads);
        ifbGroup_[static_cast<std::size_t>(slot)] = -1;
        ifetchPending_[static_cast<std::size_t>(slot)] = false;
        lastIssue_[static_cast<std::size_t>(slot)] = 0;
        wake(slot);
    }
    return true;
}

bool
Sm::idle() const
{
    for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
        if (slotUsed_[static_cast<std::size_t>(s)]
            && !warps_[static_cast<std::size_t>(s)].done()) {
            return false;
        }
    }
    return waitingData_.empty() && waitingInstr_.empty()
           && localFills_.empty();
}

Sm::ResidentBlock &
Sm::blockOf(int slot)
{
    const int idx = slotBlock_[static_cast<std::size_t>(slot)];
    panic_if(idx < 0, "slot %d has no block", slot);
    return blocks_[static_cast<std::size_t>(idx)];
}

// ---------------------------------------------------------------------
// Accounting helpers
// ---------------------------------------------------------------------

void
Sm::accountRegRead(const Warp &warp, int reg, std::uint32_t guard,
                   std::uint64_t cycle)
{
    sink_.onAccess(UnitId::Reg, AccessType::Read, warp.regBlock(reg),
                   guard, cycle);
}

void
Sm::accountRegWrite(const Warp &warp, int reg, std::uint32_t guard,
                    std::uint64_t cycle)
{
    // A divergent write that skips the pivot lane forces the VS coder's
    // dummy-mov re-encode (Section 4.2.2 B); count those events.
    constexpr int pivot = coder::VsCoder::defaultRegisterPivot;
    if (guard != 0 && !((guard >> pivot) & 1u))
        ++stats_.pivotDivergentWrites;
    sink_.onAccess(UnitId::Reg, AccessType::Write, warp.regBlock(reg),
                   guard, cycle);
}

// ---------------------------------------------------------------------
// Fetch / readiness
// ---------------------------------------------------------------------

std::uint64_t
Sm::fetchReadyAt(int slot, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const int pc = warp.pc();
    const int group = pc / ifbInstrs;
    if (ifbGroup_[static_cast<std::size_t>(slot)] == group)
        return cycle;
    if (ifetchPending_[static_cast<std::size_t>(slot)])
        return never; // onInstrFill wakes it

    // Refill the IFB from L1I.
    const std::uint32_t line_addr =
        static_cast<std::uint32_t>(pc) * 8u
        & ~(config_.lineBytes - 1u);
    const auto outcome = l1i_.access(line_addr);
    if (outcome == CacheOutcome::Hit) {
        // L1I read + IFB fill of the fetch group.
        const int group_start = group * ifbInstrs;
        LaneList<Word64> instrs;
        for (int i = 0; i < ifbInstrs
                        && group_start + i
                               < static_cast<int>(program_.body.size());
             ++i) {
            instrs.push(chip_.instrBinary(group_start + i));
        }
        sink_.onFetch(UnitId::L1I, AccessType::Read, instrs.span(), cycle);
        sink_.onFetch(UnitId::Ifb, AccessType::Write, instrs.span(), cycle);
        ifbGroup_[static_cast<std::size_t>(slot)] = group;
        return cycle;
    }
    if (outcome == CacheOutcome::MshrFull)
        return cycle + 1;

    ifetchPending_[static_cast<std::size_t>(slot)] = true;
    waitingInstr_[line_addr].push_back(slot);
    if (outcome == CacheOutcome::Miss)
        chip_.sendReadRequest(smId_, line_addr, true, cycle);
    return never;
}

std::uint64_t
Sm::warpReadyAt(int slot, std::uint64_t cycle)
{
    ++stats_.readyChecks;
    if (!slotUsed_[static_cast<std::size_t>(slot)])
        return never; // assignBlock wakes it
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    if (warp.done() || warp.atBarrier)
        return never; // a barrier release wakes it

    // Under the uniform-dispatch contract the SIMT stack provably never
    // grows past its initial frame, so reconvergence maintenance is
    // dead work.
    if (!uniformDispatch_)
        warp.reconvergeIfNeeded();
    const std::uint64_t fetched = fetchReadyAt(slot, cycle);
    if (fetched > cycle)
        return fetched;
    return std::max(cycle,
                    operandsReadyAt(warp,
                                    program_.body[static_cast<std::size_t>(
                                        warp.pc())]));
}

void
Sm::wake(int slot)
{
    // Due at once: the next step evaluates it.
    wakeCycle_[static_cast<std::size_t>(slot)] = 0;
    nextWake_ = 0;
    frozenUntil_ = 0;
}

void
Sm::freezeOnStall(int slot)
{
    // The next step picks the same slot (the ready set and the issue
    // history have not changed), fires no probe (the slot is retrying)
    // and replays while the plan is current. Only a wake, a data fill or
    // a due local fill changes anything it reads.
    if (!scheduler_->repeatablePick() || stalled_.slot != slot
        || stalled_.plan.epoch() != l1d_.epoch()) {
        return;
    }
    std::uint64_t until = nextWake_;
    for (const LocalFill &fill : localFills_)
        until = std::min(until, fill.readyCycle);
    frozenUntil_ = until;
}

void
Sm::checkFrozen(std::uint64_t cycle) const
{
    checkSkippedWarps(cycle);
    panic_if(!scheduler_->repeatablePick(),
             "SM %d: frozen with an unrepeatable pick", smId_);
    panic_if(cycle >= nextWake_, "SM %d at cycle %llu: frozen past a wake",
             smId_, static_cast<unsigned long long>(cycle));
    for (const LocalFill &fill : localFills_) {
        panic_if(fill.readyCycle <= cycle,
                 "SM %d at cycle %llu: frozen past a local fill", smId_,
                 static_cast<unsigned long long>(cycle));
    }
    // A repeatable pick leaves the scheduler unchanged.
    const int slot =
        readyMask_ ? scheduler_->pick(readyMask_, lastIssue_, cycle) : -1;
    panic_if(slot < 0 || slot != stalled_.slot,
             "SM %d at cycle %llu: frozen on slot %d, the scheduler picks %d",
             smId_, static_cast<unsigned long long>(cycle), stalled_.slot,
             slot);
    panic_if(!((retryMask_ >> slot) & 1u),
             "SM %d slot %d at cycle %llu: frozen on a first attempt, which "
             "fires the probe",
             smId_, slot, static_cast<unsigned long long>(cycle));
    const Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const Instruction &instr =
        program_.body[static_cast<std::size_t>(warp.pc())];
    const std::uint32_t guard = warp.guardMask(instr);
    panic_if(instr.op != Opcode::Ldg || warp.pc() != stalled_.pc
                 || guard != stalled_.guard
                 || stalled_.plan.epoch() != l1d_.epoch(),
             "SM %d slot %d at cycle %llu: the step would not replay the "
             "stalled load",
             smId_, slot, static_cast<unsigned long long>(cycle));
    checkStallReplay(slot, instr, guard);
}

void
Sm::checkSkippedWarps(std::uint64_t cycle) const
{
    for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
        const bool in_mask = (readyMask_ >> s) & 1u;
        if (!in_mask && wakeCycle_[static_cast<std::size_t>(s)] <= cycle)
            continue; // step() evaluates it
        const Warp &warp = warps_[static_cast<std::size_t>(s)];
        if (!slotUsed_[static_cast<std::size_t>(s)] || warp.done()
            || warp.atBarrier) {
            panic_if(in_mask, "SM %d slot %d: stopped warp in ready set",
                     smId_, s);
            continue;
        }
        panic_if(!warp.reconverged(),
                 "SM %d slot %d: skipped warp would have reconverged",
                 smId_, s);
        if (ifbGroup_[static_cast<std::size_t>(s)] != warp.pc() / ifbInstrs) {
            panic_if(!ifetchPending_[static_cast<std::size_t>(s)],
                     "SM %d slot %d: skipped warp would have fetched",
                     smId_, s);
            panic_if(in_mask, "SM %d slot %d: fetching warp in ready set",
                     smId_, s);
            continue;
        }
        const bool ready =
            operandsReadyAt(warp, program_.body[static_cast<std::size_t>(
                                      warp.pc())])
            <= cycle;
        panic_if(ready != in_mask,
                 "SM %d slot %d at cycle %llu: skipped warp %s",
                 smId_, s, static_cast<unsigned long long>(cycle),
                 ready ? "would have been ready" : "left the ready set");
    }
}

void
Sm::checkStallReplay(int slot, const Instruction &instr,
                     std::uint32_t guard) const
{
    // Classify the load's lines as its tag phase would, without touching
    // the cache, and match them against the plan in lookup order.
    const Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const int pc = warp.pc();
    const std::span<const int> hit_ways = stalled_.plan.hitWays();
    std::size_t hits = 0;
    std::size_t merged = 0;
    std::array<std::uint32_t, warpSize> addr{};
    for (std::uint32_t line : laneLines(l1d_, warp, instr, guard, addr)) {
        if (l1d_.probe(line)) {
            panic_if(hits == hit_ways.size()
                         || l1d_.wayOf(line) != hit_ways[hits],
                     "SM %d slot %d pc %d: line %#x is not in its recorded "
                     "way",
                     smId_, slot, pc, line);
            ++hits;
        } else if (l1d_.missPending(line)) {
            panic_if(merged == stalled_.plan.merged(),
                     "SM %d slot %d pc %d: line %#x has an MSHR the plan "
                     "did not record",
                     smId_, slot, pc, line);
            ++merged;
        } else {
            panic_if(hits != hit_ways.size()
                         || merged != stalled_.plan.merged(),
                     "SM %d slot %d pc %d: a recorded line before %#x lost "
                     "its way or its MSHR",
                     smId_, slot, pc, line);
            panic_if(!l1d_.mshrsFull(),
                     "SM %d slot %d pc %d: line %#x would get a free MSHR",
                     smId_, slot, pc, line);
            return;
        }
    }
    panic("SM %d slot %d pc %d: no line of the replayed load stalls", smId_,
          slot, pc);
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

void
Sm::stepFull(std::uint64_t cycle)
{
    checkLocalFills(cycle);
#ifndef NDEBUG
    checkSkippedWarps(cycle);
    // The stalled warp cannot leave its load's pc without committing
    // the load, which clears the record.
    panic_if(stalled_.slot >= 0
                 && warps_[static_cast<std::size_t>(stalled_.slot)].pc()
                        != stalled_.pc,
             "SM %d slot %d: retry plan of pc %d outlived its load", smId_,
             stalled_.slot, stalled_.pc);
#endif

    // Evaluate, in slot order, only the warps outside the ready set
    // whose wake cycle has come.
    if (cycle >= nextWake_) {
        std::uint64_t next = never;
        for (int s = 0; s < config_.maxWarpsPerSm; ++s) {
            const std::uint64_t bit = std::uint64_t(1) << s;
            if (readyMask_ & bit)
                continue;
            std::uint64_t &wake_at = wakeCycle_[static_cast<std::size_t>(s)];
            if (wake_at <= cycle) {
                wake_at = warpReadyAt(s, cycle);
                if (wake_at <= cycle) {
                    readyMask_ |= bit;
                    continue;
                }
            }
            next = std::min(next, wake_at);
        }
        nextWake_ = next;
    }

    // No pick without a ready warp: the two-level scheduler would rotate
    // its pool.
    const int slot = readyMask_ ? scheduler_->pick(readyMask_, lastIssue_,
                                                   cycle)
                                : -1;
    if (slot < 0) {
        ++stats_.idleCycles;
        return;
    }
    if (issueWarp(slot, cycle)) {
        readyMask_ &= ~(std::uint64_t(1) << slot);
        wake(slot);
    } else {
        freezeOnStall(slot);
    }
}

bool
Sm::issueWarp(int slot, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const int pc = warp.pc();
    const Instruction &instr = program_.body[static_cast<std::size_t>(pc)];
    const std::uint32_t guard = warp.guardMask(instr);

    // Before execution: the probe sees the pc and the address
    // registers the instruction reads.
    const std::uint64_t bit = std::uint64_t(1) << slot;
    if (probe_ && !(retryMask_ & bit))
        probe_->onIssue(smId_, pc, instr, warp, guard, cycle);

    // Memory instructions can stall structurally; bail before any
    // architectural effect or accounting.
    if (isa::isMemoryOp(instr.op)) {
        if (guard != 0 && !executeMemory(slot, instr, guard, cycle)) {
            retryMask_ |= bit;
            return false;
        }
        if (guard == 0)
            warp.advancePc();
    }
    retryMask_ &= ~bit;

    // Every issued instruction consumes an IFB read slot.
    const Word64 bin = chip_.instrBinary(pc);
    sink_.onFetch(UnitId::Ifb, AccessType::Read, {&bin, 1}, cycle);

    ++stats_.issued;
    lastIssue_[static_cast<std::size_t>(slot)] = cycle;
    scheduler_->issued(slot, cycle);

    if (!isa::isMemoryOp(instr.op))
        executeAlu(slot, instr, guard, cycle);
    return true;
}

void
Sm::executeAlu(int slot, const Instruction &instr, std::uint32_t guard,
               std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];

    // Operand collection (register file reads); same-bank source
    // registers serialize inside the collector.
    int sources[3];
    int num_sources = 0;
    if (isa::readsSrcA(instr.op)) {
        accountRegRead(warp, instr.srcA, guard, cycle);
        sources[num_sources++] = instr.srcA;
    }
    if (isa::readsSrcB(instr.op) && !instr.immB) {
        accountRegRead(warp, instr.srcB, guard, cycle);
        sources[num_sources++] = instr.srcB;
    }
    if (isa::readsDst(instr.op)) {
        accountRegRead(warp, instr.dst, guard, cycle);
        sources[num_sources++] = instr.dst;
    }
    const auto collect = regFile_.record(
        std::span<const int>(sources,
                             static_cast<std::size_t>(num_sources)));
    stats_.regBankConflictCycles +=
        static_cast<std::uint64_t>(collect.conflictCycles);

    switch (instr.op) {
      case Opcode::Bra: {
        ++stats_.controlOps;
        const std::uint32_t active = warp.activeMask();
        const int target = instr.imm;
        if (guard == 0) {
            warp.advancePc();
        } else if (guard == active) {
            warp.setPc(target);
        } else {
            panic_if(uniformDispatch_,
                     "certified-uniform branch diverged at pc %d "
                     "(verifier soundness bug)",
                     warp.pc());
            warp.diverge(guard, target, warp.pc() + 1, instr.reconv);
        }
        return;
      }
      case Opcode::Exit: {
        ++stats_.controlOps;
        warp.setDone();
        const int block_idx = slotBlock_[static_cast<std::size_t>(slot)];
        ++blocks_[static_cast<std::size_t>(block_idx)].warpsDone;
        // A warp at a barrier must not wait for an exited sibling.
        handleBarrierRelease(block_idx);
        maybeRetireBlock(block_idx);
        return;
      }
      case Opcode::Bar: {
        ++stats_.controlOps;
        warp.atBarrier = true;
        warp.advancePc();
        handleBarrier(slot);
        return;
      }
      case Opcode::Nop:
        ++stats_.controlOps;
        warp.advancePc();
        return;
      default:
        break;
    }

    // Data-path instructions, evaluated by the shared semantics.
    if (isa::opcodeInfo(instr.op).fp)
        ++stats_.fpOps;
    else
        ++stats_.intOps;

    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const Word a = warp.reg(lane, instr.srcA);
        const Word b = instr.immB ? static_cast<Word>(instr.imm)
                                  : warp.reg(lane, instr.srcB);
        switch (instr.op) {
          case Opcode::SetP:
            warp.setPredicate(
                lane, instr.dst,
                isa::evalCmp(static_cast<isa::CmpOp>(instr.flags), a, b));
            break;
          case Opcode::S2R:
            warp.setReg(lane, instr.dst,
                        isa::specialValue(
                            static_cast<isa::SpecialReg>(instr.flags),
                            lane, warp.warpIdInBlock(), warp.blockId(),
                            program_.launch));
            break;
          default:
            warp.setReg(lane, instr.dst,
                        isa::evalAlu(instr.op, a, b,
                                     warp.reg(lane, instr.dst)));
            break;
        }
    }

    const int latency =
        isa::opcodeLatency(instr.op) + collect.conflictCycles;
    if (instr.op == Opcode::SetP) {
        warp.setPredReadyCycle(instr.dst,
                               cycle + static_cast<std::uint64_t>(latency));
    } else if (isa::writesRegister(instr.op)) {
        if (guard != 0)
            accountRegWrite(warp, instr.dst, guard, cycle);
        warp.setRegReadyCycle(instr.dst,
                              cycle + static_cast<std::uint64_t>(latency));
    }
    warp.advancePc();
}

// ---------------------------------------------------------------------
// Memory instructions
// ---------------------------------------------------------------------

bool
Sm::executeMemory(int slot, const Instruction &instr, std::uint32_t guard,
                  std::uint64_t cycle)
{
    switch (instr.op) {
      case Opcode::Ldg:
        return executeGlobalLoad(slot, instr, guard, cycle);
      case Opcode::Stg:
        executeGlobalStore(slot, instr, guard, cycle);
        return true;
      case Opcode::Lds:
      case Opcode::Sts:
        executeShared(slot, instr, guard, cycle);
        return true;
      case Opcode::Ldc:
      case Opcode::Ldt:
        return executeConstOrTex(slot, instr, guard, cycle);
      default:
        panic("not a memory opcode");
    }
}

bool
Sm::executeGlobalLoad(int slot, const Instruction &instr,
                      std::uint32_t guard, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];

    // A retry of the stalled load while no lookup's outcome can have
    // changed: repeat its recorded tag phase (DESIGN.md §3).
    if (stalled_.slot == slot && stalled_.pc == warp.pc()
        && stalled_.guard == guard
        && stalled_.plan.epoch() == l1d_.epoch()) {
#ifndef NDEBUG
        checkStallReplay(slot, instr, guard);
#endif
        l1d_.replay(stalled_.plan);
        ++stats_.issueStalls;
        ++stats_.stallReplays;
        return false;
    }

    // Resolve per-lane addresses (memory divergence: lanes may touch
    // several lines).
    std::array<std::uint32_t, warpSize> addr{};
    const LaneList<std::uint32_t> lines =
        laneLines(l1d_, warp, instr, guard, addr);

    // Tag phase: resolve every line's outcome before committing any
    // architectural effect, so a structural stall can abort cleanly.
    LaneList<std::uint32_t> hit_lines;
    LaneList<std::uint32_t> missed;
    LaneList<std::uint32_t> new_requests;
    bool stalled = false;
    tagPhase_.clear();
    for (std::uint32_t line : lines) {
        const auto outcome = l1d_.access(line, &tagPhase_);
        switch (outcome) {
          case CacheOutcome::Hit:
            hit_lines.push(line);
            break;
          case CacheOutcome::Miss:
            missed.push(line);
            new_requests.push(line);
            break;
          case CacheOutcome::MissMerged:
            missed.push(line);
            break;
          case CacheOutcome::MshrFull:
            stalled = true;
            break;
        }
        if (stalled)
            break;
    }
    if (stalled) {
        // Any MSHR we just allocated must still be serviced or it would
        // deadlock the retry (which will see MissMerged, not Miss).
        for (std::uint32_t line : new_requests)
            chip_.sendReadRequest(smId_, line, false, cycle);
        ++stats_.issueStalls;
        std::swap(stalled_.plan, tagPhase_);
        stalled_.slot = slot;
        stalled_.pc = warp.pc();
        stalled_.guard = guard;
        return false;
    }
    if (stalled_.slot == slot)
        stalled_.slot = -1;

    // Commit phase. Operand-collector read of the address register.
    ++stats_.loads;
    accountRegRead(warp, instr.srcA, guard, cycle);

    // The load returns memory as of its issue, whenever it completes.
    std::array<Word, warpSize> value{};
    for (int lane = 0; lane < warpSize; ++lane) {
        if ((guard >> lane) & 1u) {
            value[static_cast<std::size_t>(lane)] = chip_.readGlobalWord(
                addr[static_cast<std::size_t>(lane)]);
        }
    }

    for (std::uint32_t line : hit_lines) {
        // Account the words these lanes read out of L1D.
        LaneList<Word> words;
        for (int lane = 0; lane < warpSize; ++lane) {
            if (((guard >> lane) & 1u)
                && l1d_.lineAddr(addr[static_cast<std::size_t>(lane)])
                       == line) {
                words.push(value[static_cast<std::size_t>(lane)]);
            }
        }
        sink_.onAccess(UnitId::L1D, AccessType::Read, words.span(),
                       fullMask, cycle);
    }
    const int outstanding = static_cast<int>(missed.size());

    // Create the pending-load record.
    int load_id;
    if (!freeLoadIds_.empty()) {
        load_id = freeLoadIds_.back();
        freeLoadIds_.pop_back();
        loads_[static_cast<std::size_t>(load_id)] = PendingLoad{};
    } else {
        loads_.emplace_back();
        load_id = static_cast<int>(loads_.size()) - 1;
    }
    PendingLoad &load = loads_[static_cast<std::size_t>(load_id)];
    load.warpSlot = slot;
    load.dstReg = instr.dst;
    load.guard = guard;
    load.laneAddr = addr;
    load.laneValue = value;
    load.outstandingLines = outstanding;

    if (outstanding == 0) {
        // Full hit: deliver after the L1 hit latency.
        completeLoad(load_id, cycle
                               + static_cast<std::uint64_t>(
                                   config_.l1HitLatency));
    } else {
        warp.setRegReadyCycle(instr.dst, ~std::uint64_t(0));
        ++warp.pendingLoads;
        for (std::uint32_t line : missed)
            waitingData_[line].push_back(load_id);
        for (std::uint32_t line : new_requests)
            chip_.sendReadRequest(smId_, line, false, cycle);
    }
    warp.advancePc();
    return true;
}

void
Sm::completeLoad(int loadId, std::uint64_t cycle)
{
    PendingLoad &load = loads_[static_cast<std::size_t>(loadId)];
    Warp &warp = warps_[static_cast<std::size_t>(load.warpSlot)];

    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((load.guard >> lane) & 1u))
            continue;
        warp.setReg(lane, load.dstReg,
                    load.laneValue[static_cast<std::size_t>(lane)]);
    }
    accountRegWrite(warp, load.dstReg, load.guard, cycle);
    warp.setRegReadyCycle(load.dstReg, cycle + 2);
    wake(load.warpSlot);
    freeLoadIds_.push_back(loadId);
}

void
Sm::executeGlobalStore(int slot, const Instruction &instr,
                       std::uint32_t guard, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    ++stats_.stores;

    accountRegRead(warp, instr.srcA, guard, cycle);
    accountRegRead(warp, instr.srcB, guard, cycle);

    // Coalesce active lanes per line; write-evict: invalidate the local
    // copy and push the data to L2.
    std::array<std::uint32_t, warpSize> addr{};
    const LaneList<std::uint32_t> lines =
        laneLines(l1d_, warp, instr, guard, addr);

    for (std::uint32_t line : lines) {
        l1d_.invalidate(line);
        std::vector<Word> payload;
        for (int lane = 0; lane < warpSize; ++lane) {
            if (!((guard >> lane) & 1u))
                continue;
            if (l1d_.lineAddr(addr[static_cast<std::size_t>(lane)])
                != line) {
                continue;
            }
            const Word value = warp.reg(lane, instr.srcB);
            chip_.writeGlobalWord(addr[static_cast<std::size_t>(lane)],
                                  value);
            payload.push_back(value);
        }
        chip_.sendWriteRequest(smId_, line, std::move(payload), cycle);
    }
    warp.advancePc();
}

void
Sm::executeShared(int slot, const Instruction &instr, std::uint32_t guard,
                  std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    ResidentBlock &block = blockOf(slot);
    ++stats_.sharedAccesses;

    accountRegRead(warp, instr.srcA, guard, cycle);
    const bool is_store = instr.op == Opcode::Sts;
    if (is_store)
        accountRegRead(warp, instr.srcB, guard, cycle);

    // Bank-conflict model: 32 banks, word-interleaved.
    std::array<int, 32> bank_load{};
    LaneList<Word> words;
    const std::size_t shared_words = block.shared.size();
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a =
            warp.reg(lane, instr.srcA)
            + static_cast<std::uint32_t>(instr.imm);
        const std::size_t idx = isa::sharedIndex(a, shared_words);
        ++bank_load[idx % 32];
        if (is_store) {
            const Word v = warp.reg(lane, instr.srcB);
            if (shared_words)
                block.shared[idx] = v;
            words.push(v);
        } else {
            const Word v = shared_words ? block.shared[idx] : 0;
            warp.setReg(lane, instr.dst, v);
            words.push(v);
        }
    }

    int conflicts = 0;
    for (int b = 0; b < 32; ++b)
        conflicts = std::max(conflicts, bank_load[static_cast<std::size_t>(b)]);
    if (conflicts > 1) {
        stats_.bankConflictCycles +=
            static_cast<std::uint64_t>(conflicts - 1);
    }

    sink_.onAccess(UnitId::Sme,
                   is_store ? AccessType::Write : AccessType::Read,
                   words.span(), fullMask, cycle);

    if (!is_store) {
        accountRegWrite(warp, instr.dst, guard, cycle);
        warp.setRegReadyCycle(
            instr.dst, cycle
                           + static_cast<std::uint64_t>(
                               config_.sharedMemLatency + conflicts));
    }
    warp.advancePc();
}

bool
Sm::executeConstOrTex(int slot, const Instruction &instr,
                      std::uint32_t guard, std::uint64_t cycle)
{
    Warp &warp = warps_[static_cast<std::size_t>(slot)];
    const bool is_tex = instr.op == Opcode::Ldt;
    TagCache &cache = is_tex ? l1t_ : l1c_;
    const auto &image = is_tex ? program_.texture : program_.constants;
    const UnitId unit = is_tex ? UnitId::L1T : UnitId::L1C;
    ++stats_.loads;

    accountRegRead(warp, instr.srcA, guard, cycle);

    // Unique word addresses touched (constant loads broadcast).
    std::array<std::uint32_t, warpSize> addr{};
    LaneList<std::uint32_t> unique_words;
    LaneList<std::uint32_t> lines;
    for (int lane = 0; lane < warpSize; ++lane) {
        if (!((guard >> lane) & 1u))
            continue;
        const std::uint32_t a = isa::imageAddress(
            warp.reg(lane, instr.srcA)
                + static_cast<std::uint32_t>(instr.imm),
            image.size());
        addr[static_cast<std::size_t>(lane)] = a;
        unique_words.pushUnique(a);
        lines.pushUnique(cache.lineAddr(a));
    }

    // Constant/texture misses resolve locally, so a full MSHR file just
    // costs miss latency here instead of stalling the issue slot.
    bool all_hit = true;
    LaneList<std::uint32_t> missed;
    for (std::uint32_t line : lines) {
        const auto outcome = cache.access(line);
        if (outcome != CacheOutcome::Hit) {
            all_hit = false;
            if (outcome == CacheOutcome::Miss)
                missed.push(line);
        }
    }

    // Account the read words.
    LaneList<Word> words;
    for (std::uint32_t a : unique_words)
        words.push(isa::loadImage(image, a));
    sink_.onAccess(unit, AccessType::Read, words.span(), fullMask, cycle);

    // Deliver values functionally now; latency via the scoreboard.
    for (int lane = 0; lane < warpSize; ++lane) {
        if (((guard >> lane) & 1u)) {
            warp.setReg(lane, instr.dst,
                        isa::loadImage(
                            image, addr[static_cast<std::size_t>(lane)]));
        }
    }
    accountRegWrite(warp, instr.dst, guard, cycle);

    const int hit_lat = is_tex ? config_.texHitLatency
                               : config_.constHitLatency;
    const int miss_lat = is_tex ? config_.texMissLatency
                                : config_.constMissLatency;
    warp.setRegReadyCycle(
        instr.dst,
        cycle + static_cast<std::uint64_t>(all_hit ? hit_lat : miss_lat));

    // Schedule local fills for missed lines (accounted at fill time).
    for (std::uint32_t line : missed) {
        LocalFill fill;
        fill.readyCycle = cycle + static_cast<std::uint64_t>(miss_lat);
        fill.lineAddr = line;
        fill.isTexture = is_tex;
        localFills_.push_back(fill);
    }
    warp.advancePc();
    return true;
}

void
Sm::checkLocalFills(std::uint64_t cycle)
{
    for (auto it = localFills_.begin(); it != localFills_.end();) {
        if (it->readyCycle > cycle) {
            ++it;
            continue;
        }
        TagCache &cache = it->isTexture ? l1t_ : l1c_;
        const auto &image = it->isTexture ? program_.texture
                                          : program_.constants;
        cache.fill(it->lineAddr);
        // Account the fill write with the line's words.
        std::vector<Word> words;
        const std::uint32_t line_bytes = cache.lineBytes();
        for (std::uint32_t off = 0; off < line_bytes; off += 4)
            words.push_back(isa::loadImage(image, it->lineAddr + off));
        sink_.onAccess(it->isTexture ? UnitId::L1T : UnitId::L1C,
                       AccessType::Write, words, fullMask, cycle);
        it = localFills_.erase(it);
    }
}

// ---------------------------------------------------------------------
// Fill handling
// ---------------------------------------------------------------------

void
Sm::onDataFill(std::uint32_t lineAddr, std::uint64_t cycle)
{
    l1d_.fill(lineAddr); // a new epoch: the retry plan is stale
    frozenUntil_ = 0;

    // Account the L1D fill with the line's current contents.
    std::vector<Word> words;
    for (std::uint32_t off = 0; off < config_.lineBytes; off += 4)
        words.push_back(chip_.readGlobalWord(lineAddr + off));
    sink_.onAccess(UnitId::L1D, AccessType::Write, words, fullMask, cycle);

    auto it = waitingData_.find(lineAddr);
    if (it == waitingData_.end())
        return;
    std::vector<int> waiters = std::move(it->second);
    waitingData_.erase(it);

    for (int load_id : waiters) {
        PendingLoad &load = loads_[static_cast<std::size_t>(load_id)];
        // The words these lanes requested are read out of the fill.
        std::vector<Word> requested;
        for (int lane = 0; lane < warpSize; ++lane) {
            if (((load.guard >> lane) & 1u)
                && l1d_.lineAddr(
                       load.laneAddr[static_cast<std::size_t>(lane)])
                       == lineAddr) {
                requested.push_back(chip_.readGlobalWord(
                    load.laneAddr[static_cast<std::size_t>(lane)]));
            }
        }
        if (!requested.empty()) {
            sink_.onAccess(UnitId::L1D, AccessType::Read, requested,
                           fullMask, cycle);
        }
        if (--load.outstandingLines == 0) {
            Warp &warp = warps_[static_cast<std::size_t>(load.warpSlot)];
            --warp.pendingLoads;
            const int slot = load.warpSlot;
            completeLoad(load_id, cycle);
            // The last completion for an exited warp may unblock its
            // block's retirement.
            if (warp.done() && warp.pendingLoads == 0) {
                maybeRetireBlock(
                    slotBlock_[static_cast<std::size_t>(slot)]);
            }
        }
    }
}

void
Sm::onInstrFill(std::uint32_t lineAddr, std::uint64_t cycle)
{
    l1i_.fill(lineAddr);

    // Account the L1I line fill with the instruction words.
    std::vector<Word64> instrs;
    const int first_pc = static_cast<int>(lineAddr / 8);
    const int per_line = static_cast<int>(config_.lineBytes / 8);
    for (int i = 0; i < per_line; ++i) {
        if (first_pc + i < static_cast<int>(program_.body.size()))
            instrs.push_back(chip_.instrBinary(first_pc + i));
    }
    sink_.onFetch(UnitId::L1I, AccessType::Write, instrs, cycle);

    auto it = waitingInstr_.find(lineAddr);
    if (it == waitingInstr_.end())
        return;
    for (int slot : it->second) {
        ifetchPending_[static_cast<std::size_t>(slot)] = false;
        wake(slot);
    }
    waitingInstr_.erase(it);
}

// ---------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------

void
Sm::handleBarrier(int slot)
{
    handleBarrierRelease(slotBlock_[static_cast<std::size_t>(slot)]);
}

void
Sm::handleBarrierRelease(int blockIdx)
{
    ResidentBlock &block = blocks_[static_cast<std::size_t>(blockIdx)];
    // Release when every live warp of the block is waiting.
    for (int w = 0; w < block.numWarps; ++w) {
        const Warp &warp =
            warps_[static_cast<std::size_t>(block.firstWarp + w)];
        if (!warp.done() && !warp.atBarrier)
            return;
    }
    for (int w = 0; w < block.numWarps; ++w) {
        Warp &warp = warps_[static_cast<std::size_t>(block.firstWarp + w)];
        if (warp.atBarrier) {
            warp.atBarrier = false;
            wake(block.firstWarp + w);
        }
    }
}

void
Sm::maybeRetireBlock(int blockIdx)
{
    ResidentBlock &block = blocks_[static_cast<std::size_t>(blockIdx)];
    if (block.retired || block.warpsDone < block.numWarps)
        return;
    for (int w = 0; w < block.numWarps; ++w) {
        if (warps_[static_cast<std::size_t>(block.firstWarp + w)]
                .pendingLoads
            > 0) {
            return; // a completion still targets these slots
        }
    }
    for (int w = 0; w < block.numWarps; ++w) {
        const int slot = block.firstWarp + w;
        slotUsed_[static_cast<std::size_t>(slot)] = false;
        slotBlock_[static_cast<std::size_t>(slot)] = -1;
        ifbGroup_[static_cast<std::size_t>(slot)] = -1;
    }
    block.retired = true;
    block.shared.clear();
    block.shared.shrink_to_fit();
}

} // namespace bvf::gpu
