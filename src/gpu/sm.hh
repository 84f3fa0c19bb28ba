/**
 * @file
 * Streaming multiprocessor model.
 *
 * Each SM hosts resident thread blocks, schedules one instruction per
 * cycle from a ready warp (GTO/LRR/two-level), executes it functionally
 * on per-lane register values, and models the per-SM storage: register
 * file, shared memory, L1 data / instruction / constant / texture
 * caches with MSHRs. Every storage access is reported to the
 * AccessSink with its raw data so the accounting layer can evaluate all
 * coding scenarios simultaneously.
 *
 * Stores follow the GPU write-evict / write-no-allocate policy the
 * paper's VS coder relies on: store data goes straight to L2 (through
 * the NoC), invalidating any local copy.
 */

#ifndef BVF_GPU_SM_HH
#define BVF_GPU_SM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gpu/cache.hh"
#include "gpu/gpu_config.hh"
#include "gpu/regfile.hh"
#include "gpu/scheduler.hh"
#include "gpu/warp.hh"
#include "isa/program.hh"
#include "sram/access_sink.hh"

namespace bvf::gpu
{

/** Services the SM needs from the chip (implemented by Gpu). */
class ChipInterface
{
  public:
    virtual ~ChipInterface() = default;

    /** Send a line read request into the NoC (data or instruction). */
    virtual void sendReadRequest(int smId, std::uint32_t lineAddr,
                                 bool instr, std::uint64_t cycle) = 0;

    /** Send store data for @p lineAddr into the NoC. */
    virtual void sendWriteRequest(int smId, std::uint32_t lineAddr,
                                  std::vector<Word> payload,
                                  std::uint64_t cycle) = 0;

    /** Functional read of a global word (byte address). */
    virtual Word readGlobalWord(std::uint32_t addr) const = 0;

    /** Functional write of a global word (byte address). */
    virtual void writeGlobalWord(std::uint32_t addr, Word value) = 0;

    /** Program binary word for instruction index @p pc. */
    virtual Word64 instrBinary(int pc) const = 0;
};

/**
 * Validation hook observing every instruction the SM issues, with the
 * issuing warp's full architectural state, before the instruction
 * executes. Used by the static analyzer's soundness tests to compare
 * abstract facts against every concrete lane value at the matching pc,
 * and by the certificate probe (core/contract.hh). It fires once per
 * architectural issue: a memory instruction that stalls structurally
 * fires it on its first attempt only, not on the retries that follow,
 * so an SM whose every step only replays such a retry may freeze under
 * a probe as without one (DESIGN.md §3).
 *
 * The register file a probe sees is the microarchitectural one: a load
 * that is still in flight has not yet written its destination, so that
 * register holds the previous value until the response lands. The
 * scoreboard guarantees no consumer can read it meanwhile -- probes
 * asserting architectural facts must apply the same gate by skipping
 * registers with Warp::regReadyCycle past the issue cycle.
 */
class ExecProbe
{
  public:
    virtual ~ExecProbe() = default;

    /**
     * @param smId issuing SM
     * @param pc program counter of the issued instruction
     * @param instr the instruction at @p pc
     * @param warp the issuing warp, pre-execution
     * @param guard active lanes passing the instruction's guard
     * @param cycle issue cycle, for scoreboard (readiness) queries
     */
    virtual void onIssue(int smId, int pc, const isa::Instruction &instr,
                         const Warp &warp, std::uint32_t guard,
                         std::uint64_t cycle) = 0;
};

/** Per-SM dynamic instruction statistics (feeds the power model). */
struct SmStats
{
    std::uint64_t issued = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t intOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t controlOps = 0;
    std::uint64_t sharedAccesses = 0;
    std::uint64_t bankConflictCycles = 0;    //!< shared-memory banks
    std::uint64_t regBankConflictCycles = 0; //!< operand collection
    std::uint64_t idleCycles = 0;

    /**
     * Register writes whose guard mask excludes the VS pivot lane while
     * writing other lanes -- the case where the paper's VS coder must
     * insert a dummy mov to re-encode against the new pivot (Section
     * 4.2.2, branch divergence). Counted so the claimed "negligible
     * overhead" is measurable.
     */
    std::uint64_t pivotDivergentWrites = 0;

    /**
     * Work counters, neither rendered nor journaled. readyChecks counts
     * warp readiness evaluations: only warps whose state changed are
     * evaluated, where scanning every slot would count maxWarpsPerSm
     * per SM step. issueStalls counts global-load issue attempts that
     * found the MSHR file full and retry the next cycle; stallReplays
     * counts those of them repeated from the load's recorded RetryPlan
     * instead of re-resolved. frozenSteps counts those replays made by
     * a frozen SM's step, which does nothing else.
     */
    std::uint64_t readyChecks = 0;
    std::uint64_t issueStalls = 0;
    std::uint64_t stallReplays = 0;
    std::uint64_t frozenSteps = 0;
};

/**
 * One streaming multiprocessor.
 */
class Sm
{
  public:
    Sm(int smId, const GpuConfig &config, const isa::Program &program,
       sram::AccessSink &sink, ChipInterface &chip);

    /** Try to make @p blockId resident; false if out of warp slots. */
    bool assignBlock(int blockId);

    /** All resident warps finished and no pending work. */
    bool idle() const;

    /** Number of free warp slots. */
    int freeWarpSlots() const;

    /** Advance one core cycle. */
    void
    step(std::uint64_t cycle)
    {
        // Frozen (DESIGN.md §3): the full step would only repeat the
        // stalled load's retry from its plan.
        if (cycle < frozenUntil_) {
#ifndef NDEBUG
            checkFrozen(cycle);
#endif
            l1d_.replay(stalled_.plan);
            ++stats_.issueStalls;
            ++stats_.stallReplays;
            ++stats_.frozenSteps;
            return;
        }
        stepFull(cycle);
    }

    /** A data line arrived from L2. */
    void onDataFill(std::uint32_t lineAddr, std::uint64_t cycle);

    /** An instruction line arrived from L2. */
    void onInstrFill(std::uint32_t lineAddr, std::uint64_t cycle);

    const SmStats &stats() const { return stats_; }
    int smId() const { return smId_; }

    /** Install (or clear, with nullptr) the issue-observation probe. */
    void setExecProbe(ExecProbe *probe) { probe_ = probe; }

    /**
     * Run the dispatch loop specialized for programs whose admission
     * certificate proves uniform control flow (Certificate::
     * uniformControlFlow): per-issue reconvergence-stack maintenance is
     * skipped, and Warp::diverge firing becomes a hard contract
     * violation. Purely a fast path -- issue order, statistics and
     * energy accounting are byte-identical to the general loop.
     */
    void setUniformDispatch(bool on) { uniformDispatch_ = on; }

  private:
    /** Instructions per IFB refill. */
    static constexpr int ifbInstrs = 8;

    /** Wake cycle of a warp only an event can make ready. */
    static constexpr std::uint64_t never = ~std::uint64_t(0);

    struct ResidentBlock
    {
        int blockId = 0;
        int firstWarp = 0; //!< slot of its first warp
        int numWarps = 0;
        int warpsDone = 0;
        bool retired = false;
        std::vector<Word> shared; //!< shared-memory contents
    };

    struct PendingLoad
    {
        int warpSlot = 0;
        int dstReg = 0;
        std::uint32_t guard = 0;
        std::array<std::uint32_t, warpSize> laneAddr{};
        /** Values read at issue: a younger store must not reach them. */
        std::array<Word, warpSize> laneValue{};
        int outstandingLines = 0;
    };

    /**
     * The global load that last stalled on a full L1D MSHR file, with
     * its recorded tag phase; cleared when that slot's load commits.
     */
    struct StalledLoad
    {
        int slot = -1; //!< -1: none
        int pc = 0;
        std::uint32_t guard = 0;
        RetryPlan plan;
    };

    struct LocalFill
    {
        std::uint64_t readyCycle = 0;
        std::uint32_t lineAddr = 0;
        bool isTexture = false;
        std::vector<int> waitingLoads;
    };

    // --- pipeline stages ----------------------------------------------
    /** step() when not frozen: evaluate, pick and issue. */
    void stepFull(std::uint64_t cycle);

    /**
     * After @p slot's issue stalled: freeze the SM until its next warp
     * wake or local fill, if each step until then would replay the
     * stalled load and do nothing else.
     */
    void freezeOnStall(int slot);

    /**
     * Evaluate the warp in @p slot: the earliest cycle it can issue, or
     * @c never while it waits on an event (exit, barrier, ifetch, a
     * load). Reconverges its SIMT stack and may refill its IFB, so it
     * runs only where the every-slot-every-cycle model would have had
     * an effect (DESIGN.md §3).
     */
    std::uint64_t warpReadyAt(int slot, std::uint64_t cycle);

    /** @c cycle once the IFB holds the warp's pc; may fetch from L1I. */
    std::uint64_t fetchReadyAt(int slot, std::uint64_t cycle);

    /**
     * Issue from @p slot; false on a structural (MSHR-full) stall. Fires
     * the probe first unless the slot is retrying such a stall.
     */
    bool issueWarp(int slot, std::uint64_t cycle);

    /** Re-evaluate @p slot at the next step: its state has changed. */
    void wake(int slot);

    /**
     * Debug builds: panic if a warp step() did not evaluate would have
     * been ready, would have fetched, or left the ready set.
     */
    void checkSkippedWarps(std::uint64_t cycle) const;

    /**
     * Debug builds: panic unless the stalled load in @p slot, re-resolved
     * read-only, would have the outcomes its plan recorded.
     */
    void checkStallReplay(int slot, const isa::Instruction &instr,
                          std::uint32_t guard) const;

    /**
     * Debug builds: panic unless the full step at @p cycle would have
     * made the frozen SM's pick and replayed its stalled load.
     */
    void checkFrozen(std::uint64_t cycle) const;

    /** Execute a non-memory instruction functionally. */
    void executeAlu(int slot, const isa::Instruction &instr,
                    std::uint32_t guard, std::uint64_t cycle);

    /** Try to issue a memory instruction; false on structural stall. */
    bool executeMemory(int slot, const isa::Instruction &instr,
                       std::uint32_t guard, std::uint64_t cycle);

    bool executeGlobalLoad(int slot, const isa::Instruction &instr,
                           std::uint32_t guard, std::uint64_t cycle);
    void executeGlobalStore(int slot, const isa::Instruction &instr,
                            std::uint32_t guard, std::uint64_t cycle);
    void executeShared(int slot, const isa::Instruction &instr,
                       std::uint32_t guard, std::uint64_t cycle);
    bool executeConstOrTex(int slot, const isa::Instruction &instr,
                           std::uint32_t guard, std::uint64_t cycle);

    void completeLoad(int loadId, std::uint64_t cycle);
    void handleBarrier(int slot);
    void handleBarrierRelease(int blockIdx);
    void checkLocalFills(std::uint64_t cycle);

    /**
     * Free a finished block's warp slots so queued blocks can launch.
     * Deferred while any of its warps still has loads in flight (their
     * completions must not write a re-assigned slot).
     */
    void maybeRetireBlock(int blockIdx);

    // --- accounting helpers -------------------------------------------
    void accountRegRead(const Warp &warp, int reg, std::uint32_t guard,
                        std::uint64_t cycle);
    void accountRegWrite(const Warp &warp, int reg, std::uint32_t guard,
                         std::uint64_t cycle);

    ResidentBlock &blockOf(int slot);

    int smId_;
    const GpuConfig &config_;
    const isa::Program &program_;
    sram::AccessSink &sink_;
    ChipInterface &chip_;
    ExecProbe *probe_ = nullptr;
    bool uniformDispatch_ = false;

    std::vector<Warp> warps_;
    std::vector<bool> slotUsed_;
    std::vector<int> slotBlock_; //!< resident-block index per slot
    std::vector<ResidentBlock> blocks_;
    std::unique_ptr<WarpScheduler> scheduler_;

    TagCache l1d_;
    TagCache l1i_;
    TagCache l1c_;
    TagCache l1t_;
    RegFileModel regFile_;

    // Per-warp IFB state: which instruction group is buffered.
    std::vector<int> ifbGroup_;
    std::vector<bool> ifetchPending_;

    std::vector<PendingLoad> loads_;
    std::vector<int> freeLoadIds_;
    std::unordered_map<std::uint32_t, std::vector<int>> waitingData_;
    std::unordered_map<std::uint32_t, std::vector<int>> waitingInstr_;
    std::vector<LocalFill> localFills_;

    // MSHR-full retry replay (DESIGN.md §3): the stalled load, and the
    // plan the next full tag phase records into, swapped into stalled_
    // only if that phase stalls.
    StalledLoad stalled_;
    RetryPlan tagPhase_;

    // Steps before frozenUntil_ only replay stalled_ (DESIGN.md §3); any
    // wake() or data fill ends the freeze.
    std::uint64_t frozenUntil_ = 0;

    // Wake-driven issue (DESIGN.md §3). Bit s of readyMask_ is set while
    // the warp in slot s is ready and has not issued; any other slot is
    // next evaluated at wakeCycle_[s], and nextWake_ is the least of
    // those, so a step with nothing due evaluates no warp.
    std::uint64_t readyMask_ = 0;
    // Bit s is set while slot s retries a structurally stalled issue,
    // whose first attempt already fired the probe.
    std::uint64_t retryMask_ = 0;
    std::vector<std::uint64_t> wakeCycle_;
    std::uint64_t nextWake_ = 0;
    std::vector<std::uint64_t> lastIssue_; //!< per slot, for GTO

    SmStats stats_;
};

} // namespace bvf::gpu

#endif // BVF_GPU_SM_HH
