/**
 * @file
 * Multi-scenario energy accountant: the AccessSink implementation that
 * evaluates all coding scenarios side by side during one simulation.
 *
 * For every unit access it applies, per scenario, the coders that
 * Table 1 assigns to the unit (NV everywhere on the data path, VS with
 * lane pivot 21 at registers / element pivot 0 at cache-line units, the
 * ISA mask on the instruction stream) and accumulates encoded bit
 * statistics. NoC channels additionally keep, per scenario, the last
 * flit transmitted so wire toggles are counted exactly.
 *
 * Scenarios often store identical bits: ISA-only leaves every data
 * block raw, and a unit covered by one data coder stores under BVF what
 * it stores under that coder alone. The constructor groups, per unit,
 * the scenarios that store the same image into one slot. Every coder is
 * an XOR with a mask the coder defines, so a slot's image is the raw
 * block XOR its masks: each access reads the raw block once and counts
 * every slot from it, a word pair at a time or, on hosts with AVX-512,
 * the whole block in two 512-bit vectors.
 */

#ifndef BVF_CORE_ACCOUNTANT_HH
#define BVF_CORE_ACCOUNTANT_HH

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "coder/bvf_space.hh"
#include "coder/isa_coder.hh"
#include "coder/scenario.hh"
#include "coder/vs_coder.hh"
#include "isa/encoding.hh"
#include "sram/access_sink.hh"
#include "sram/unit_account.hh"

namespace bvf::core
{

/** Per-scenario NoC statistics. */
struct NocAccount
{
    std::uint64_t toggles = 0;
    std::uint64_t flits = 0;
    std::uint64_t payloadOnes = 0;
    std::uint64_t payloadBits = 0;
};

/** Options controlling the accountant's coder wiring. */
struct AccountantOptions
{
    int vsRegisterPivot = coder::VsCoder::defaultRegisterPivot;
    isa::GpuArch arch = isa::GpuArch::Pascal;

    /**
     * Override the Table 2 mask with a per-application mask (the
     * paper's "dynamic" ISA-coder variant, Section 4.3: the assembler
     * counts 0/1 occurrence in this binary and programs a mask register
     * at kernel launch). Zero value = use the static Table 2 mask.
     */
    Word64 dynamicIsaMask = 0;

    /**
     * Account SECDED(72,64) check bits alongside the data bits. The
     * check byte is computed over the *post-coder* word pair, because
     * that is what the array stores: XNOR coding changes the 0/1 mix of
     * the data and therefore of the parity bits protecting it.
     */
    bool eccAccounting = false;
};

namespace detail
{
/** The accountant's counting kernels (core/accountant_kernel.hh). */
enum class Kernel
{
    Portable, //!< plain C++
    Popcnt,   //!< the popcnt instruction
    Avx512,   //!< 512-bit vectors: VPOPCNT and GF2P8AFFINEQB
};

struct KernelSelect;
} // namespace detail

/**
 * The accountant. Construct one per simulated run with the unit
 * capacities of the machine.
 */
class EnergyAccountant : public sram::AccessSink
{
  public:
    /**
     * @param capacities capacity in bits per unit (NoC excluded)
     * @param options coder wiring knobs
     */
    EnergyAccountant(
        const std::map<coder::UnitId, std::uint64_t> &capacities,
        const AccountantOptions &options = {});

    // --- AccessSink ----------------------------------------------------
    void onAccess(coder::UnitId unit, sram::AccessType type,
                  std::span<const Word> block, std::uint32_t activeMask,
                  std::uint64_t cycle) override;
    void onFetch(coder::UnitId unit, sram::AccessType type,
                 std::span<const Word64> instrs,
                 std::uint64_t cycle) override;
    void onNocPacket(int channel, std::span<const Word> payload,
                     bool instrStream, std::uint64_t cycle) override;

    /** Finish leakage integration at the end of the run. */
    void finalize(std::uint64_t endCycle);

    /** Access statistics for @p unit. */
    const sram::UnitAccount &unitAccount(coder::UnitId unit) const;

    /** Per-unit stats map for one scenario (power-model input). */
    std::map<coder::UnitId, sram::UnitScenarioStats> unitStats(
        coder::Scenario s) const;

    /** NoC account for @p s. */
    const NocAccount &
    noc(coder::Scenario s) const
    {
        return noc_[static_cast<std::size_t>(coder::scenarioIndex(s))];
    }

    /** The ISA mask in use. */
    Word64 isaMask() const { return isaCoder_.mask(); }

    /** True if SECDED check bits are accounted with the data bits. */
    bool eccAccounting() const { return options_.eccAccounting; }

    /** Words per NoC flit (32B flits, Table 3). */
    static constexpr std::size_t flitWords = 8;

    /**
     * One stored image of a unit's data path: the raw block, NV-coded
     * if @c nv, then VS-coded around pivot @c vsPivot unless it is
     * negative.
     */
    struct Slot
    {
        bool nv = false;
        int vsPivot = -1;

        bool operator==(const Slot &other) const = default;
    };

    /**
     * The distinct stored images of one unit's data path, and the slot
     * each scenario stores (slot 0 is the raw block).
     */
    struct UnitPlan
    {
        std::size_t slots = 1;
        std::array<Slot, coder::numScenarios> slot{};
        std::array<std::size_t, coder::numScenarios> slotOf{};
    };

    /** Per-channel, per-scenario previous flit; wires start discharged. */
    using ChannelState =
        std::array<std::array<Word, flitWords>, coder::numScenarios>;

  private:
    friend struct detail::KernelSelect;

    sram::UnitAccount &accountFor(coder::UnitId unit, const char *what);

    std::array<std::optional<sram::UnitAccount>, coder::numUnits>
        accounts_;
    std::array<UnitPlan, coder::numUnits> plans_;
    AccountantOptions options_;
    coder::IsaCoder isaCoder_;

    /** Check byte of the ISA coder's XOR mask, ~isaMask(). */
    std::uint8_t isaCheck_;

    /**
     * Check byte of NV's XOR mask over a word pair, indexed by which
     * halves NV flips (bit 0 low, bit 1 high).
     */
    std::array<std::uint8_t, 4> nvPairCheck_;

    /** The kernel that counts; the host's fastest unless a test says. */
    detail::Kernel kernel_;

    std::vector<ChannelState> channels_;
    std::array<NocAccount, coder::numScenarios> noc_;
};

} // namespace bvf::core

#endif // BVF_CORE_ACCOUNTANT_HH
