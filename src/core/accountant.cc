/**
 * @file
 * EnergyAccountant implementation.
 *
 * The counting loops are written once, as always-inline templates, and
 * compiled twice: once for the popcnt instruction and once portable.
 * The constructor picks one with a cpuid check made on first use. The
 * choice is not left to ifunc resolvers or __builtin_cpu_supports,
 * which run libgcc's CPU detection at process start, and GCC cannot
 * multiversion the virtual sink methods themselves.
 */

#include "core/accountant.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define BVF_TARGET_POPCNT [[gnu::target("popcnt")]]
#else
#define BVF_TARGET_POPCNT
#endif

#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/logging.hh"
#include "core/accountant_kernel.hh"
#include "fault/secded.hh"

namespace bvf::core
{

using coder::NvCoder;
using coder::Scenario;
using coder::UnitId;
using coder::VsCoder;
using Slot = EnergyAccountant::Slot;
using UnitPlan = EnergyAccountant::UnitPlan;
using ChannelState = EnergyAccountant::ChannelState;

namespace
{

constexpr std::size_t
idx(Scenario s)
{
    return static_cast<std::size_t>(coder::scenarioIndex(s));
}

/** Instruction-stream slot of @p s: 0 stores raw, 1 ISA-coded. */
constexpr std::size_t
isaSlot(Scenario s)
{
    return s == Scenario::IsaOnly || s == Scenario::AllCoders ? 1 : 0;
}

constexpr std::uint64_t eccBits =
    fault::eccCheckBits(fault::EccScheme::Secded72_64);

constexpr Word64
pairOf(Word lo, Word hi)
{
    return static_cast<Word64>(lo) | (static_cast<Word64>(hi) << 32);
}

/** The halves of a word pair selected by a 2-bit index (bit 0 low). */
constexpr std::array<Word64, 4> halves = {
    0, pairOf(~Word(0), 0), pairOf(0, ~Word(0)), ~Word64(0)};

void
record(sram::UnitAccount &account, sram::AccessType type, Scenario s,
       std::uint64_t ones, std::uint64_t bits, std::uint64_t cycle)
{
    if (type == sram::AccessType::Read)
        account.recordRead(s, ones, bits, cycle);
    else
        account.recordWrite(s, ones, bits, cycle);
}

/**
 * One slot's XOR masks for one block. Word i of the slot's image is
 * word i XOR (NV's mask of it if @c nv is all ones) XOR (@c vs unless
 * i is the pivot).
 */
struct SlotMask
{
    Word nv = 0;
    Word vs = 0;
    std::size_t pivot = SIZE_MAX;
    /** Check bytes of @c vs over the halves of a pair (bit 0 low). */
    std::array<std::uint8_t, 4> vsCheck{};

    Word
    at(std::size_t i, Word w) const
    {
        return (NvCoder::mask(w) & nv) ^ (i != pivot ? vs : 0);
    }
};

/** The masks of @p slot for @p block; @p ecc also fills vsCheck. */
SlotMask
slotMask(const Slot &slot, std::span<const Word> block, bool ecc)
{
    SlotMask m;
    m.nv = slot.nv ? ~Word(0) : 0;
    if (slot.vsPivot < 0 || block.empty())
        return m;
    m.pivot = VsCoder::effectivePivot(slot.vsPivot, block.size());
    // NV codes the pivot before VS reads it.
    const Word pivot = block[m.pivot];
    m.vs = VsCoder::mask(pivot ^ (NvCoder::mask(pivot) & m.nv));
    if (ecc) {
        const auto lo = fault::secdedEncode(pairOf(m.vs, 0));
        const auto hi = fault::secdedEncode(pairOf(0, m.vs));
        m.vsCheck = {0, lo, hi, static_cast<std::uint8_t>(lo ^ hi)};
    }
    return m;
}

/** Per-slot 1-bit counts of one access, and the bits it stores. */
struct AccessCount
{
    std::array<std::uint64_t, coder::numScenarios> ones{};
    std::uint64_t bits = 0;
};

/**
 * Count every slot of @p plan over @p block in one pass of word pairs.
 * Only active words count (the mask has no lane past 31), but a SECDED
 * codeword spans the pair and its check byte moves with the pair
 * whenever either half is touched. The raw pair's check byte is
 * computed once; a slot's is that XOR its masks' check bytes.
 */
template <bool Ecc>
[[gnu::always_inline]] inline AccessCount
countAccess(const UnitPlan &plan, std::span<const Word> block,
            std::uint32_t activeMask,
            const std::array<std::uint8_t, 4> &nvPairCheck)
{
    std::array<SlotMask, coder::numScenarios> masks;
    for (std::size_t k = 0; k < plan.slots; ++k)
        masks[k] = slotMask(plan.slot[k], block, Ecc);

    const auto active = [activeMask](std::size_t i) -> unsigned {
        return i < 32 ? (activeMask >> i) & 1u : 0;
    };
    AccessCount out;
    const std::size_t n = block.size();
    for (std::size_t base = 0; base < n; base += 2) {
        const bool paired = base + 1 < n;
        const unsigned live_halves =
            active(base) | (paired ? active(base + 1) << 1 : 0);
        if (!live_halves)
            continue;
        const Word lo = block[base];
        const Word hi = paired ? block[base + 1] : 0;
        const Word64 raw = pairOf(lo, hi);
        const Word64 live = halves[live_halves];
        const unsigned present = paired ? 3 : 1;
        const Word64 nv = pairOf(NvCoder::mask(lo),
                                 paired ? NvCoder::mask(hi) : 0);
        // Bit 0 of a half's NV mask is set iff NV flips that half.
        const unsigned nv_halves = (nv & 1) | ((nv >> 31) & 2);
        const std::uint8_t check = Ecc ? fault::secdedEncode(raw) : 0;
        out.bits += 32 * static_cast<std::uint64_t>(std::popcount(live_halves))
                    + (Ecc ? eccBits : 0);
        for (std::size_t k = 0; k < plan.slots; ++k) {
            const SlotMask &m = masks[k];
            const unsigned vs_halves =
                base == (m.pivot & ~std::size_t(1))
                    ? present & ~(1u << (m.pivot & 1))
                    : present;
            const Word64 mask = (nv & pairOf(m.nv, m.nv))
                                ^ (pairOf(m.vs, m.vs) & halves[vs_halves]);
            out.ones[k] += static_cast<std::uint64_t>(
                hammingWeight64((raw ^ mask) & live));
            if (Ecc) {
                const unsigned c = check
                                   ^ nvPairCheck[nv_halves & m.nv & 3]
                                   ^ m.vsCheck[vs_halves];
                out.ones[k] += static_cast<std::uint64_t>(
                    std::popcount(c));
            }
        }
    }
    return out;
}

/** 1-bit counts of the raw and the ISA-coded instructions. */
template <bool Ecc>
[[gnu::always_inline]] inline std::array<std::uint64_t, 2>
countFetch(std::span<const Word64> instrs, Word64 isaXor,
           std::uint8_t isaCheck)
{
    std::array<std::uint64_t, 2> ones{};
    for (const Word64 w : instrs) {
        ones[0] += static_cast<std::uint64_t>(hammingWeight64(w));
        ones[1] += static_cast<std::uint64_t>(hammingWeight64(w ^ isaXor));
        if (Ecc) {
            const unsigned check = fault::secdedEncode(w);
            ones[0] += static_cast<std::uint64_t>(std::popcount(check));
            ones[1] += static_cast<std::uint64_t>(
                std::popcount(check ^ isaCheck));
        }
    }
    return ones;
}

/** What one payload image puts on a channel's wires. */
struct ImageWalk
{
    std::uint64_t ones = 0;
    /** Toggles between consecutive flits of the packet. */
    std::uint64_t toggles = 0;
    std::array<Word, EnergyAccountant::flitWords> first{};
    std::array<Word, EnergyAccountant::flitWords> last{};
};

/**
 * Walk the flits of the image whose word i is payload[i] ^
 * maskAt(i, payload[i]); flit padding is 0 in every image.
 */
template <class MaskAt>
[[gnu::always_inline]] inline ImageWalk
walkImage(std::span<const Word> payload, MaskAt maskAt)
{
    constexpr std::size_t fw = EnergyAccountant::flitWords;
    ImageWalk out;
    for (std::size_t base = 0; base < payload.size(); base += fw) {
        for (std::size_t i = 0; i < fw; ++i) {
            const std::size_t src = base + i;
            const Word w = src < payload.size()
                               ? payload[src] ^ maskAt(src, payload[src])
                               : Word(0);
            out.ones += static_cast<std::uint64_t>(hammingWeight(w));
            if (base == 0)
                out.first[i] = w;
            else
                out.toggles += static_cast<std::uint64_t>(
                    hammingDistance(out.last[i], w));
            out.last[i] = w;
        }
    }
    return out;
}

/**
 * Account one non-empty packet: walk each distinct image once, then
 * compare each scenario's wires with its image's first flit only.
 */
[[gnu::always_inline]] inline void
countNoc(const UnitPlan &plan, std::span<const Word> payload,
         bool instrStream, Word64 isaXor, ChannelState &prev,
         std::array<NocAccount, coder::numScenarios> &noc)
{
    std::array<ImageWalk, coder::numScenarios> walks;
    if (instrStream) {
        // Instruction payloads carry 64-bit binaries as word pairs; a
        // lone last word is not an instruction and stays raw.
        const std::size_t n = payload.size();
        walks[0] =
            walkImage(payload, [](std::size_t, Word) { return Word(0); });
        walks[1] = walkImage(payload, [n, isaXor](std::size_t i, Word) {
            return (i | 1) < n ? static_cast<Word>(isaXor >> (32 * (i & 1)))
                               : Word(0);
        });
    } else {
        // A packet is coded as one block: VS pivots on the line's
        // leading element exactly as the cache-space coder does.
        for (std::size_t k = 0; k < plan.slots; ++k) {
            const SlotMask m = slotMask(plan.slot[k], payload, false);
            walks[k] = walkImage(
                payload, [&m](std::size_t i, Word w) { return m.at(i, w); });
        }
    }

    const std::uint64_t flits =
        (payload.size() + EnergyAccountant::flitWords - 1)
        / EnergyAccountant::flitWords;
    for (const Scenario s : coder::allScenarios) {
        const ImageWalk &walk =
            walks[instrStream ? isaSlot(s) : plan.slotOf[idx(s)]];
        auto &wires = prev[idx(s)];
        std::uint64_t toggles = walk.toggles;
        for (std::size_t i = 0; i < wires.size(); ++i)
            toggles += static_cast<std::uint64_t>(
                hammingDistance(wires[i], walk.first[i]));
        wires = walk.last;
        NocAccount &acct = noc[idx(s)];
        acct.toggles += toggles;
        acct.flits += flits;
        acct.payloadOnes += walk.ones;
        acct.payloadBits += 32 * EnergyAccountant::flitWords * flits;
    }
}

// The two compilations of each counting loop.

AccessCount
accessPortable(const UnitPlan &plan, std::span<const Word> block,
               std::uint32_t activeMask, bool ecc,
               const std::array<std::uint8_t, 4> &nvPairCheck)
{
    return ecc ? countAccess<true>(plan, block, activeMask, nvPairCheck)
               : countAccess<false>(plan, block, activeMask, nvPairCheck);
}

BVF_TARGET_POPCNT AccessCount
accessPopcnt(const UnitPlan &plan, std::span<const Word> block,
             std::uint32_t activeMask, bool ecc,
             const std::array<std::uint8_t, 4> &nvPairCheck)
{
    return ecc ? countAccess<true>(plan, block, activeMask, nvPairCheck)
               : countAccess<false>(plan, block, activeMask, nvPairCheck);
}

std::array<std::uint64_t, 2>
fetchPortable(std::span<const Word64> instrs, bool ecc, Word64 isaXor,
              std::uint8_t isaCheck)
{
    return ecc ? countFetch<true>(instrs, isaXor, isaCheck)
               : countFetch<false>(instrs, isaXor, isaCheck);
}

BVF_TARGET_POPCNT std::array<std::uint64_t, 2>
fetchPopcnt(std::span<const Word64> instrs, bool ecc, Word64 isaXor,
            std::uint8_t isaCheck)
{
    return ecc ? countFetch<true>(instrs, isaXor, isaCheck)
               : countFetch<false>(instrs, isaXor, isaCheck);
}

void
nocPortable(const UnitPlan &plan, std::span<const Word> payload,
            bool instrStream, Word64 isaXor, ChannelState &prev,
            std::array<NocAccount, coder::numScenarios> &noc)
{
    countNoc(plan, payload, instrStream, isaXor, prev, noc);
}

BVF_TARGET_POPCNT void
nocPopcnt(const UnitPlan &plan, std::span<const Word> payload,
          bool instrStream, Word64 isaXor, ChannelState &prev,
          std::array<NocAccount, coder::numScenarios> &noc)
{
    countNoc(plan, payload, instrStream, isaXor, prev, noc);
}

} // namespace

namespace detail
{

bool
hostHasPopcnt()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool has = [] {
        unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
        return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0
               && (ecx & bit_POPCNT) != 0;
    }();
    return has;
#else
    return false;
#endif
}

void
KernelSelect::usePopcnt(EnergyAccountant &acc, bool popcnt)
{
    panic_if(popcnt && !hostHasPopcnt(),
             "popcnt kernel selected on a host without popcnt");
    acc.popcnt_ = popcnt;
}

} // namespace detail

EnergyAccountant::EnergyAccountant(
    const std::map<UnitId, std::uint64_t> &capacities,
    const AccountantOptions &options)
    : options_(options),
      isaCoder_(options.dynamicIsaMask != 0
                    ? options.dynamicIsaMask
                    : isa::paperIsaMask(options.arch)),
      isaCheck_(fault::secdedEncode(~isaCoder_.mask())),
      popcnt_(detail::hostHasPopcnt())
{
    for (const auto &[unit, bits] : capacities)
        accounts_.at(coder::unitIndex(unit)).emplace(unit, bits);

    for (unsigned h = 0; h < nvPairCheck_.size(); ++h) {
        const Word flip = NvCoder::mask(0);
        nvPairCheck_[h] = fault::secdedEncode(
            pairOf(h & 1 ? flip : 0, h & 2 ? flip : 0));
    }

    // Constructing the coder validates the pivot.
    const int reg_pivot = VsCoder(options.vsRegisterPivot).pivot();
    const auto nv_units = coder::nvSpaceUnits();
    const auto vs_reg_units = coder::vsRegisterSpaceUnits();
    const auto vs_line_units = coder::vsCacheSpaceUnits();
    for (const UnitId unit : coder::allUnits()) {
        // Table 1 wiring; Baseline and IsaOnly store data raw.
        const bool nv = nv_units.count(unit) != 0;
        const int pivot = vs_reg_units.count(unit)
                              ? reg_pivot
                          : vs_line_units.count(unit) ? VsCoder::cacheLinePivot
                                                      : -1;
        std::array<Slot, coder::numScenarios> slots{};
        slots[idx(Scenario::NvOnly)] = {nv, -1};
        slots[idx(Scenario::VsOnly)] = {false, pivot};
        slots[idx(Scenario::AllCoders)] = {nv, pivot};

        UnitPlan &plan = plans_[coder::unitIndex(unit)];
        for (const Scenario s : coder::allScenarios) {
            std::size_t k = 0;
            while (k < plan.slots && plan.slot[k] != slots[idx(s)])
                ++k;
            if (k == plan.slots)
                plan.slot[plan.slots++] = slots[idx(s)];
            plan.slotOf[idx(s)] = k;
        }
    }
}

sram::UnitAccount &
EnergyAccountant::accountFor(UnitId unit, const char *what)
{
    const std::size_t i = coder::unitIndex(unit);
    panic_if(i >= coder::numUnits || !accounts_[i],
             "%s unaccounted unit %s", what,
             coder::unitName(unit).c_str());
    return *accounts_[i];
}

void
EnergyAccountant::onAccess(UnitId unit, sram::AccessType type,
                           std::span<const Word> block,
                           std::uint32_t activeMask, std::uint64_t cycle)
{
    sram::UnitAccount &account = accountFor(unit, "access to");
    const UnitPlan &plan = plans_[coder::unitIndex(unit)];
    const bool ecc = options_.eccAccounting;
    const AccessCount count =
        popcnt_ ? accessPopcnt(plan, block, activeMask, ecc, nvPairCheck_)
                : accessPortable(plan, block, activeMask, ecc, nvPairCheck_);
    for (const Scenario s : coder::allScenarios)
        record(account, type, s, count.ones[plan.slotOf[idx(s)]], count.bits,
               cycle);
}

void
EnergyAccountant::onFetch(UnitId unit, sram::AccessType type,
                          std::span<const Word64> instrs,
                          std::uint64_t cycle)
{
    sram::UnitAccount &account = accountFor(unit, "fetch to");
    const bool ecc = options_.eccAccounting;
    const Word64 isa_xor = ~isaCoder_.mask();
    const std::array<std::uint64_t, 2> ones =
        popcnt_ ? fetchPopcnt(instrs, ecc, isa_xor, isaCheck_)
                : fetchPortable(instrs, ecc, isa_xor, isaCheck_);
    const std::uint64_t bits = (64 + (ecc ? eccBits : 0)) * instrs.size();
    for (const Scenario s : coder::allScenarios)
        record(account, type, s, ones[isaSlot(s)], bits, cycle);
}

void
EnergyAccountant::onNocPacket(int channel, std::span<const Word> payload,
                              bool instrStream, std::uint64_t cycle)
{
    (void)cycle;
    panic_if(channel < 0, "negative NoC channel %d", channel);
    const auto ch = static_cast<std::size_t>(channel);
    if (ch >= channels_.size())
        channels_.resize(ch + 1);
    if (payload.empty())
        return;
    const UnitPlan &plan = plans_[coder::unitIndex(UnitId::Noc)];
    const Word64 isa_xor = ~isaCoder_.mask();
    if (popcnt_)
        nocPopcnt(plan, payload, instrStream, isa_xor, channels_[ch], noc_);
    else
        nocPortable(plan, payload, instrStream, isa_xor, channels_[ch], noc_);
}

void
EnergyAccountant::finalize(std::uint64_t endCycle)
{
    for (auto &account : accounts_) {
        if (account)
            account->finalize(endCycle);
    }
}

const sram::UnitAccount &
EnergyAccountant::unitAccount(UnitId unit) const
{
    const std::size_t i = coder::unitIndex(unit);
    panic_if(i >= coder::numUnits || !accounts_[i],
             "no account for unit %s", coder::unitName(unit).c_str());
    return *accounts_[i];
}

std::map<UnitId, sram::UnitScenarioStats>
EnergyAccountant::unitStats(Scenario s) const
{
    std::map<UnitId, sram::UnitScenarioStats> out;
    for (const auto &account : accounts_) {
        if (account)
            out.emplace(account->unit(), account->stats(s));
    }
    return out;
}

} // namespace bvf::core
