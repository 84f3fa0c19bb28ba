/**
 * @file
 * EnergyAccountant implementation.
 */

#include "core/accountant.hh"

#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/logging.hh"
#include "fault/secded.hh"

namespace bvf::core
{

using coder::CoderChain;
using coder::Scenario;
using coder::UnitId;

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

/** 1-bits in the SECDED check byte protecting @p w. */
std::uint64_t
checkOnes(Word64 w)
{
    return static_cast<std::uint64_t>(
        hammingWeight(static_cast<Word>(fault::secdedEncode(w))));
}

void
record(sram::UnitAccount &account, sram::AccessType type, Scenario s,
       std::uint64_t ones, std::uint64_t bits, std::uint64_t cycle)
{
    if (type == sram::AccessType::Read)
        account.recordRead(s, ones, bits, cycle);
    else
        account.recordWrite(s, ones, bits, cycle);
}

} // namespace

EnergyAccountant::EnergyAccountant(
    const std::map<UnitId, std::uint64_t> &capacities,
    const AccountantOptions &options)
    : options_(options),
      isaCoder_(options.dynamicIsaMask != 0
                    ? options.dynamicIsaMask
                    : isa::paperIsaMask(options.arch))
{
    for (const auto &[unit, bits] : capacities)
        accounts_.at(coder::unitIndex(unit)).emplace(unit, bits);

    const auto nv = std::make_shared<const coder::NvCoder>();
    const auto vs_reg = std::make_shared<const coder::VsCoder>(
        options.vsRegisterPivot);
    const auto vs_line = std::make_shared<const coder::VsCoder>(
        coder::VsCoder::cacheLinePivot);
    const auto nv_units = coder::nvSpaceUnits();
    const auto vs_reg_units = coder::vsRegisterSpaceUnits();
    const auto vs_line_units = coder::vsCacheSpaceUnits();

    for (const UnitId unit : coder::allUnits()) {
        // Table 1 wiring; Baseline and IsaOnly store data raw.
        std::array<CoderChain, coder::numScenarios> chains;
        CoderChain &nv_chain = chains[idx(Scenario::NvOnly)];
        CoderChain &vs_chain = chains[idx(Scenario::VsOnly)];
        CoderChain &all_chain = chains[idx(Scenario::AllCoders)];
        if (nv_units.count(unit))
            nv_chain.addWord(nv);
        if (vs_reg_units.count(unit))
            vs_chain.addBlock(vs_reg);
        else if (vs_line_units.count(unit))
            vs_chain.addBlock(vs_line);
        all_chain.append(nv_chain);
        all_chain.append(vs_chain);
        plans_[coder::unitIndex(unit)] = makePlan(chains);
    }
}

EnergyAccountant::UnitPlan
EnergyAccountant::makePlan(
    const std::array<CoderChain, coder::numScenarios> &chains)
{
    UnitPlan plan;
    for (const Scenario s : coder::allScenarios) {
        const CoderChain &chain = chains[idx(s)];
        std::size_t k = 0;
        while (k < plan.slots && plan.chains[k] != chain)
            ++k;
        if (k == plan.slots)
            plan.chains[plan.slots++] = chain;
        plan.slotOf[idx(s)] = k;
    }
    return plan;
}

EnergyAccountant::Images
EnergyAccountant::encodeSlots(const UnitPlan &plan,
                              std::span<const Word> block)
{
    Images images;
    images[0] = block;
    for (std::size_t k = 1; k < plan.slots; ++k) {
        images_[k].assign(block.begin(), block.end());
        plan.chains[k].encode(images_[k]);
        images[k] = images_[k];
    }
    return images;
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
    const Images images = encodeSlots(plan, block);

    // Walk the block a word pair at a time: only active words count
    // (the mask has no lane past 31), but a SECDED codeword spans the
    // pair and its check byte moves with the pair whenever either half
    // is touched.
    const auto active = [activeMask](std::size_t i) {
        return i < 32 && ((activeMask >> i) & 1u);
    };
    const bool ecc = options_.eccAccounting;
    std::array<std::uint64_t, coder::numScenarios> ones{};
    std::uint64_t bits = 0;
    for (std::size_t base = 0; base < block.size(); base += 2) {
        const bool paired = base + 1 < block.size();
        const bool low = active(base);
        const bool high = paired && active(base + 1);
        if (!low && !high)
            continue;
        const Word64 live = (low ? 0xffffffffull : 0)
                            | (high ? 0xffffffff00000000ull : 0);
        bits += 32 * (low + high) + (ecc ? eccBits : 0);
        for (std::size_t k = 0; k < plan.slots; ++k) {
            Word64 w = static_cast<Word64>(images[k][base]);
            if (paired)
                w |= static_cast<Word64>(images[k][base + 1]) << 32;
            ones[k] += static_cast<std::uint64_t>(hammingWeight64(w & live));
            if (ecc)
                ones[k] += checkOnes(w);
        }
    }
    for (const Scenario s : coder::allScenarios)
        record(account, type, s, ones[plan.slotOf[idx(s)]], bits, cycle);
}

void
EnergyAccountant::onFetch(UnitId unit, sram::AccessType type,
                          std::span<const Word64> instrs,
                          std::uint64_t cycle)
{
    sram::UnitAccount &account = accountFor(unit, "fetch to");

    std::array<std::uint64_t, 2> ones{};
    std::uint64_t bits = 64 * instrs.size();
    for (const Word64 w : instrs) {
        const std::array<Word64, 2> stored = {w, isaCoder_.encode(w)};
        for (std::size_t k = 0; k < stored.size(); ++k) {
            ones[k] += static_cast<std::uint64_t>(hammingWeight64(stored[k]));
            if (options_.eccAccounting)
                ones[k] += checkOnes(stored[k]);
        }
        if (options_.eccAccounting)
            bits += eccBits;
    }
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
    ChannelState &state = channels_[ch];

    // The distinct payload images. A packet is encoded as one block: VS
    // pivots on the line's leading element exactly as the paper's
    // cache-space coder does.
    const UnitPlan &plan = plans_[coder::unitIndex(UnitId::Noc)];
    Images images;
    if (instrStream) {
        // Instruction payloads carry 64-bit binaries as word pairs.
        std::vector<Word> &coded = images_[1];
        coded.assign(payload.begin(), payload.end());
        for (std::size_t i = 0; i + 1 < coded.size(); i += 2) {
            const Word64 e = isaCoder_.encode(
                static_cast<Word64>(coded[i])
                | (static_cast<Word64>(coded[i + 1]) << 32));
            coded[i] = static_cast<Word>(e);
            coded[i + 1] = static_cast<Word>(e >> 32);
        }
        images[0] = payload;
        images[1] = coded;
    } else {
        images = encodeSlots(plan, payload);
    }

    // Segment into flits and walk each scenario's own channel wires.
    for (const Scenario s : coder::allScenarios) {
        const std::span<const Word> image =
            images[instrStream ? isaSlot(s) : plan.slotOf[idx(s)]];
        auto &prev = state.prev[idx(s)];
        NocAccount &acct = noc_[idx(s)];
        for (std::size_t base = 0; base < image.size();
             base += flitWords) {
            std::uint64_t toggles = 0;
            for (std::size_t i = 0; i < flitWords; ++i) {
                const std::size_t src = base + i;
                const Word w = src < image.size() ? image[src] : Word(0);
                toggles +=
                    static_cast<std::uint64_t>(hammingDistance(prev[i], w));
                prev[i] = w;
                acct.payloadOnes +=
                    static_cast<std::uint64_t>(hammingWeight(w));
            }
            acct.toggles += toggles;
            ++acct.flits;
            acct.payloadBits += 32 * flitWords;
        }
    }
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
