/**
 * @file
 * Unit tests for the multi-scenario energy accountant.
 */

#include <gtest/gtest.h>

#include "coder/nv_coder.hh"
#include "common/rng.hh"
#include "core/accountant.hh"
#include "core/accountant_kernel.hh"
#include "fault/secded.hh"

namespace bvf::core
{
namespace
{

using coder::CoderChain;
using coder::Scenario;
using coder::UnitId;
using sram::AccessType;

/**
 * The straightforward accountant the optimized one must reproduce:
 * every scenario encodes, popcounts and SECDED-checks its own copy of
 * every block, with map-keyed state.
 */
class ReferenceAccountant : public sram::AccessSink
{
  public:
    ReferenceAccountant(const std::map<UnitId, std::uint64_t> &capacities,
                        const AccountantOptions &options)
        : options_(options),
          isaCoder_(options.dynamicIsaMask != 0
                        ? options.dynamicIsaMask
                        : isa::paperIsaMask(options.arch))
    {
        for (const auto &[unit, bits] : capacities)
            accounts_.emplace(unit, sram::UnitAccount(unit, bits));

        const auto nv = std::make_shared<const coder::NvCoder>();
        const auto vs_reg = std::make_shared<const coder::VsCoder>(
            options.vsRegisterPivot);
        const auto vs_line = std::make_shared<const coder::VsCoder>(
            coder::VsCoder::cacheLinePivot);

        auto &nv_chains =
            chains_[static_cast<std::size_t>(
                coder::scenarioIndex(Scenario::NvOnly))];
        for (UnitId unit : coder::nvSpaceUnits()) {
            CoderChain c;
            c.addWord(nv);
            nv_chains.emplace(unit, std::move(c));
        }

        auto &vs_chains =
            chains_[static_cast<std::size_t>(
                coder::scenarioIndex(Scenario::VsOnly))];
        for (UnitId unit : coder::vsRegisterSpaceUnits()) {
            CoderChain c;
            c.addBlock(vs_reg);
            vs_chains.emplace(unit, std::move(c));
        }
        for (UnitId unit : coder::vsCacheSpaceUnits()) {
            CoderChain c;
            c.addBlock(vs_line);
            vs_chains.emplace(unit, std::move(c));
        }

        auto &all_chains =
            chains_[static_cast<std::size_t>(
                coder::scenarioIndex(Scenario::AllCoders))];
        for (UnitId unit : coder::allUnits()) {
            CoderChain c;
            if (coder::nvSpaceUnits().count(unit))
                c.addWord(nv);
            if (coder::vsRegisterSpaceUnits().count(unit))
                c.addBlock(vs_reg);
            else if (coder::vsCacheSpaceUnits().count(unit))
                c.addBlock(vs_line);
            if (!c.empty())
                all_chains.emplace(unit, std::move(c));
        }
    }

    void
    onAccess(UnitId unit, AccessType type, std::span<const Word> block,
             std::uint32_t activeMask, std::uint64_t cycle) override
    {
        sram::UnitAccount &account = accounts_.at(unit);
        for (const Scenario s : coder::allScenarios) {
            const CoderChain &chain = chainFor(s, unit);
            std::uint64_t ones = 0;
            std::uint64_t bits = 0;
            std::span<const Word> stored = block;
            if (!chain.empty()) {
                scratch_.assign(block.begin(), block.end());
                chain.encode(scratch_);
                stored = scratch_;
            }
            for (std::size_t i = 0; i < stored.size(); ++i) {
                if (!((activeMask >> i) & 1u))
                    continue;
                ones += static_cast<std::uint64_t>(
                    hammingWeight(stored[i]));
                bits += 32;
            }
            if (options_.eccAccounting) {
                for (std::size_t base = 0; base < stored.size();
                     base += 2) {
                    const bool low = (activeMask >> base) & 1u;
                    const bool high =
                        base + 1 < stored.size()
                        && ((activeMask >> (base + 1)) & 1u);
                    if (!low && !high)
                        continue;
                    Word64 w = static_cast<Word64>(stored[base]);
                    if (base + 1 < stored.size()) {
                        w |= static_cast<Word64>(stored[base + 1]) << 32;
                    }
                    ones += static_cast<std::uint64_t>(hammingWeight(
                        static_cast<Word>(fault::secdedEncode(w))));
                    bits += fault::eccCheckBits(
                        fault::EccScheme::Secded72_64);
                }
            }
            if (type == AccessType::Read)
                account.recordRead(s, ones, bits, cycle);
            else
                account.recordWrite(s, ones, bits, cycle);
        }
    }

    void
    onFetch(UnitId unit, AccessType type, std::span<const Word64> instrs,
            std::uint64_t cycle) override
    {
        sram::UnitAccount &account = accounts_.at(unit);
        for (const Scenario s : coder::allScenarios) {
            std::uint64_t ones = 0;
            std::uint64_t bits = 64 * instrs.size();
            for (Word64 w : instrs) {
                const Word64 stored =
                    isaApplies(s) ? isaCoder_.encode(w) : w;
                ones += static_cast<std::uint64_t>(hammingWeight64(stored));
                if (options_.eccAccounting) {
                    ones += static_cast<std::uint64_t>(hammingWeight(
                        static_cast<Word>(fault::secdedEncode(stored))));
                    bits += fault::eccCheckBits(
                        fault::EccScheme::Secded72_64);
                }
            }
            if (type == AccessType::Read)
                account.recordRead(s, ones, bits, cycle);
            else
                account.recordWrite(s, ones, bits, cycle);
        }
    }

    void
    onNocPacket(int channel, std::span<const Word> payload,
                bool instrStream, std::uint64_t cycle) override
    {
        (void)cycle;
        constexpr std::size_t flit_words = 8;
        ChannelState &state = channels_[channel];

        for (const Scenario s : coder::allScenarios) {
            const auto idx =
                static_cast<std::size_t>(coder::scenarioIndex(s));
            scratch_.assign(payload.begin(), payload.end());

            if (instrStream) {
                if (isaApplies(s)) {
                    for (std::size_t i = 0; i + 1 < scratch_.size();
                         i += 2) {
                        const Word64 w =
                            static_cast<Word64>(scratch_[i])
                            | (static_cast<Word64>(scratch_[i + 1])
                               << 32);
                        const Word64 e = isaCoder_.encode(w);
                        scratch_[i] = static_cast<Word>(e);
                        scratch_[i + 1] = static_cast<Word>(e >> 32);
                    }
                }
            } else {
                const CoderChain &chain = chainFor(s, UnitId::Noc);
                if (!chain.empty())
                    chain.encode(scratch_);
            }

            auto &prev = state.prev[idx];
            if (prev.size() != flit_words)
                prev.assign(flit_words, 0);
            NocAccount &acct = noc_[idx];
            for (std::size_t base = 0; base < scratch_.size();
                 base += flit_words) {
                std::uint64_t toggles = 0;
                for (std::size_t i = 0; i < flit_words; ++i) {
                    const std::size_t src = base + i;
                    const Word w =
                        src < scratch_.size() ? scratch_[src] : Word(0);
                    toggles += static_cast<std::uint64_t>(
                        hammingDistance(prev[i], w));
                    prev[i] = w;
                    acct.payloadOnes +=
                        static_cast<std::uint64_t>(hammingWeight(w));
                }
                acct.toggles += toggles;
                ++acct.flits;
                acct.payloadBits += 32 * flit_words;
            }
        }
    }

    void
    finalize(std::uint64_t endCycle)
    {
        for (auto &[unit, account] : accounts_)
            account.finalize(endCycle);
    }

    const sram::UnitAccount &
    unitAccount(UnitId unit) const
    {
        return accounts_.at(unit);
    }

    const NocAccount &
    noc(Scenario s) const
    {
        return noc_[static_cast<std::size_t>(coder::scenarioIndex(s))];
    }

  private:
    const CoderChain &
    chainFor(Scenario s, UnitId unit) const
    {
        static const CoderChain empty;
        const auto &per_unit =
            chains_[static_cast<std::size_t>(coder::scenarioIndex(s))];
        auto it = per_unit.find(unit);
        return it == per_unit.end() ? empty : it->second;
    }

    static bool
    isaApplies(Scenario s)
    {
        return s == Scenario::IsaOnly || s == Scenario::AllCoders;
    }

    std::map<UnitId, sram::UnitAccount> accounts_;
    AccountantOptions options_;
    coder::IsaCoder isaCoder_;
    std::array<std::map<UnitId, CoderChain>, coder::numScenarios> chains_;

    struct ChannelState
    {
        std::array<std::vector<Word>, coder::numScenarios> prev;
    };
    std::map<int, ChannelState> channels_;
    std::array<NocAccount, coder::numScenarios> noc_;
    std::vector<Word> scratch_;
};

std::map<UnitId, std::uint64_t>
tinyCapacities()
{
    std::map<UnitId, std::uint64_t> caps;
    for (const auto unit : coder::allUnits()) {
        if (unit != UnitId::Noc)
            caps[unit] = 1 << 20;
    }
    return caps;
}

TEST(Accountant, BaselineCountsRawBits)
{
    EnergyAccountant acc(tinyCapacities());
    const std::vector<Word> block = {0x0000000fu, 0xf0000000u};
    acc.onAccess(UnitId::L1D, AccessType::Read, block, 0x3, 1);
    const auto &stats =
        acc.unitAccount(UnitId::L1D).stats(Scenario::Baseline);
    EXPECT_EQ(stats.reads.ones, 8u);
    EXPECT_EQ(stats.reads.zeros, 56u);
}

TEST(Accountant, ActiveMaskGatesAccounting)
{
    EnergyAccountant acc(tinyCapacities());
    const std::vector<Word> block = {0xffffffffu, 0xffffffffu,
                                     0xffffffffu};
    acc.onAccess(UnitId::Reg, AccessType::Write, block, 0x5, 1);
    const auto &stats =
        acc.unitAccount(UnitId::Reg).stats(Scenario::Baseline);
    EXPECT_EQ(stats.writes.bits(), 64u); // lanes 0 and 2 only
    EXPECT_EQ(stats.writes.ones, 64u);
}

TEST(Accountant, WordsPastTheMaskAreInactive)
{
    // The 32-bit active mask has no lane for word 32 on (e.g. an
    // oversized block replayed from a trace).
    EnergyAccountant acc(tinyCapacities());
    const std::vector<Word> block(40, 0xffffffffu);
    acc.onAccess(UnitId::L2, AccessType::Read, block, 0xffffffffu, 1);
    EXPECT_EQ(acc.unitAccount(UnitId::L2)
                  .stats(Scenario::Baseline)
                  .reads.bits(),
              32u * 32u);
}

TEST(Accountant, NvScenarioFlipsPositiveData)
{
    EnergyAccountant acc(tinyCapacities());
    const std::vector<Word> block = {0x00000001u};
    acc.onAccess(UnitId::L1D, AccessType::Read, block, 0x1, 1);
    const auto &acct = acc.unitAccount(UnitId::L1D);
    EXPECT_EQ(acct.stats(Scenario::Baseline).reads.ones, 1u);
    // NV: sign 0 kept, the other 31 bits flip -> 30 ones.
    EXPECT_EQ(acct.stats(Scenario::NvOnly).reads.ones, 30u);
}

TEST(Accountant, VsUsesLanePivotAtRegisters)
{
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> block(32, 0x12345678u);
    acc.onAccess(UnitId::Reg, AccessType::Read, block, 0xffffffffu, 1);
    const auto &acct = acc.unitAccount(UnitId::Reg);
    // 31 identical non-pivot lanes -> 31 * 32 ones + pivot's own weight.
    const auto vs_ones = acct.stats(Scenario::VsOnly).reads.ones;
    EXPECT_EQ(vs_ones,
              31u * 32u
                  + static_cast<std::uint64_t>(
                      hammingWeight(0x12345678u)));
}

TEST(Accountant, SmeHasNoVsCoder)
{
    // Table 1: shared memory is not in any VS space.
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> block(32, 0x0fu);
    acc.onAccess(UnitId::Sme, AccessType::Read, block, 0xffffffffu, 1);
    const auto &acct = acc.unitAccount(UnitId::Sme);
    EXPECT_EQ(acct.stats(Scenario::VsOnly).reads.ones,
              acct.stats(Scenario::Baseline).reads.ones);
    // But NV covers SME.
    EXPECT_GT(acct.stats(Scenario::NvOnly).reads.ones,
              acct.stats(Scenario::Baseline).reads.ones);
}

TEST(Accountant, FetchUsesIsaMask)
{
    AccountantOptions opts;
    opts.arch = isa::GpuArch::Pascal;
    EnergyAccountant acc(tinyCapacities(), opts);
    // An instruction equal to the mask encodes to all ones.
    const std::vector<Word64> instrs = {acc.isaMask()};
    acc.onFetch(UnitId::L1I, AccessType::Read, instrs, 1);
    const auto &acct = acc.unitAccount(UnitId::L1I);
    EXPECT_EQ(acct.stats(Scenario::IsaOnly).reads.ones, 64u);
    EXPECT_EQ(acct.stats(Scenario::Baseline).reads.ones,
              static_cast<std::uint64_t>(
                  hammingWeight64(acc.isaMask())));
    // Data coders leave the instruction stream alone.
    EXPECT_EQ(acct.stats(Scenario::NvOnly).reads.ones,
              acct.stats(Scenario::Baseline).reads.ones);
}

TEST(Accountant, NocTogglesTrackedPerScenario)
{
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> flit(8, 0u);
    acc.onNocPacket(3, flit, false, 1);
    // All-zero packet from reset wires: no toggles in baseline.
    EXPECT_EQ(acc.noc(Scenario::Baseline).toggles, 0u);
    // NV flips zeros to 0x7fffffff: 31 toggles per word from reset.
    EXPECT_EQ(acc.noc(Scenario::NvOnly).toggles, 8u * 31u);

    // Sending the same packet again toggles nothing anywhere.
    const auto nv_before = acc.noc(Scenario::NvOnly).toggles;
    acc.onNocPacket(3, flit, false, 2);
    EXPECT_EQ(acc.noc(Scenario::NvOnly).toggles, nv_before);
    EXPECT_EQ(acc.noc(Scenario::Baseline).toggles, 0u);
}

TEST(Accountant, NocChannelsIndependent)
{
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> ones(8, 0xffffffffu);
    acc.onNocPacket(0, ones, false, 1);
    const auto after_first = acc.noc(Scenario::Baseline).toggles;
    EXPECT_EQ(after_first, 8u * 32u);
    // Different channel starts from its own reset wires.
    acc.onNocPacket(1, ones, false, 2);
    EXPECT_EQ(acc.noc(Scenario::Baseline).toggles, 2u * 8u * 32u);
}

TEST(Accountant, MultiFlitPacketSegmentation)
{
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> line(32, 0u); // 4 flits
    acc.onNocPacket(0, line, false, 1);
    EXPECT_EQ(acc.noc(Scenario::Baseline).flits, 4u);
    EXPECT_EQ(acc.noc(Scenario::Baseline).payloadBits, 4u * 256u);
}

TEST(Accountant, VsPivotIsPerPacketNotPerFlit)
{
    // A line of identical words: with the line-level pivot, words 1..31
    // code to all-ones (992 of 1024 bits), so consecutive identical
    // lines toggle nothing and the one-density is high.
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> line(32, 0xa5a5a5a5u);
    acc.onNocPacket(0, line, false, 1);
    const auto &vs = acc.noc(Scenario::VsOnly);
    EXPECT_EQ(vs.payloadOnes,
              31u * 32u
                  + static_cast<std::uint64_t>(
                      hammingWeight(0xa5a5a5a5u)));
}

TEST(Accountant, EmptyNocPacketSendsNothing)
{
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> ones(8, 0xffffffffu);
    acc.onNocPacket(0, ones, false, 1);
    acc.onNocPacket(0, {}, false, 2);
    acc.onNocPacket(0, {}, true, 3);
    EXPECT_EQ(acc.noc(Scenario::Baseline).flits, 1u);
    // The wires still hold the first packet: resending it toggles none.
    acc.onNocPacket(0, ones, false, 4);
    EXPECT_EQ(acc.noc(Scenario::Baseline).toggles, 8u * 32u);
}

TEST(Accountant, FinalizeIntegratesLeakage)
{
    EnergyAccountant acc(tinyCapacities());
    std::vector<Word> block(32, 0xffffffffu);
    acc.onAccess(UnitId::Reg, AccessType::Write, block, 0xffffffffu, 10);
    acc.finalize(1000);
    const auto &stats =
        acc.unitAccount(UnitId::Reg).stats(Scenario::Baseline);
    EXPECT_GT(stats.storedOnesFracCycles, 0.0);
}

TEST(Accountant, UnitStatsSnapshotComplete)
{
    EnergyAccountant acc(tinyCapacities());
    const auto snapshot = acc.unitStats(Scenario::Baseline);
    EXPECT_EQ(snapshot.size(), tinyCapacities().size());
}

TEST(Accountant, CustomPivotOption)
{
    AccountantOptions opts;
    opts.vsRegisterPivot = 0;
    EnergyAccountant acc(tinyCapacities(), opts);
    std::vector<Word> block(32, 0u);
    block[0] = 0xffffffffu; // pivot-0 value
    acc.onAccess(UnitId::Reg, AccessType::Read, block, 0xffffffffu, 1);
    // XNOR(0, 0xffffffff) = 0: all non-pivot words stay 0... meaning
    // ones come only from the pivot itself.
    EXPECT_EQ(acc.unitAccount(UnitId::Reg)
                  .stats(Scenario::VsOnly)
                  .reads.ones,
              32u);
}

// --- Differential oracle against ReferenceAccountant -------------------

/** A word the coders have work on: narrow, near an anchor, or random. */
Word
oracleWord(Rng &rng, Word anchor)
{
    switch (rng.nextRange(0, 3)) {
      case 0:
        return static_cast<Word>(rng.nextRange(-300, 300));
      case 1:
        return anchor ^ static_cast<Word>(rng.nextRange(0, 255));
      case 2:
        return anchor;
      default:
        return rng.nextU32();
    }
}

/** Full (32), partial even, or odd-length (lone low SECDED word). */
std::vector<Word>
oracleBlock(Rng &rng)
{
    std::size_t n = 32;
    switch (rng.nextRange(0, 2)) {
      case 1:
        n = static_cast<std::size_t>(2 * rng.nextRange(1, 15));
        break;
      case 2:
        n = static_cast<std::size_t>(2 * rng.nextRange(0, 15) + 1);
        break;
      default:
        break;
    }
    const Word anchor = rng.nextU32();
    std::vector<Word> block(n);
    for (Word &w : block)
        w = oracleWord(rng, anchor);
    return block;
}

std::uint32_t
oracleMask(Rng &rng)
{
    switch (rng.nextRange(0, 2)) {
      case 0:
        return 0xffffffffu;
      case 1:
        return rng.nextU32();
      default:
        return rng.nextU32() & rng.nextU32() & rng.nextU32();
    }
}

void
expectSameBits(const BitStats &a, const BitStats &b)
{
    EXPECT_EQ(a.ones, b.ones);
    EXPECT_EQ(a.zeros, b.zeros);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.toggles, b.toggles);
}

void
expectIdentical(const EnergyAccountant &acc, const ReferenceAccountant &ref)
{
    for (const Scenario s : coder::allScenarios) {
        for (const UnitId unit : coder::allUnits()) {
            SCOPED_TRACE(coder::unitName(unit) + " "
                         + coder::scenarioName(s));
            const auto &a = acc.unitAccount(unit).stats(s);
            const auto &b = ref.unitAccount(unit).stats(s);
            expectSameBits(a.reads, b.reads);
            expectSameBits(a.writes, b.writes);
            EXPECT_EQ(a.storedOnesFracCycles, b.storedOnesFracCycles);
            EXPECT_EQ(a.allocatedFracCycles, b.allocatedFracCycles);
        }
        SCOPED_TRACE("NoC " + coder::scenarioName(s));
        EXPECT_EQ(acc.noc(s).toggles, ref.noc(s).toggles);
        EXPECT_EQ(acc.noc(s).flits, ref.noc(s).flits);
        EXPECT_EQ(acc.noc(s).payloadOnes, ref.noc(s).payloadOnes);
        EXPECT_EQ(acc.noc(s).payloadBits, ref.noc(s).payloadBits);
    }
}

/**
 * Drive both accountants with one seeded sequence of accesses, fetches
 * and NoC packets over every unit, then compare every statistic.
 */
void
runOracle(std::uint64_t seed, const AccountantOptions &opts, bool popcnt)
{
    // Small capacities so the stored-state estimates move.
    std::map<UnitId, std::uint64_t> caps;
    for (const UnitId unit : coder::allUnits())
        caps[unit] = 1 << 14;
    EnergyAccountant acc(caps, opts);
    detail::KernelSelect::usePopcnt(acc, popcnt);
    ReferenceAccountant ref(caps, opts);

    const auto &units = coder::allUnits();
    Rng rng(seed);
    std::uint64_t cycle = 0;
    for (int event = 0; event < 3000; ++event) {
        cycle += static_cast<std::uint64_t>(rng.nextRange(0, 3));
        const UnitId unit = units[static_cast<std::size_t>(
            rng.nextRange(0, static_cast<std::int64_t>(units.size()) - 1))];
        const AccessType type =
            rng.nextBool(0.5) ? AccessType::Read : AccessType::Write;
        const auto kind = rng.nextRange(0, 9);
        if (kind < 6) {
            const auto block = oracleBlock(rng);
            const std::uint32_t mask = oracleMask(rng);
            acc.onAccess(unit, type, block, mask, cycle);
            ref.onAccess(unit, type, block, mask, cycle);
        } else if (kind < 8) {
            std::vector<Word64> instrs(
                static_cast<std::size_t>(rng.nextRange(1, 8)));
            for (Word64 &w : instrs)
                w = rng.nextBool(0.25) ? acc.isaMask() : rng.nextU64();
            acc.onFetch(unit, type, instrs, cycle);
            ref.onFetch(unit, type, instrs, cycle);
        } else {
            const int channel = rng.nextBool(0.1)
                                    ? 300
                                    : static_cast<int>(rng.nextRange(0, 5));
            const bool instr_stream = rng.nextBool(0.3);
            auto payload = oracleBlock(rng);
            if (rng.nextBool(0.1))
                payload.resize(41, payload.front()); // 6 flits, ragged
            acc.onNocPacket(channel, payload, instr_stream, cycle);
            ref.onNocPacket(channel, payload, instr_stream, cycle);
        }
    }
    acc.finalize(cycle + 100);
    ref.finalize(cycle + 100);
    expectIdentical(acc, ref);
}

/**
 * runOracle once per popcount kernel the host can execute, so the
 * portable one is checked on hosts that would never pick it.
 */
void
runOracle(std::uint64_t seed, const AccountantOptions &opts)
{
    for (const bool popcnt : {false, true}) {
        if (popcnt && !detail::hostHasPopcnt())
            continue;
        SCOPED_TRACE(popcnt ? "popcnt kernel" : "portable kernel");
        runOracle(seed, opts, popcnt);
    }
}

TEST(AccountantOracle, DefaultOptions)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runOracle(seed, {});
}

TEST(AccountantOracle, EccAccounting)
{
    AccountantOptions opts;
    opts.eccAccounting = true;
    for (std::uint64_t seed = 11; seed <= 13; ++seed)
        runOracle(seed, opts);
}

TEST(AccountantOracle, DynamicIsaMaskAndRegisterPivot)
{
    AccountantOptions opts;
    opts.eccAccounting = true;
    opts.dynamicIsaMask = 0x0123456789abcdefull;
    opts.vsRegisterPivot = 5;
    for (std::uint64_t seed = 21; seed <= 23; ++seed)
        runOracle(seed, opts);
}

TEST(AccountantOracle, PivotPastBlockEndAndOtherArch)
{
    // A pivot past the block falls back to lane 0, which is also the
    // cache-line pivot: equal coding from different coder objects.
    AccountantOptions opts;
    opts.arch = isa::GpuArch::Fermi;
    opts.vsRegisterPivot = 40;
    for (std::uint64_t seed = 31; seed <= 33; ++seed)
        runOracle(seed, opts);
}

} // namespace
} // namespace bvf::core
