/**
 * @file
 * EnergyAccountant implementation.
 *
 * The scalar counting loops are written once, as always-inline
 * templates, and compiled twice: once for the popcnt instruction and
 * once portable. A third kernel counts access blocks in AVX-512
 * vectors and uses the popcnt loops for fetches and NoC packets. The
 * constructor picks the fastest the host runs with a cpuid check made
 * on first use. The choice is not left to
 * ifunc resolvers or __builtin_cpu_supports, which run libgcc's CPU
 * detection at process start, and GCC cannot multiversion the virtual
 * sink methods themselves.
 */

#include "core/accountant.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define BVF_TARGET_POPCNT [[gnu::target("popcnt")]]
#else
#define BVF_TARGET_POPCNT
#endif

#if defined(__x86_64__)
// GCC 12's intrinsics pass a self-initialized "undefined" vector as the
// unused source of unmasked operations; at -O2 that warns "'__Y' may be
// used uninitialized" inside avx512fintrin.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define BVF_HAVE_AVX512_KERNEL 1
#define BVF_TARGET_AVX512                                                 \
    [[gnu::target("avx512f,avx512bw,avx512vpopcntdq,gfni,bmi2")]]
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

#ifdef BVF_HAVE_AVX512_KERNEL

/**
 * Transpose each vector as an 8x8 byte matrix: byte k of 64-bit lane
 * q moves to byte q of lane k. In each 128-bit lane a byte shuffle
 * makes 16-bit word k hold byte k of its two 64-bit lanes; a word
 * permute then moves word 8L+k to word 4k+L.
 */
BVF_TARGET_AVX512 [[gnu::always_inline]] inline __m512i
transposeBytes(__m512i x)
{
    static constexpr auto interleave = [] {
        std::array<std::uint8_t, 64> t{};
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint8_t>(8 * (i & 1) + (i & 15) / 2);
        return t;
    }();
    static constexpr auto gather = [] {
        std::array<std::uint16_t, 32> t{};
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint16_t>(8 * (i % 4) + i / 4);
        return t;
    }();
    return _mm512_permutexvar_epi16(
        _mm512_loadu_si512(gather.data()),
        _mm512_shuffle_epi8(x, _mm512_loadu_si512(interleave.data())));
}

/**
 * The SECDED check bytes of the sixteen 64-bit words in @p lo and
 * @p hi: byte j of 64-bit lane 0 is that of lo's lane j, and byte j of
 * lane 4 that of hi's lane j. Transposed, lane k holds byte k of every
 * word, so one GF2P8AFFINEQB applies lane k's matrix to all of them;
 * XORing the eight lanes then sums each word's eight products.
 */
BVF_TARGET_AVX512 [[gnu::always_inline]] inline __m512i
checkBytes(__m512i lo, __m512i hi)
{
    const __m512i matrices =
        _mm512_loadu_si512(fault::secdedLaneMatrices.data());
    const __m512i u =
        _mm512_gf2p8affine_epi64_epi8(transposeBytes(lo), matrices, 0);
    const __m512i v =
        _mm512_gf2p8affine_epi64_epi8(transposeBytes(hi), matrices, 0);
    // Fold 128-bit lanes 2-3 onto 0-1 (u) and onto 2-3 (v), then the
    // two 128-bit lanes of each, then the two 64-bit halves.
    __m512i c =
        _mm512_xor_si512(_mm512_shuffle_i64x2(u, v, _MM_SHUFFLE(1, 0, 1, 0)),
                         _mm512_shuffle_i64x2(u, v, _MM_SHUFFLE(3, 2, 3, 2)));
    c = _mm512_xor_si512(c,
                         _mm512_shuffle_i64x2(c, c, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm512_xor_si512(c, _mm512_shuffle_epi32(c, _MM_PERM_BADC));
}

/**
 * 1-bit counts of the check bytes in @p checks (as checkBytes lays
 * them out) of the words selected by bit j of @p words (lo's lane j)
 * and bit 8+j (hi's lane j): in 64-bit lanes 0 and 4, zero elsewhere.
 */
BVF_TARGET_AVX512 [[gnu::always_inline]] inline __m512i
checkOnes(std::uint32_t words, __m512i checks)
{
    const __mmask64 bytes =
        (words & 0xff) | (static_cast<std::uint64_t>((words >> 8) & 0xff)
                          << 32);
    return _mm512_popcnt_epi64(_mm512_maskz_mov_epi8(bytes, checks));
}

/**
 * countAccess over the whole block at once. Words 0-15 and 16-31 are
 * two vectors, and a 64-bit lane of either is one SECDED word pair.
 * Each slot's mask vector is built from its NV flag and VS broadcast,
 * its image counted under the active lanes and its check bytes under
 * the live pairs. The slots' counts are packed 16 bits apart and
 * reduced once.
 */
BVF_TARGET_AVX512 AccessCount
accessAvx512(const UnitPlan &plan, std::span<const Word> block,
             std::uint32_t activeMask, bool ecc)
{
    const std::size_t n = block.size();
    const std::uint32_t present =
        n >= 32 ? ~std::uint32_t(0) : (std::uint32_t(1) << n) - 1;
    const std::uint32_t active = activeMask & present;
    const std::uint32_t live_pairs =
        _pext_u32(active | (active >> 1), 0x55555555u);
    AccessCount out;
    out.bits = 32 * static_cast<std::uint64_t>(std::popcount(active))
               + (ecc ? eccBits * static_cast<std::uint64_t>(
                            std::popcount(live_pairs))
                      : 0);
    if (!active)
        return out;

    const auto lo_lanes = static_cast<__mmask16>(present);
    const auto hi_lanes = static_cast<__mmask16>(present >> 16);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i lo = _mm512_maskz_loadu_epi32(lo_lanes, block.data());
    const __m512i hi =
        n > 16 ? _mm512_maskz_loadu_epi32(hi_lanes, block.data() + 16)
               : zero;
    // NvCoder::mask of each present word, zero past the block.
    const __m512i below_sign = _mm512_set1_epi32(0x7fffffff);
    const __m512i nv_lo = _mm512_maskz_andnot_epi32(
        lo_lanes, _mm512_srai_epi32(lo, 31), below_sign);
    const __m512i nv_hi = _mm512_maskz_andnot_epi32(
        hi_lanes, _mm512_srai_epi32(hi, 31), below_sign);

    __m512i packed = zero;
    for (std::size_t k = 0; k < plan.slots; ++k) {
        const Slot &slot = plan.slot[k];
        __m512i mask_lo = slot.nv ? nv_lo : zero;
        __m512i mask_hi = slot.nv ? nv_hi : zero;
        if (slot.vsPivot >= 0) {
            const std::size_t p = VsCoder::effectivePivot(slot.vsPivot, n);
            // NV codes the pivot before VS reads it.
            const Word pivot =
                block[p] ^ (slot.nv ? NvCoder::mask(block[p]) : Word(0));
            const __m512i vs = _mm512_set1_epi32(
                static_cast<int>(VsCoder::mask(pivot)));
            const std::uint32_t vs_lanes =
                present & ~(p < 32 ? std::uint32_t(1) << p : 0);
            mask_lo = _mm512_mask_xor_epi32(
                mask_lo, static_cast<__mmask16>(vs_lanes), mask_lo, vs);
            mask_hi = _mm512_mask_xor_epi32(
                mask_hi, static_cast<__mmask16>(vs_lanes >> 16), mask_hi,
                vs);
        }
        const __m512i image_lo = _mm512_xor_si512(lo, mask_lo);
        const __m512i image_hi = _mm512_xor_si512(hi, mask_hi);
        __m512i ones = _mm512_add_epi32(
            _mm512_maskz_popcnt_epi32(static_cast<__mmask16>(active),
                                      image_lo),
            _mm512_maskz_popcnt_epi32(static_cast<__mmask16>(active >> 16),
                                      image_hi));
        if (ecc) {
            ones = _mm512_add_epi32(
                ones, checkOnes(live_pairs, checkBytes(image_lo, image_hi)));
        }
        // A 32-bit lane holds at most 2 * 32 + 8 * 8 ones, all in its
        // low byte, so a byte sum adds a 64-bit lane's two. A slot
        // totals at most 32 * 32 + 16 * 8, which fits 16 bits.
        packed = _mm512_add_epi64(
            packed,
            _mm512_sllv_epi64(_mm512_sad_epu8(ones, zero),
                              _mm512_set1_epi64(static_cast<long long>(
                                  16 * k))));
    }
    const auto sums =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(packed));
    for (std::size_t k = 0; k < plan.slots; ++k)
        out.ones[k] = (sums >> (16 * k)) & 0xffff;
    return out;
}

#endif // BVF_HAVE_AVX512_KERNEL

// The scalar compilations of each counting loop.

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

namespace
{

/**
 * What the host lacks for each kernel, space-separated. The AVX-512
 * kernel needs the instructions and an OS that saves the opmask and
 * ZMM registers (OSXSAVE, and XCR0 bits 1, 2 and 5-7).
 */
struct HostFeatures
{
    std::string popcnt;
    std::string avx512;
};

const HostFeatures &
hostFeatures()
{
    static const HostFeatures features = [] {
        HostFeatures f;
#if defined(__x86_64__) || defined(__i386__)
        const auto need = [](std::string &missing, bool has,
                             const char *name) {
            if (!has)
                missing += missing.empty() ? name : std::string(" ") + name;
        };
        unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
        const bool leaf1 = __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0;
        need(f.popcnt, leaf1 && (ecx & bit_POPCNT), "popcnt");
#if defined(__x86_64__)
        const bool osxsave = leaf1 && (ecx & bit_OSXSAVE);
        bool zmm_state = false;
        if (osxsave) {
            unsigned xcr0_lo = 0, xcr0_hi = 0;
            asm volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
            zmm_state = (xcr0_lo & 0xe6) == 0xe6;
        }
        unsigned b7 = 0, c7 = 0;
        if (__get_cpuid_count(7, 0, &eax, &b7, &c7, &edx) == 0)
            b7 = c7 = 0;
        need(f.avx512, b7 & bit_AVX512F, "avx512f");
        need(f.avx512, b7 & bit_AVX512BW, "avx512bw");
        need(f.avx512, c7 & bit_AVX512VPOPCNTDQ, "avx512vpopcntdq");
        need(f.avx512, c7 & bit_GFNI, "gfni");
        need(f.avx512, b7 & bit_BMI2, "bmi2");
        // Its NoC counting is the popcnt kernel's.
        need(f.avx512, leaf1 && (ecx & bit_POPCNT), "popcnt");
        need(f.avx512, osxsave, "osxsave");
        need(f.avx512, osxsave && zmm_state, "xcr0-zmm-state");
#else
        f.avx512 = "x86-64";
#endif
#else
        f.popcnt = "x86";
        f.avx512 = "x86-64";
#endif
        return f;
    }();
    return features;
}

} // namespace

const char *
kernelName(Kernel kernel)
{
    switch (kernel) {
      case Kernel::Portable:
        return "portable";
      case Kernel::Popcnt:
        return "popcnt";
      case Kernel::Avx512:
        return "avx512";
    }
    return "?";
}

const std::string &
missingFeatures(Kernel kernel)
{
    static const std::string none;
    switch (kernel) {
      case Kernel::Popcnt:
        return hostFeatures().popcnt;
      case Kernel::Avx512:
        return hostFeatures().avx512;
      case Kernel::Portable:
        break;
    }
    return none;
}

Kernel
hostKernel()
{
    for (auto k = allKernels.rbegin(); k != allKernels.rend(); ++k) {
        if (missingFeatures(*k).empty())
            return *k;
    }
    return Kernel::Portable;
}

void
KernelSelect::use(EnergyAccountant &acc, Kernel kernel)
{
    panic_if(!missingFeatures(kernel).empty(),
             "%s kernel selected on a host without %s", kernelName(kernel),
             missingFeatures(kernel).c_str());
    acc.kernel_ = kernel;
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
      kernel_(detail::hostKernel())
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
    AccessCount count;
    switch (kernel_) {
#ifdef BVF_HAVE_AVX512_KERNEL
      case detail::Kernel::Avx512:
        count = accessAvx512(plan, block, activeMask, ecc);
        break;
#endif
      case detail::Kernel::Popcnt:
        count = accessPopcnt(plan, block, activeMask, ecc, nvPairCheck_);
        break;
      default:
        count = accessPortable(plan, block, activeMask, ecc, nvPairCheck_);
        break;
    }
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
    // The AVX-512 kernel fetches with popcnt too: most fetches are one
    // instruction, which a vector counts no faster.
    const std::array<std::uint64_t, 2> ones =
        kernel_ == detail::Kernel::Portable
            ? fetchPortable(instrs, ecc, isa_xor, isaCheck_)
            : fetchPopcnt(instrs, ecc, isa_xor, isaCheck_);
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
    // The AVX-512 kernel counts packets with popcnt, which its hosts have.
    if (kernel_ == detail::Kernel::Portable)
        nocPortable(plan, payload, instrStream, isa_xor, channels_[ch], noc_);
    else
        nocPopcnt(plan, payload, instrStream, isa_xor, channels_[ch], noc_);
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
