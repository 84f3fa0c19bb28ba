/**
 * @file
 * Unit tests for the narrow-value coder.
 */

#include <gtest/gtest.h>

#include "coder/nv_coder.hh"
#include "common/rng.hh"

namespace bvf::coder
{
namespace
{

TEST(NvCoder, PositiveValuesAreFlipped)
{
    const NvCoder nv;
    // Positive narrow value: leading zeros become ones.
    const Word w = 0x00000005u;
    const Word e = nv.encode(w);
    EXPECT_EQ(e & 0x80000000u, 0u); // sign preserved
    EXPECT_EQ(e & 0x7fffffffu, (~w) & 0x7fffffffu);
    EXPECT_GT(hammingWeight(e), hammingWeight(w));
}

TEST(NvCoder, NegativeValuesUnchanged)
{
    const NvCoder nv;
    const Word w = 0xfffffffbu; // -5
    EXPECT_EQ(nv.encode(w), w);
}

TEST(NvCoder, ZeroBecomesAlmostAllOnes)
{
    const NvCoder nv;
    EXPECT_EQ(nv.encode(0u), 0x7fffffffu);
    EXPECT_EQ(hammingWeight(nv.encode(0u)), 31);
}

TEST(NvCoder, SelfInverseOnAllPatterns)
{
    const NvCoder nv;
    Rng rng(1234);
    for (int i = 0; i < 100000; ++i) {
        const Word w = rng.nextU32();
        EXPECT_EQ(nv.decode(nv.encode(w)), w);
        EXPECT_EQ(nv.encode(nv.decode(w)), w);
    }
}

TEST(NvCoder, EdgePatterns)
{
    const NvCoder nv;
    for (const Word w : {0u, 1u, 0x7fffffffu, 0x80000000u, 0xffffffffu,
                         0x55555555u, 0xaaaaaaaau}) {
        EXPECT_EQ(nv.decode(nv.encode(w)), w) << std::hex << w;
    }
}

TEST(NvCoder, IncreasesOnesOnNarrowData)
{
    // On data with >50% zeros in the non-sign bits, encoding must gain.
    const NvCoder nv;
    Rng rng(77);
    std::uint64_t raw = 0, coded = 0;
    for (int i = 0; i < 20000; ++i) {
        // Narrow 12-bit magnitudes, 10% negative.
        Word w = static_cast<Word>(rng.nextBounded(1 << 12));
        if (rng.nextBool(0.1))
            w = static_cast<Word>(-static_cast<std::int32_t>(w));
        raw += static_cast<std::uint64_t>(hammingWeight(w));
        coded += static_cast<std::uint64_t>(hammingWeight(nv.encode(w)));
    }
    EXPECT_GT(coded, raw * 2);
}

TEST(NvCoder, SpanEncodeMatchesScalar)
{
    const NvCoder nv;
    std::vector<Word> v = {1u, 0xdeadbeefu, 0u, 0x7fffffffu};
    std::vector<Word> expect;
    for (Word w : v)
        expect.push_back(nv.encode(w));
    nv.encodeSpan(v);
    EXPECT_EQ(v, expect);
}

TEST(NvCoder, MatchesPaperFormula)
{
    // E = [b0, b1 xnor b0, ..., bn xnor b0] with b0 the sign bit.
    const NvCoder nv;
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const Word w = rng.nextU32();
        const Word e = nv.encode(w);
        const int b0 = static_cast<int>(w >> 31);
        EXPECT_EQ(static_cast<int>(e >> 31), b0);
        for (int bit = 0; bit < 31; ++bit) {
            const int bi = static_cast<int>((w >> bit) & 1u);
            const int ei = static_cast<int>((e >> bit) & 1u);
            EXPECT_EQ(ei, bi == b0 ? 1 : 0);
        }
    }
}

TEST(NvCoder, EncodeIsXorWithMask)
{
    // The accountant counts NV images as the raw word XOR this mask.
    const NvCoder nv;
    for (const Word w : {0u, 1u, 0x7fffffffu, 0x80000000u, 0xffffffffu,
                         0x55555555u, 0xaaaaaaaau}) {
        EXPECT_EQ(nv.encode(w), w ^ NvCoder::mask(w)) << std::hex << w;
        EXPECT_EQ(NvCoder::mask(w), w >> 31 ? 0u : 0x7fffffffu);
    }
    Rng rng(6);
    for (int i = 0; i < 10000; ++i) {
        const Word w = rng.nextU32();
        ASSERT_EQ(nv.encode(w), w ^ NvCoder::mask(w)) << std::hex << w;
    }
}

} // namespace
} // namespace bvf::coder
