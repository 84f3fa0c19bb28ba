/**
 * @file
 * Unit tests for the value-similarity coder.
 */

#include <gtest/gtest.h>

#include "coder/vs_coder.hh"
#include "common/rng.hh"

namespace bvf::coder
{
namespace
{

std::vector<Word>
randomBlock(Rng &rng, std::size_t n)
{
    std::vector<Word> v(n);
    for (Word &w : v)
        w = rng.nextU32();
    return v;
}

TEST(VsCoder, PivotIsPreserved)
{
    const VsCoder vs(21);
    Rng rng(1);
    auto block = randomBlock(rng, 32);
    const Word pivot = block[21];
    vs.encode(block);
    EXPECT_EQ(block[21], pivot);
}

TEST(VsCoder, IdenticalLanesBecomeAllOnes)
{
    const VsCoder vs(21);
    std::vector<Word> block(32, 0xcafe1234u);
    vs.encode(block);
    for (std::size_t i = 0; i < 32; ++i) {
        if (i == 21)
            EXPECT_EQ(block[i], 0xcafe1234u);
        else
            EXPECT_EQ(block[i], 0xffffffffu);
    }
}

class VsPivotTest : public ::testing::TestWithParam<int>
{};

TEST_P(VsPivotTest, SelfInverseForAnyPivot)
{
    const VsCoder vs(GetParam());
    Rng rng(17 + GetParam());
    for (int t = 0; t < 2000; ++t) {
        auto block = randomBlock(rng, 32);
        const auto original = block;
        vs.encode(block);
        vs.decode(block);
        EXPECT_EQ(block, original);
    }
}

TEST_P(VsPivotTest, EncodeIsInvolution)
{
    const VsCoder vs(GetParam());
    Rng rng(99 + GetParam());
    auto block = randomBlock(rng, 32);
    auto twice = block;
    vs.encode(twice);
    vs.encode(twice);
    EXPECT_EQ(twice, block);
}

INSTANTIATE_TEST_SUITE_P(AllPivots, VsPivotTest,
                         ::testing::Values(0, 1, 5, 15, 21, 31));

TEST(VsCoder, SimilarLanesGainOnes)
{
    const VsCoder vs(21);
    Rng rng(3);
    std::uint64_t raw = 0, coded = 0;
    for (int t = 0; t < 2000; ++t) {
        const Word base = rng.nextU32();
        std::vector<Word> block(32);
        for (auto &w : block)
            w = base ^ static_cast<Word>(rng.nextBounded(256));
        for (Word w : block)
            raw += static_cast<std::uint64_t>(hammingWeight(w));
        vs.encode(block);
        for (Word w : block)
            coded += static_cast<std::uint64_t>(hammingWeight(w));
    }
    // Non-pivot words become ~24+ ones of 32.
    EXPECT_GT(coded, raw);
    EXPECT_GT(static_cast<double>(coded) / (2000.0 * 32 * 32), 0.7);
}

TEST(VsCoder, ShortBlockFallsBackToPivotZero)
{
    const VsCoder vs(21);
    std::vector<Word> block = {0xaaaa0000u, 0xaaaa00ffu, 0xaaaa0f0fu};
    const auto original = block;
    vs.encode(block);
    EXPECT_EQ(block[0], original[0]); // pivot 0 used
    EXPECT_EQ(block[1], xnorWord(original[1], original[0]));
    vs.decode(block);
    EXPECT_EQ(block, original);
}

TEST(VsCoder, EmptyBlockIsNoop)
{
    const VsCoder vs(21);
    std::vector<Word> empty;
    EXPECT_NO_THROW(vs.encode(empty));
    EXPECT_NO_THROW(vs.decode(empty));
}

TEST(VsCoder, CacheLineVariantPivotsOnElementZero)
{
    const VsCoder vs(VsCoder::cacheLinePivot);
    EXPECT_EQ(vs.pivot(), 0);
    std::vector<Word> block(32, 0x12345678u);
    vs.encode(block);
    EXPECT_EQ(block[0], 0x12345678u);
    EXPECT_EQ(block[31], 0xffffffffu);
}

TEST(VsCoder, EncodeIsXorWithPivotMask)
{
    // The accountant counts VS images as every non-pivot word XOR
    // mask(pivot); a pivot past the block end falls back to word 0.
    Rng rng(8);
    for (const int pivot : {0, 5, 21, 31, 40}) {
        const VsCoder vs(pivot);
        for (const std::size_t n : {1, 2, 7, 21, 22, 32}) {
            const auto original = randomBlock(rng, n);
            auto block = original;
            vs.encode(block);
            const std::size_t p = vs.effectivePivot(n);
            EXPECT_EQ(p, static_cast<std::size_t>(pivot) < n
                             ? static_cast<std::size_t>(pivot)
                             : 0u);
            EXPECT_EQ(VsCoder::mask(original[p]), ~original[p]);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(block[i],
                          i == p ? original[i]
                                 : original[i] ^ VsCoder::mask(original[p]))
                    << "pivot " << pivot << " n " << n << " i " << i;
            }
        }
    }
}

TEST(VsCoder, DefaultPivotIsLane21)
{
    EXPECT_EQ(VsCoder().pivot(), 21);
    EXPECT_EQ(VsCoder::defaultRegisterPivot, 21);
}

TEST(VsCoder, NameIncludesPivot)
{
    EXPECT_EQ(VsCoder(21).name(), "vs(21)");
    EXPECT_EQ(VsCoder(0).name(), "vs(0)");
}

} // namespace
} // namespace bvf::coder
