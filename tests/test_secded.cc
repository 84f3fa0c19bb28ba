/**
 * @file
 * Tests for the SECDED(72,64) extended Hamming code: every single-bit
 * error (data or check) is corrected, every double-bit error is
 * detected, over randomized words; the table-driven encoder matches a
 * bit-serial one.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hh"
#include "fault/secded.hh"

namespace bvf::fault
{
namespace
{

TEST(Secded, CleanWordDecodesOk)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const Word64 data = rng.nextU64();
        const std::uint8_t check = secdedEncode(data);
        const SecdedDecoded d = secdedDecode(data, check);
        EXPECT_EQ(d.status, EccStatus::Ok);
        EXPECT_EQ(d.data, data);
        EXPECT_EQ(d.check, check);
    }
}

TEST(Secded, EverySingleBitErrorIsCorrected)
{
    Rng rng(12);
    for (int trial = 0; trial < 20; ++trial) {
        const Word64 data = rng.nextU64();
        const std::uint8_t check = secdedEncode(data);
        for (int pos = 0; pos < 72; ++pos) {
            Word64 bad_data = data;
            std::uint8_t bad_check = check;
            secdedFlipBit(bad_data, bad_check, pos);
            const SecdedDecoded d = secdedDecode(bad_data, bad_check);
            EXPECT_EQ(d.status, EccStatus::Corrected)
                << "flip at position " << pos;
            EXPECT_EQ(d.data, data) << "flip at position " << pos;
            EXPECT_EQ(d.correctedBit, pos);
        }
    }
}

TEST(Secded, EveryDoubleBitErrorIsDetected)
{
    Rng rng(13);
    for (int trial = 0; trial < 500; ++trial) {
        const Word64 data = rng.nextU64();
        const std::uint8_t check = secdedEncode(data);
        const int p1 = static_cast<int>(rng.nextRange(0, 71));
        int p2 = static_cast<int>(rng.nextRange(0, 71));
        while (p2 == p1)
            p2 = static_cast<int>(rng.nextRange(0, 71));
        Word64 bad_data = data;
        std::uint8_t bad_check = check;
        secdedFlipBit(bad_data, bad_check, p1);
        secdedFlipBit(bad_data, bad_check, p2);
        const SecdedDecoded d = secdedDecode(bad_data, bad_check);
        EXPECT_EQ(d.status, EccStatus::Uncorrectable)
            << "flips at " << p1 << " and " << p2;
    }
}

TEST(Secded, SchemeMetadata)
{
    EXPECT_EQ(eccCheckBits(EccScheme::None), 0);
    EXPECT_EQ(eccCheckBits(EccScheme::Secded72_64), 8);
    EXPECT_DOUBLE_EQ(eccStorageFactor(EccScheme::None), 1.0);
    EXPECT_DOUBLE_EQ(eccStorageFactor(EccScheme::Secded72_64),
                     72.0 / 64.0);
    EXPECT_STREQ(eccSchemeName(EccScheme::None), "none");
    EXPECT_STREQ(eccSchemeName(EccScheme::Secded72_64), "SECDED(72,64)");
}

TEST(Secded, CheckBitsDependOnEveryDataBit)
{
    // Flipping any single data bit must change the check byte
    // (otherwise that bit would be unprotected).
    const Word64 data = 0x0123456789abcdefull;
    const std::uint8_t check = secdedEncode(data);
    for (int bit = 0; bit < 64; ++bit)
        EXPECT_NE(secdedEncode(data ^ (Word64(1) << bit)), check)
            << "data bit " << bit;
}

/**
 * Bit-serial encoder straight from the construction: data bit i sits
 * at the i-th non-power-of-two codeword position from 3, the Hamming
 * bits are the XOR of the set bits' positions, and the top bit makes
 * the codeword's weight even.
 */
std::uint8_t
bitLoopEncode(Word64 data)
{
    int h = 0;
    int ones = 0;
    int pos = 3;
    for (int i = 0; i < 64; ++i, ++pos) {
        while ((pos & (pos - 1)) == 0)
            ++pos;
        if ((data >> i) & 1) {
            h ^= pos;
            ++ones;
        }
    }
    h &= 0x7f;
    const int parity = (ones + std::popcount(static_cast<unsigned>(h))) & 1;
    return static_cast<std::uint8_t>(h | (parity << 7));
}

TEST(Secded, EncodeMatchesBitLoopOnEdgeWords)
{
    EXPECT_EQ(secdedEncode(0), bitLoopEncode(0));
    EXPECT_EQ(secdedEncode(~Word64(0)), bitLoopEncode(~Word64(0)));
    int pairs = 0;
    for (int i = 0; i < 64; ++i) {
        const Word64 one = Word64(1) << i;
        EXPECT_EQ(secdedEncode(one), bitLoopEncode(one)) << "bit " << i;
        for (int j = i + 1; j < 64; ++j) {
            const Word64 two = one | (Word64(1) << j);
            EXPECT_EQ(secdedEncode(two), bitLoopEncode(two))
                << "bits " << i << ", " << j;
            ++pairs;
        }
    }
    EXPECT_EQ(pairs, 2016);
}

TEST(Secded, EncodeMatchesBitLoopOnRandomWords)
{
    Rng rng(14);
    for (int i = 0; i < 100000; ++i) {
        const Word64 data = rng.nextU64();
        ASSERT_EQ(secdedEncode(data), bitLoopEncode(data))
            << std::hex << data;
    }
}

TEST(Secded, CheckByteIsLinear)
{
    // All 8 check bits, the overall parity included, are linear over
    // GF(2): the accountant XORs a coder mask's check byte into the raw
    // word's instead of encoding every coded image.
    EXPECT_EQ(secdedEncode(0), 0);
    Rng rng(15);
    for (int i = 0; i < 10000; ++i) {
        const Word64 a = rng.nextU64();
        const Word64 b = rng.nextU64();
        ASSERT_EQ(secdedEncode(a ^ b) ^ secdedEncode(a) ^ secdedEncode(b),
                  0)
            << std::hex << a << " " << b;
    }
}

/** GF2P8AFFINEQB's product of matrix @p a and byte @p x, bit by bit. */
std::uint8_t
affineProduct(std::uint64_t a, unsigned x)
{
    unsigned out = 0;
    for (int i = 0; i < 8; ++i) {
        const unsigned row = (a >> (8 * (7 - i))) & 0xff;
        out |= (std::popcount(row & x) & 1u) << i;
    }
    return static_cast<std::uint8_t>(out);
}

TEST(Secded, AffineMatricesMatchTables)
{
    // Each lane's matrix maps every byte value to the check byte of the
    // word holding only that byte in that lane.
    for (int k = 0; k < 8; ++k) {
        for (unsigned b = 0; b < 256; ++b) {
            ASSERT_EQ(affineProduct(secdedLaneMatrices[k], b),
                      secdedEncode(Word64(b) << (8 * k)))
                << "lane " << k << " byte " << b;
        }
    }
}

} // namespace
} // namespace bvf::fault
