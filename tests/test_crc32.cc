/**
 * @file
 * Unit tests for common/crc32.hh.
 *
 * Every checked-in CRC pin (frames, bytecode, kernel digests, journal
 * and trace batches, the golden and admission pins) assumes the
 * standard IEEE CRC-32, so the checksum is checked against the
 * published check value and against a bitwise byte-at-a-time
 * reference at every length and alignment a word-at-a-time loop
 * special-cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32.hh"
#include "common/rng.hh"

namespace bvf
{
namespace
{

/** The definition: one bit at a time, reflected polynomial 0xEDB88320. */
std::uint32_t
referenceCrc32(const unsigned char *data, std::size_t len)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

std::vector<unsigned char>
seededBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> out(n);
    for (unsigned char &b : out)
        b = static_cast<unsigned char>(rng.nextU32() >> 24);
    return out;
}

TEST(Crc32, KnownAnswer)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, std::strlen(check)), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(Crc32().value(), 0u);
}

TEST(Crc32, EveryLengthAndOffsetMatchesTheReference)
{
    // Lengths 0-80 cover no full block, one to five 16-byte blocks and
    // every tail; offsets 0-15 every alignment of the first block.
    const std::vector<unsigned char> buf = seededBytes(16 + 80, 0x3243f6a8u);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 80; ++len) {
            const unsigned char *p = buf.data() + offset;
            EXPECT_EQ(crc32(p, len), referenceCrc32(p, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Crc32, EverySplitMatchesTheOneShotValue)
{
    const std::vector<unsigned char> buf = seededBytes(200, 0x85a308d3u);
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    EXPECT_EQ(whole, referenceCrc32(buf.data(), buf.size()));
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
        Crc32 crc;
        crc.update(buf.data(), cut);
        crc.update(buf.data() + cut, buf.size() - cut);
        EXPECT_EQ(crc.value(), whole) << "split at " << cut;
    }
}

} // namespace
} // namespace bvf
