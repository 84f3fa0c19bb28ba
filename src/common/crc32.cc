/**
 * @file
 * CRC-32 implementation: slicing-by-16 over the reflected polynomial
 * (Kounavis & Berry, ISCC 2005).
 *
 * Table k maps a byte to its CRC contribution from k bytes before the
 * end of a 16-byte block, so one block costs sixteen independent table
 * reads instead of sixteen dependent byte steps. The loop is written
 * out by hand: a nested loop over the block runs at half the speed.
 * Bytes are read one at a time and combined, so the result does not
 * depend on the host's byte order.
 */

#include "common/crc32.hh"

#include <array>

namespace bvf
{

namespace
{

using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr Tables tables = makeTables();

static_assert(tables[0][1] == 0x77073096u, "CRC-32 table 0");
static_assert(tables[0][255] == 0x2d02ef8du, "CRC-32 table 0");

} // namespace

void
Crc32::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const Tables &t = tables;
    std::uint32_t c = state_;
    for (; len >= 16; len -= 16, p += 16) {
        const std::uint32_t a =
            c
            ^ (std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8
               | std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24);
        c = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu]
            ^ t[13][(a >> 16) & 0xffu] ^ t[12][a >> 24] ^ t[11][p[4]]
            ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]]
            ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]]
            ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
    }
    for (; len > 0; --len, ++p)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    state_ = c;
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace bvf
