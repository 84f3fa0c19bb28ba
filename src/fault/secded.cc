/**
 * @file
 * SECDED(72,64) implementation.
 *
 * Classic extended-Hamming construction: codeword positions 1..71 hold
 * the 7 Hamming check bits at the power-of-two positions and the 64
 * data bits at the rest; position 0 is the overall (even) parity over
 * the whole codeword. The encoder exploits the XOR-of-positions
 * identity: the Hamming check vector is the XOR of the positions of
 * all set data bits, and a nonzero decode syndrome *is* the position
 * of a single flipped bit. Because that vector and the overall parity
 * are linear in the data, the whole check byte is read from per-byte
 * lookup tables built at compile time: 8 lookups XORed per word.
 */

#include "fault/secded.hh"

#include <array>

#include "common/logging.hh"

namespace bvf::fault
{

namespace
{

constexpr bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Codeword position of data bit i (the i-th non-power-of-two >= 3). */
constexpr std::array<int, 64>
makeDataPositions()
{
    std::array<int, 64> pos{};
    int next = 0;
    for (int p = 3; p <= 71 && next < 64; ++p) {
        if (!isPowerOfTwo(p))
            pos[next++] = p;
    }
    return pos;
}

constexpr std::array<int, 64> dataPos = makeDataPositions();

/** Inverse map: codeword position -> data bit index, or -1. */
constexpr std::array<int, 72>
makePositionToData()
{
    std::array<int, 72> inv{};
    for (int p = 0; p < 72; ++p)
        inv[p] = -1;
    for (int i = 0; i < 64; ++i)
        inv[dataPos[i]] = i;
    return inv;
}

constexpr std::array<int, 72> posToData = makePositionToData();

/**
 * checkTable[k][b]: the full check byte of a word whose only set bits
 * are byte b at byte lane k. The 7 Hamming bits (XOR of set-bit
 * positions) and the overall parity (XOR of data and Hamming bits) are
 * both linear over GF(2), so the check byte of any word is the XOR of
 * its 8 byte lanes' entries.
 */
constexpr std::array<std::array<std::uint8_t, 256>, 8>
makeCheckTables()
{
    std::array<std::array<std::uint8_t, 256>, 8> t{};
    for (int k = 0; k < 8; ++k) {
        for (int b = 0; b < 256; ++b) {
            int h = 0;
            int parity = 0;
            for (int j = 0; j < 8; ++j) {
                if ((b >> j) & 1) {
                    h ^= dataPos[8 * k + j];
                    parity ^= 1;
                }
            }
            h &= 0x7f;
            for (int j = 0; j < 7; ++j)
                parity ^= (h >> j) & 1;
            t[k][b] = static_cast<std::uint8_t>(h | (parity << 7));
        }
    }
    return t;
}

constexpr auto checkTable = makeCheckTables();

} // namespace

const char *
eccSchemeName(EccScheme scheme)
{
    return scheme == EccScheme::Secded72_64 ? "SECDED(72,64)" : "none";
}

std::uint8_t
secdedEncode(Word64 data)
{
    std::uint8_t check = 0;
    for (int k = 0; k < 8; ++k)
        check ^= checkTable[k][(data >> (8 * k)) & 0xff];
    return check;
}

SecdedDecoded
secdedDecode(Word64 data, std::uint8_t check)
{
    SecdedDecoded out;
    out.data = data;
    out.check = check;

    const int syndrome = (secdedEncode(data) ^ check) & 0x7f;
    // encode() makes popcount(data) + popcount(check) even; any odd
    // total means an odd number of flips somewhere in the codeword.
    const bool parityErr =
        ((hammingWeight64(data)
          + std::popcount(static_cast<unsigned>(check)))
         & 1)
        != 0;

    if (syndrome == 0 && !parityErr)
        return out; // clean

    if (!parityErr) {
        // Even flip count but broken Hamming checks: double error.
        out.status = EccStatus::Uncorrectable;
        return out;
    }

    // Odd flip count: locate and repair the (assumed single) flip.
    out.status = EccStatus::Corrected;
    if (syndrome == 0) {
        out.check = static_cast<std::uint8_t>(check ^ 0x80);
        out.correctedBit = 71; // the overall parity bit itself
    } else if (isPowerOfTwo(syndrome)) {
        const int j = std::countr_zero(static_cast<unsigned>(syndrome));
        out.check = static_cast<std::uint8_t>(check ^ (1u << j));
        out.correctedBit = 64 + j;
    } else if (syndrome <= 71 && posToData[syndrome] >= 0) {
        const int i = posToData[syndrome];
        out.data = data ^ (Word64(1) << i);
        out.correctedBit = i;
    } else {
        // Syndrome points outside the codeword: >= 3 flips.
        out.status = EccStatus::Uncorrectable;
        out.correctedBit = -1;
    }
    return out;
}

void
secdedFlipBit(Word64 &data, std::uint8_t &check, int pos)
{
    panic_if(pos < 0 || pos >= 72, "SECDED bit position %d out of range",
             pos);
    if (pos < 64)
        data ^= Word64(1) << pos;
    else
        check = static_cast<std::uint8_t>(check ^ (1u << (pos - 64)));
}

} // namespace bvf::fault
