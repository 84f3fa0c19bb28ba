/**
 * @file
 * SECDED(72,64): single-error-correcting, double-error-detecting
 * extended Hamming code over 64-bit words.
 *
 * Every 64-bit data word carries 8 check bits: 7 Hamming parity bits
 * plus one overall parity bit. A single flipped bit anywhere in the
 * 72-bit codeword (data, Hamming check or overall parity) is located
 * and corrected; any two flips are detected as uncorrectable. This is
 * the classic DRAM/SRAM array protection and the counterweight to the
 * BVF-6T destructive read: it buys back reliability at the cost of
 * 12.5% extra storage whose 0/1 mix the energy accountant must see
 * (check bits change the word's 1-density, which is what BVF prices).
 */

#ifndef BVF_FAULT_SECDED_HH
#define BVF_FAULT_SECDED_HH

#include <array>
#include <cstdint>

#include "common/bitops.hh"

namespace bvf::fault
{

/** ECC protection applied to SRAM units. */
enum class EccScheme
{
    None,
    Secded72_64,
};

/** Display name, e.g. "SECDED(72,64)". */
const char *eccSchemeName(EccScheme scheme);

/** Check bits stored per 64 data bits under @p scheme. */
constexpr int
eccCheckBits(EccScheme scheme)
{
    return scheme == EccScheme::Secded72_64 ? 8 : 0;
}

/** Storage overhead factor (stored bits per data bit). */
constexpr double
eccStorageFactor(EccScheme scheme)
{
    return scheme == EccScheme::Secded72_64 ? 72.0 / 64.0 : 1.0;
}

/** Outcome of decoding one codeword. */
enum class EccStatus
{
    Ok,            //!< no error
    Corrected,     //!< single-bit error located and repaired
    Uncorrectable, //!< double (or detectable multi-bit) error
};

/** Decoded word plus what the decoder had to do. */
struct SecdedDecoded
{
    Word64 data = 0;
    std::uint8_t check = 0; //!< repaired check bits
    EccStatus status = EccStatus::Ok;
    int correctedBit = -1; //!< codeword position fixed, -1 if none
};

/** Compute the 8 check bits protecting @p data. */
std::uint8_t secdedEncode(Word64 data);

/**
 * The check byte as 8 GF(2) matrices, one per data byte lane, in the
 * operand layout of the GF2P8AFFINEQB instruction: matrix A applied to
 * byte x is the byte whose bit i is the parity of x AND byte 7-i of A.
 * The check byte of a word is the XOR over lanes k of
 * secdedLaneMatrices[k] applied to byte k of the word.
 */
extern const std::array<std::uint64_t, 8> secdedLaneMatrices;

/**
 * Decode a possibly corrupted codeword.
 *
 * @param data stored data bits (may contain flips)
 * @param check stored check bits (may contain flips)
 */
SecdedDecoded secdedDecode(Word64 data, std::uint8_t check);

/**
 * Flip codeword bit @p pos (0..71) of (data, check): positions 0..63
 * address data bits, 64..71 the check bits. Test/injection helper.
 */
void secdedFlipBit(Word64 &data, std::uint8_t &check, int pos);

} // namespace bvf::fault

#endif // BVF_FAULT_SECDED_HH
