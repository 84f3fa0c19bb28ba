/**
 * @file
 * What each BVFK instruction computes: the one normative definition.
 *
 * The timing SM (gpu/sm.cc) and the translation validator's reference
 * interpreter (analysis/equiv.cc) both evaluate instructions through
 * these functions, so the bit patterns the simulated program stores --
 * the values every coder and energy figure is computed from -- are
 * written down once. docs/KERNEL_IR.md ("Semantics") states the rules
 * in prose.
 *
 * Floating point is fp32 IEEE with round-to-nearest, except that NaN
 * propagation is fixed here on the bit patterns instead of being left
 * to whichever operand order the compiler gives the hardware:
 *
 *  - FADD and FMUL: if b is a NaN the result is b, else if a is a NaN
 *    the result is a. FFMA's multiply follows the same rule, and its
 *    add then prefers the product's NaN over d's.
 *  - A propagated NaN is quieted (bit 22 set).
 *  - With no NaN operand the plain fp32 operation runs; an invalid one
 *    (inf - inf, 0 * inf) yields the host's default NaN, 0xffc00000 on
 *    x86.
 *
 * F2I truncates toward zero and returns 0x80000000 for NaN and for any
 * value outside [-2^31, 2^31).
 */

#ifndef BVF_ISA_SEMANTICS_HH
#define BVF_ISA_SEMANTICS_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bitops.hh"
#include "isa/opcode.hh"
#include "isa/program.hh"

namespace bvf::isa
{

/** Reinterpret a word as fp32. */
constexpr float
asFloat(Word w)
{
    return std::bit_cast<float>(w);
}

/** Reinterpret fp32 as a word. */
constexpr Word
asWord(float f)
{
    return std::bit_cast<Word>(f);
}

/** Signed view of a word. */
constexpr std::int32_t
asInt(Word w)
{
    return static_cast<std::int32_t>(w);
}

namespace detail
{

constexpr Word fpQuietBit = 0x00400000u;

/** F2I's result for NaN and out-of-range inputs. */
constexpr Word fpIntIndefinite = 0x80000000u;

constexpr bool
isNan(Word w)
{
    return (w & 0x7fffffffu) > 0x7f800000u;
}

constexpr Word
fpAdd(Word a, Word b)
{
    if (isNan(b))
        return b | fpQuietBit;
    if (isNan(a))
        return a | fpQuietBit;
    return asWord(asFloat(a) + asFloat(b));
}

constexpr Word
fpMul(Word a, Word b)
{
    if (isNan(b))
        return b | fpQuietBit;
    if (isNan(a))
        return a | fpQuietBit;
    return asWord(asFloat(a) * asFloat(b));
}

constexpr Word
fpToInt(Word a)
{
    const float f = asFloat(a);
    // NaN fails both comparisons.
    if (!(f >= -2147483648.0f && f < 2147483648.0f))
        return fpIntIndefinite;
    return static_cast<Word>(static_cast<std::int32_t>(f));
}

} // namespace detail

/**
 * Result of data opcode @p op (isDataOp) on operands @p a (srcA),
 * @p b (srcB or the immediate) and @p d (the destination's old value,
 * read by FFMA and IMAD). Returns 0 for any other opcode.
 */
constexpr Word
evalAlu(Opcode op, Word a, Word b, Word d)
{
    switch (op) {
      case Opcode::Ffma:
        // The product's NaN wins the add: it is fpAdd's b operand.
        return detail::fpAdd(d, detail::fpMul(a, b));
      case Opcode::Fadd:
        return detail::fpAdd(a, b);
      case Opcode::Fmul:
        return detail::fpMul(a, b);
      case Opcode::IAdd:
        return a + b;
      case Opcode::ISub:
        return a - b;
      case Opcode::IMul:
        return a * b;
      case Opcode::IMad:
        return a * b + d;
      case Opcode::Mov:
        return b;
      case Opcode::Shl:
        return a << (b & 31u);
      case Opcode::Shr:
        return a >> (b & 31u);
      case Opcode::And:
        return a & b;
      case Opcode::Or:
        return a | b;
      case Opcode::Xor:
        return a ^ b;
      case Opcode::I2F:
        return asWord(static_cast<float>(asInt(a)));
      case Opcode::F2I:
        return detail::fpToInt(a);
      case Opcode::Clz:
        return static_cast<Word>(std::countl_zero(a));
      case Opcode::Min:
        return static_cast<Word>(std::min(asInt(a), asInt(b)));
      case Opcode::Max:
        return static_cast<Word>(std::max(asInt(a), asInt(b)));
      default:
        return 0;
    }
}

/** SETP's signed comparison. */
constexpr bool
evalCmp(CmpOp cmp, Word a, Word b)
{
    const std::int32_t sa = asInt(a);
    const std::int32_t sb = asInt(b);
    switch (cmp) {
      case CmpOp::Lt: return sa < sb;
      case CmpOp::Le: return sa <= sb;
      case CmpOp::Gt: return sa > sb;
      case CmpOp::Ge: return sa >= sb;
      case CmpOp::Eq: return sa == sb;
      case CmpOp::Ne: return sa != sb;
    }
    return false;
}

/** S2R's value for @p lane of warp @p warpIdInBlock of block @p blockId. */
constexpr Word
specialValue(SpecialReg sr, int lane, int warpIdInBlock, int blockId,
             const LaunchDims &launch)
{
    switch (sr) {
      case SpecialReg::LaneId:
        return static_cast<Word>(lane);
      case SpecialReg::WarpId:
        return static_cast<Word>(warpIdInBlock);
      case SpecialReg::TidX:
        return static_cast<Word>(warpIdInBlock * 32 + lane);
      case SpecialReg::CtaIdX:
        return static_cast<Word>(blockId);
      case SpecialReg::NTidX:
        return static_cast<Word>(launch.blockThreads);
      case SpecialReg::GridDimX:
        return static_cast<Word>(launch.gridBlocks);
    }
    return 0;
}

/**
 * Global word at byte address @p addr. Addresses below the segment or
 * past the image read as 0.
 */
inline Word
loadGlobal(std::span<const Word> image, std::uint32_t addr)
{
    if (addr < globalSegmentBase)
        return 0;
    const std::size_t idx = (addr - globalSegmentBase) / 4;
    return idx < image.size() ? image[idx] : Word(0);
}

/** Store to global byte address @p addr; stores outside the image drop. */
inline void
storeGlobal(std::span<Word> image, std::uint32_t addr, Word value)
{
    if (addr < globalSegmentBase)
        return;
    const std::size_t idx = (addr - globalSegmentBase) / 4;
    if (idx < image.size())
        image[idx] = value;
}

/**
 * Shared-memory word index for byte address @p addr: the address wraps
 * around the block's @p words words. With no shared memory the index is
 * 0 and the access has no effect (loads read 0).
 */
constexpr std::size_t
sharedIndex(std::uint32_t addr, std::size_t words)
{
    return words ? (addr / 4) % words : 0;
}

/**
 * Constant/texture byte address actually read for @p addr: wrapped
 * around the @p words-word image and aligned down to a word.
 */
constexpr std::uint32_t
imageAddress(std::uint32_t addr, std::size_t words)
{
    if (words)
        addr %= static_cast<std::uint32_t>(words * 4);
    return addr & ~3u;
}

/** Constant/texture word at an imageAddress(); 0 past the image. */
inline Word
loadImage(std::span<const Word> image, std::uint32_t alignedAddr)
{
    const std::size_t idx = alignedAddr / 4;
    return idx < image.size() ? image[idx] : Word(0);
}

} // namespace bvf::isa

#endif // BVF_ISA_SEMANTICS_HH
