/**
 * @file
 * Coder III: ISA Preference.
 *
 * Instruction streams are dictated by the ISA encoding, so the 0/1
 * preference of each bit position can be computed statically over an
 * instruction corpus. The ISA coder XNORs every 64-bit instruction with a
 * per-architecture mask whose bits are 1 wherever the position
 * statistically prefers 1 and 0 elsewhere; after encoding, the majority
 * value at every position is 1. The mask coder is self-inverse.
 */

#ifndef BVF_CODER_ISA_CODER_HH
#define BVF_CODER_ISA_CODER_HH

#include <span>
#include <string>

#include "common/bitops.hh"

namespace bvf::coder
{

/** Invertible 64-bit mask coder for the instruction stream. */
class IsaCoder
{
  public:
    /** @param mask preference mask (bit set => position prefers 0) */
    explicit IsaCoder(Word64 mask) : mask_(mask) {}

    /**
     * Encode one instruction: XNOR with the mask complement so that
     * positions preferring 0 are flipped to 1.
     *
     * The paper writes E = B xnor M with M the "prefers-1" mask: a
     * position whose mask bit is 1 keeps its value when it is 1 and a
     * position whose mask bit is 0 is inverted, which is B xor ~M; XNOR
     * with M is identical: b xnor m == b xor ~m.
     */
    Word64
    encode(Word64 instr) const
    {
        return instr ^ ~mask_;
    }

    /** Self-inverse decode. */
    Word64
    decode(Word64 coded) const
    {
        return encode(coded);
    }

    /** Encode a span in place. */
    void
    encodeSpan(std::span<Word64> instrs) const
    {
        for (Word64 &w : instrs)
            w = encode(w);
    }

    Word64 mask() const { return mask_; }

    std::string name() const;

  private:
    Word64 mask_;
};

} // namespace bvf::coder

#endif // BVF_CODER_ISA_CODER_HH
