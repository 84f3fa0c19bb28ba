/**
 * @file
 * Coder I: Narrow Value (NV).
 *
 * Narrow values -- small magnitudes stored in wide types -- leave long
 * runs of leading 0s (or leading 1s for negative two's-complement
 * values). The NV coder XNORs every bit of a word with the word's sign
 * bit: positive words are flipped wholesale (leading 0s become 1s),
 * negative words pass through unchanged (their leading bits are already
 * 1s). Because XNOR with a bit of the word itself is its own inverse,
 * the decoder is the same circuit.
 *
 *   E = f(B) = [b0, b1 xnor b0, ..., bn xnor b0]
 *
 * Note bit 0 here is the MSB (sign); the sign bit itself is preserved so
 * decoding can recover the original word.
 */

#ifndef BVF_CODER_NV_CODER_HH
#define BVF_CODER_NV_CODER_HH

#include "coder/coder.hh"

namespace bvf::coder
{

/** The narrow-value XNOR coder (self-inverse). */
class NvCoder : public WordCoder
{
  public:
    /**
     * The bits encode flips in @p w: XNOR with the sign is XOR with its
     * complement, so every bit below the sign of a non-negative word and
     * none of a negative one.
     */
    static constexpr Word
    mask(Word w)
    {
        return ~broadcastSign(w) & 0x7fffffffu;
    }

    Word
    encode(Word w) const override
    {
        return w ^ mask(w);
    }

    Word
    decode(Word e) const override
    {
        // Self-inverse: the sign bit is untouched by encode.
        return encode(e);
    }

    std::string name() const override { return "nv"; }
};

} // namespace bvf::coder

#endif // BVF_CODER_NV_CODER_HH
