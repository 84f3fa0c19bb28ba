/**
 * @file
 * Coder II: Value Similarity (VS).
 *
 * Data-parallel GPU code exhibits strong inter-lane value similarity: the
 * 32 lanes of a warp usually hold values with small Hamming distance. The
 * VS coder XNORs every non-pivot word in a block with a pivot word, so
 * every bit that agrees with the pivot becomes a 1. The pivot word is
 * stored unchanged and is therefore always available to decode.
 *
 * The paper's profiling shows lane 21 -- not lane 0, which suffers most
 * from branch divergence at warp edges -- minimizes mean Hamming distance
 * to the other lanes, so lane 21 is the default register pivot; for cache
 * lines, element 0 is used since per-line profiling is unavailable.
 */

#ifndef BVF_CODER_VS_CODER_HH
#define BVF_CODER_VS_CODER_HH

#include "coder/coder.hh"

namespace bvf::coder
{

/**
 * Value-similarity block coder with a configurable pivot index.
 *
 * The block layout is positional: index i of the span is lane i (for
 * register blocks) or element i (for cache-line blocks). Blocks shorter
 * than pivot+1 fall back to pivot 0, mirroring the hardware behaviour on
 * partial transactions.
 */
class VsCoder : public BlockCoder
{
  public:
    /** Default pivot lane from the paper's 58-application profiling. */
    static constexpr int defaultRegisterPivot = 21;

    /** Cache lines pivot on their leading element. */
    static constexpr int cacheLinePivot = 0;

    /** @param pivot index of the pivot word within a block */
    explicit VsCoder(int pivot = defaultRegisterPivot);

    void encode(std::span<Word> block) const override;
    void decode(std::span<Word> block) const override;

    std::string name() const override;

    int pivot() const { return pivot_; }

    /**
     * Index of the word that stores the pivot in a block of
     * @p blockSize words: @p pivot, or 0 when the block ends first.
     */
    static constexpr std::size_t
    effectivePivot(int pivot, std::size_t blockSize)
    {
        const auto p = static_cast<std::size_t>(pivot);
        return p < blockSize ? p : 0;
    }

    std::size_t
    effectivePivot(std::size_t blockSize) const
    {
        return effectivePivot(pivot_, blockSize);
    }

    /**
     * The bits encode flips in every non-pivot word of a block whose
     * pivot is @p pivotValue: XNOR with the pivot is XOR with its
     * complement. The pivot word itself is stored unchanged.
     */
    static constexpr Word
    mask(Word pivotValue)
    {
        return ~pivotValue;
    }

  private:
    int pivot_;
};

} // namespace bvf::coder

#endif // BVF_CODER_VS_CODER_HH
