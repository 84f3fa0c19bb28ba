/**
 * @file
 * VS coder implementation.
 */

#include "coder/vs_coder.hh"

#include "common/logging.hh"

namespace bvf::coder
{

VsCoder::VsCoder(int pivot) : pivot_(pivot)
{
    fatal_if(pivot < 0, "pivot index must be non-negative");
}

void
VsCoder::encode(std::span<Word> block) const
{
    if (block.empty())
        return;
    const std::size_t p = effectivePivot(block.size());
    const Word m = mask(block[p]);
    for (std::size_t i = 0; i < block.size(); ++i) {
        if (i != p)
            block[i] ^= m;
    }
}

void
VsCoder::decode(std::span<Word> block) const
{
    // XNOR with the (unmodified) pivot is self-inverse.
    encode(block);
}

std::string
VsCoder::name() const
{
    return strFormat("vs(%d)", pivot_);
}

} // namespace bvf::coder
