/**
 * @file
 * BDI compressibility checks.
 */

#include "coder/bdi.hh"

#include <algorithm>
#include <cstdlib>

namespace bvf::coder
{

namespace
{

/** Does every word fit in `deltaBytes` signed bytes around `base`? */
bool
fitsDeltas(std::span<const Word> block, Word base, int deltaBytes)
{
    const std::int64_t limit = std::int64_t(1) << (deltaBytes * 8 - 1);
    for (const Word w : block) {
        const std::int64_t delta =
            static_cast<std::int64_t>(static_cast<std::int32_t>(w))
            - static_cast<std::int64_t>(static_cast<std::int32_t>(base));
        if (delta < -limit || delta >= limit)
            return false;
    }
    return true;
}

} // namespace

BdiResult
bdiCompress(std::span<const Word> block)
{
    BdiResult res;
    res.originalBytes = static_cast<int>(block.size() * 4);
    if (block.empty())
        return res;

    // Zero block.
    if (std::all_of(block.begin(), block.end(),
                    [](Word w) { return w == 0; })) {
        res.compressible = true;
        res.compressedBytes = 1;
        res.scheme = "zeros";
        return res;
    }
    // Repeated block.
    if (std::all_of(block.begin(), block.end(),
                    [&block](Word w) { return w == block[0]; })) {
        res.compressible = true;
        res.compressedBytes = 1 + 4;
        res.scheme = "rep";
        return res;
    }
    // Base + delta. Candidate bases: the first two elements and zero
    // (trying element 1 lets a block whose leading element is an
    // outlier -- e.g. a VS pivot among coded lanes -- still compress,
    // with the outlier spilled via a wide delta check).
    const Word candidates[] = {block[0],
                               block.size() > 1 ? block[1] : block[0],
                               Word(0)};
    for (const int delta_bytes : {1, 2, 4}) {
        for (const Word base : candidates) {
            if (delta_bytes == 4 && base == 0)
                continue; // degenerate: no compression
            if (fitsDeltas(block, base, delta_bytes)) {
                res.compressible = true;
                res.compressedBytes =
                    1 + 4
                    + static_cast<int>(block.size()) * delta_bytes;
                // Appended in steps, as in Error::describe.
                res.scheme = base == 0 ? "z4d" : "b4d";
                res.scheme += std::to_string(delta_bytes);
                if (res.compressedBytes < res.originalBytes)
                    return res;
                res.compressible = false;
                res.compressedBytes = 0;
                res.scheme.clear();
            }
        }
    }
    res.compressedBytes = res.originalBytes;
    return res;
}

} // namespace bvf::coder
