/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
 *
 * Every checked byte stream in the project uses it: bvfd wire frames,
 * BVFK bytecode images, the kernel store's digests, campaign journal
 * records and trace batches, so corruption and truncation are caught
 * before a frame is dispatched, a kernel admitted, a journal record
 * resumed or a trace record replayed. The fleet's hash ring and the
 * campaign's config key hash with it too, and the test pins record
 * reports by it. On the bvfd request path a submitted kernel's
 * bytecode goes through it several times (its frame, its decode, its
 * digest), so update() takes sixteen bytes a step (crc32.cc).
 */

#ifndef BVF_COMMON_CRC32_HH
#define BVF_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace bvf
{

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p len bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t len);

    /** Finalized checksum of everything updated so far. */
    std::uint32_t value() const { return state_ ^ 0xffffffffu; }

  private:
    std::uint32_t state_ = 0xffffffffu;
};

/** One-shot CRC-32 of a byte range. */
std::uint32_t crc32(const void *data, std::size_t len);

} // namespace bvf

#endif // BVF_COMMON_CRC32_HH
