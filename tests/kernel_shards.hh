/**
 * @file
 * Sharding for seeded random-kernel properties. A property that checks
 * N kernels drawn from one seeded stream is split into contiguous index
 * ranges, one parameterized test entry each, so every entry fits the
 * per-test timeout under the sanitizers. A shard draws (without
 * checking) the kernels before its range to advance the stream, so the
 * shards together check exactly the kernels the unsplit loop did.
 */

#ifndef BVF_TESTS_KERNEL_SHARDS_HH
#define BVF_TESTS_KERNEL_SHARDS_HH

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

namespace bvf::tests
{

/** Kernel indices [begin, end) of one shard. */
struct KernelShard
{
    int begin = 0;
    int end = 0;
};

/** Split kernels [0, total) into @p shards equal contiguous ranges. */
inline std::vector<KernelShard>
kernelShards(int total, int shards)
{
    std::vector<KernelShard> out;
    for (int s = 0; s < shards; ++s)
        out.push_back({total * s / shards, total * (s + 1) / shards});
    return out;
}

/** Test name suffix, e.g. "Kernels250to499". */
inline std::string
kernelShardName(const ::testing::TestParamInfo<KernelShard> &info)
{
    return "Kernels" + std::to_string(info.param.begin) + "to"
           + std::to_string(info.param.end - 1);
}

/** Keeps test names stable: gtest would otherwise print raw bytes. */
inline void
PrintTo(const KernelShard &shard, std::ostream *os)
{
    *os << "[" << shard.begin << ", " << shard.end << ")";
}

} // namespace bvf::tests

#endif // BVF_TESTS_KERNEL_SHARDS_HH
