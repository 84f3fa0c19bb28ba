/**
 * @file
 * Internal: the accountant's choice of counting kernel.
 *
 * EnergyAccountant's counting loops exist three times: portable,
 * compiled for the popcnt instruction, and an AVX-512 kernel that
 * counts access blocks in vectors and uses the popcnt loops for the
 * rest. A new accountant uses the fastest one the host runs. All three must
 * count identically, so the tests run each through this header.
 * Nothing outside the accountant, its tests and its benchmarks should
 * include it.
 */

#ifndef BVF_CORE_ACCOUNTANT_KERNEL_HH
#define BVF_CORE_ACCOUNTANT_KERNEL_HH

#include <array>
#include <string>

#include "core/accountant.hh"

namespace bvf::core::detail
{

/** Every kernel, slowest first. */
inline constexpr std::array<Kernel, 3> allKernels = {
    Kernel::Portable, Kernel::Popcnt, Kernel::Avx512};

/** Display name: "portable", "popcnt" or "avx512". */
const char *kernelName(Kernel kernel);

/**
 * The CPU features @p kernel needs that the host lacks, space-separated
 * (e.g. "avx512vpopcntdq gfni"), or "" if the host runs it. The host is
 * asked once, on first use.
 */
const std::string &missingFeatures(Kernel kernel);

/** The kernel a new accountant counts with: the fastest the host runs. */
Kernel hostKernel();

/** Switches an accountant between its kernels. */
struct KernelSelect
{
    /** Count with @p kernel. Panics if the host lacks its features. */
    static void use(EnergyAccountant &acc, Kernel kernel);
};

} // namespace bvf::core::detail

#endif // BVF_CORE_ACCOUNTANT_KERNEL_HH
