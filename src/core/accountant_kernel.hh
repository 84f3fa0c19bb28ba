/**
 * @file
 * Internal: the accountant's choice of popcount kernel.
 *
 * EnergyAccountant's counting loops exist twice, compiled for the
 * popcnt instruction and portable; a new accountant uses popcnt when
 * the host has it. The two must count identically, so the tests run
 * both through this header. Nothing outside the accountant and its
 * tests should include it.
 */

#ifndef BVF_CORE_ACCOUNTANT_KERNEL_HH
#define BVF_CORE_ACCOUNTANT_KERNEL_HH

#include "core/accountant.hh"

namespace bvf::core::detail
{

/** True if the host CPU has the popcnt instruction (asked once). */
bool hostHasPopcnt();

/** Switches an accountant between its two kernels. */
struct KernelSelect
{
    /**
     * Count with the popcnt kernel if @p popcnt, else the portable one.
     * Panics if @p popcnt and the host lacks the instruction.
     */
    static void usePopcnt(EnergyAccountant &acc, bool popcnt);
};

} // namespace bvf::core::detail

#endif // BVF_CORE_ACCOUNTANT_KERNEL_HH
