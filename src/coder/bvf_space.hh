/**
 * @file
 * BVF spaces (Section 3.3 and Table 1 of the paper).
 *
 * A BVF space is a set of on-chip units (SRAM structures, NoC links,
 * buffers) that all store and transmit data in the same coded format, so
 * a single encoder/decoder pair at the space boundary suffices and no
 * per-unit metadata is needed. Two properties must hold:
 *
 *  (I)  every port of a space uses the same coding format;
 *  (II) overlapping spaces do not disturb each other's ability to
 *       reconstruct the original data (their transforms compose
 *       invertibly).
 *
 * This module provides the registry that assigns coder chains to units,
 * enforces property (I) structurally, and can check property (II) by
 * construction (all registered transforms are invertible, so any
 * composition is).
 */

#ifndef BVF_CODER_BVF_SPACE_HH
#define BVF_CODER_BVF_SPACE_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "coder/coder.hh"

namespace bvf::coder
{

/** The on-chip units the paper's Table 1 assigns to BVF spaces. */
enum class UnitId
{
    Reg,   //!< register file
    Sme,   //!< shared (scratchpad) memory
    L1D,   //!< L1 data cache
    L1T,   //!< texture cache
    L1C,   //!< constant cache
    L1I,   //!< L1 instruction cache
    Ifb,   //!< instruction fetch buffer
    Noc,   //!< interconnect between SMs and L2
    L2,    //!< unified L2 cache
};

/** Number of units. */
constexpr std::size_t numUnits = 9;

/** Dense index for array storage. */
constexpr std::size_t
unitIndex(UnitId unit)
{
    return static_cast<std::size_t>(unit);
}

/** Display name, e.g. "REG". */
std::string unitName(UnitId unit);

/** All units, in display order. */
const std::vector<UnitId> &allUnits();

/** Is the unit on the instruction stream (vs the data stream)? */
bool isInstructionUnit(UnitId unit);

/**
 * One BVF space: a named set of units sharing a coder chain.
 */
class BvfSpace
{
  public:
    BvfSpace(std::string name, std::set<UnitId> units, CoderChain chain);

    const std::string &name() const { return name_; }
    const std::set<UnitId> &units() const { return units_; }
    const CoderChain &chain() const { return chain_; }

    bool covers(UnitId unit) const { return units_.count(unit) > 0; }

  private:
    std::string name_;
    std::set<UnitId> units_;
    CoderChain chain_;
};

/**
 * Registry of all spaces active on a chip. Resolves, per unit, the
 * composed coder chain formed by every space covering that unit
 * (property II guarantees composition order only needs to be consistent,
 * which the registry fixes as registration order).
 */
class SpaceRegistry
{
  public:
    /** Register a space; returns its index. */
    std::size_t add(BvfSpace space);

    /** Composed chain for @p unit over all covering spaces. */
    CoderChain chainFor(UnitId unit) const;

    /** Names of the spaces covering @p unit, in composition order. */
    std::vector<std::string> spacesCovering(UnitId unit) const;

    std::size_t size() const { return spaces_.size(); }
    const BvfSpace &space(std::size_t i) const { return spaces_.at(i); }

  private:
    std::vector<BvfSpace> spaces_;
};

/** Table 1 space sets for each of the paper's coders. */
std::set<UnitId> nvSpaceUnits();
std::set<UnitId> vsRegisterSpaceUnits();
std::set<UnitId> vsCacheSpaceUnits();
std::set<UnitId> isaSpaceUnits();

} // namespace bvf::coder

#endif // BVF_CODER_BVF_SPACE_HH
