/**
 * @file
 * Memory-cell energy models: 6T SRAM, conventional 8T SRAM, the paper's
 * BVF 8T SRAM, a speculative BVF 6T variant (Section 7.1), and a 3T
 * gain-cell eDRAM (Section 7.2).
 *
 * Each model reports per-bit read and write energy as a function of the
 * bit value involved, plus hold (standby) leakage power as a function of
 * the stored value. The Bit-Value-Favor property is exactly this value
 * dependence:
 *
 *  - conventional 8T: read-1 cheap (RBL stays precharged), writes
 *    symmetric;
 *  - BVF 8T: additionally write-1 cheap (WBL precharged high, /WBL
 *    precharged low -- a correct speculation costs almost nothing, a miss
 *    swings both lines);
 *  - 6T: fully symmetric (differential small-swing read, one full-swing
 *    write line);
 *  - BVF 6T: same precharge trick on 6T; works electrically but the
 *    destructive read limits cells/bitline (see ReadDisturbSim);
 *  - eDRAM gain cell: single-ended read *and* write both favor 1.
 */

#ifndef BVF_CIRCUIT_MEM_CELL_HH
#define BVF_CIRCUIT_MEM_CELL_HH

#include <memory>
#include <string>

#include "circuit/bitline.hh"
#include "circuit/technology.hh"

namespace bvf::circuit
{

/** The modelled cell families. */
enum class CellKind
{
    Sram6T,
    Sram8T,     //!< conventional 8T
    SramBvf8T,  //!< paper's proposal
    SramBvf6T,  //!< Section 7.1 speculation
    Edram3T,    //!< Section 7.2 gain cell
};

/** Short display name, e.g. "BVF-8T". */
std::string cellKindName(CellKind kind);

/** True if the cell family exhibits any bit-value energy asymmetry. */
bool cellKindHasBvf(CellKind kind);

/**
 * True if a @p kind column of @p cellsPerBitline cells reads reliably.
 * Only BVF-6T has a limit: past it a read of 0 flips the cell
 * (Section 7.1).
 */
bool cellReliableAt(CellKind kind, int cellsPerBitline);

/**
 * Value-dependent per-bit access energy and hold leakage for one cell in
 * a column of @c cellsPerBitline cells.
 *
 * All energies are in joules, powers in watts, at the supply voltage the
 * model was built with.
 */
class MemCellModel
{
  public:
    virtual ~MemCellModel() = default;

    /** Energy to read one bit holding @p bit (0/1). */
    virtual double readEnergy(int bit) const = 0;

    /** Energy to write value @p bit (0/1) into one cell. */
    virtual double writeEnergy(int bit) const = 0;

    /** Standby leakage power while holding @p bit (0/1). */
    virtual double holdLeakage(int bit) const = 0;

    /** Cell family. */
    virtual CellKind kind() const = 0;

    /** Supply voltage the model was evaluated at [V]. */
    double vdd() const { return vdd_; }

    /** Technology the model was built for. */
    const TechParams &tech() const { return tech_; }

    /** Bitcell layout area [m^2], including the family's density penalty. */
    virtual double cellArea() const;

    /**
     * Can the family operate at @p vdd? 6T fails below ~0.9 V due to
     * read-stability / writability sizing conflicts; 8T reaches
     * near-threshold.
     */
    virtual bool operatesAt(double vdd) const;

  protected:
    MemCellModel(const TechParams &tech, double vdd, int cellsPerBitline);

    const TechParams &tech_;
    double vdd_;
    int cellsPerBitline_;
    Bitline bitline_;
    double wordlineEnergy_;  //!< per-access wordline charge [J]
    double baseHoldLeakage_; //!< reference per-cell leakage [W]
};

/**
 * Factory: build the energy model for @p kind at @p vdd with
 * @p cellsPerBitline cells sharing each column.
 *
 * @param allowUnreliable build BVF-6T columns past the Section 7.1
 *        reliability limit instead of fataling. Reserved for fault
 *        studies that model the resulting read disturb explicitly --
 *        regular machine configuration must keep the guard.
 */
std::unique_ptr<MemCellModel> makeCellModel(
    CellKind kind, const TechParams &tech, double vdd,
    int cellsPerBitline = 128, bool allowUnreliable = false);

} // namespace bvf::circuit

#endif // BVF_CIRCUIT_MEM_CELL_HH
