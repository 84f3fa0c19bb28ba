/**
 * @file
 * Cell energy-model implementations.
 *
 * Leakage multipliers marked "fit" are calibrated to the paper's Spectre
 * results: BVF-8T leaks 0.43% / 3.01% less than conventional 8T when
 * holding 0 / 1, and within BVF-8T holding 1 costs 9.61% less than
 * holding 0.
 */

#include "circuit/mem_cell.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace bvf::circuit
{

std::string
cellKindName(CellKind kind)
{
    switch (kind) {
      case CellKind::Sram6T:
        return "6T";
      case CellKind::Sram8T:
        return "Conv-8T";
      case CellKind::SramBvf8T:
        return "BVF-8T";
      case CellKind::SramBvf6T:
        return "BVF-6T";
      case CellKind::Edram3T:
        return "eDRAM-3T";
    }
    panic("unknown cell kind");
}

bool
cellKindHasBvf(CellKind kind)
{
    return kind != CellKind::Sram6T;
}

MemCellModel::MemCellModel(const TechParams &tech, double vdd,
                           int cellsPerBitline)
    : tech_(tech), vdd_(vdd), cellsPerBitline_(cellsPerBitline),
      bitline_(tech, cellsPerBitline)
{
    panic_if(vdd <= 0.0, "vdd must be positive");
    // Wordline: gate caps of the two access transistors of every cell on
    // the row are driven; amortized per accessed bit it is two gates.
    const Mosfet access(tech, MosType::Nmos, 1.2);
    wordlineEnergy_ = 2.0 * access.gateCap() * vdd * vdd;
    // Reference hold leakage: three off paths through min devices.
    const Mosfet min_n(tech, MosType::Nmos, 1.0);
    baseHoldLeakage_ = 3.0 * min_n.offCurrent(vdd) * vdd;
}

double
MemCellModel::cellArea() const
{
    return tech_.cellHeight * tech_.cellWidth;
}

bool
MemCellModel::operatesAt(double vdd) const
{
    return vdd >= 0.45;
}

namespace
{

/** Fixed per-bit overhead shared by all reads: sense amp + control. */
double
senseOverhead(const TechParams &tech, double vdd)
{
    return tech.scaleDynamic(tech.senseAmpEnergyAtNominal, vdd);
}

/** Write-driver overhead per bit. */
double
driverOverhead(const TechParams &tech, double vdd)
{
    return tech.scaleDynamic(tech.senseAmpEnergyAtNominal * 0.6, vdd);
}

/**
 * Conventional 6T cell: differential bitlines precharged high; reads
 * develop a small sensing swing on one line, writes pull one line to
 * ground. Both are value-independent.
 */
class Cell6T : public MemCellModel
{
  public:
    Cell6T(const TechParams &tech, double vdd, int cells)
        : MemCellModel(tech, vdd, cells)
    {}

    CellKind kind() const override { return CellKind::Sram6T; }

    double
    readEnergy(int) const override
    {
        // Differential read, symmetric in the stored value. At deeply
        // scaled nodes the ratioed 6T cell needs a large develop swing
        // and read-assist margin against variation (Section 2.1's
        // read-stability/writability conflict), so the discharged line
        // swings a substantial fraction of Vdd before restore.
        return wordlineEnergy_
               + bitline_.swingEnergy(vdd_, variationSwing())
               + senseOverhead(tech_, vdd_);
    }

    double
    writeEnergy(int) const override
    {
        // One of the precharged pair is driven to ground and restored;
        // write-assist (boosted drivers) adds ~50% on scaled nodes.
        return wordlineEnergy_ + 1.5 * bitline_.fullSwingEnergy(vdd_)
               + driverOverhead(tech_, vdd_);
    }

    double
    holdLeakage(int bit) const override
    {
        // Symmetric cell: both states leak equally (the paper's
        // framing). The ratioed cell is upsized for stability and both
        // bitlines idle at Vdd, leaking through both access devices,
        // which costs it ~2.6x the leakage of the read-decoupled 8T.
        (void)bit;
        return baseHoldLeakage_ * 2.6 * leakScale();
    }

    bool
    operatesAt(double vdd) const override
    {
        // 6T read stability collapses under deep voltage scaling.
        return vdd >= 0.9;
    }

  protected:
    /** Variation-tolerant develop swing on the read bitline [V]. */
    double variationSwing() const { return 0.55 * vdd_; }

    double
    leakScale() const
    {
        // Leakage drops superlinearly with Vdd (DIBL + gate leakage).
        const double r = vdd_ / tech_.vddNominal;
        return r * r * r;
    }
};

/**
 * Conventional 8T: write path identical to 6T; read through a decoupled
 * 2T buffer on a single-ended, full-swing RBL. Reading 0 discharges the
 * RBL (expensive); reading 1 leaves it precharged (cheap).
 */
class Cell8T : public MemCellModel
{
  public:
    Cell8T(const TechParams &tech, double vdd, int cells)
        : MemCellModel(tech, vdd, cells), readBitline_(tech, cells, 1.4)
    {}

    CellKind kind() const override { return CellKind::Sram8T; }

    double
    readEnergy(int bit) const override
    {
        const double fixed = wordlineEnergy_ * 0.5 // single read wordline
                             + senseOverhead(tech_, vdd_);
        if (bit == 0)
            return fixed + readBitline_.fullSwingEnergy(vdd_);
        // RBL stays at Vdd: only a small droop from charge sharing.
        return fixed + readBitline_.swingEnergy(vdd_, 0.05 * vdd_);
    }

    double
    writeEnergy(int) const override
    {
        return wordlineEnergy_ + bitline_.fullSwingEnergy(vdd_)
               + driverOverhead(tech_, vdd_);
    }

    double
    holdLeakage(int bit) const override
    {
        // The read buffer adds a stack whose leakage depends weakly on
        // the stored value. Multipliers fit to Spectre-reported ratios
        // (derived from BVF-8T numbers; see class Bvf8T).
        const double scale = leakScale();
        return bit ? baseHoldLeakage_ * 0.9285 * 1.12 * scale
                   : baseHoldLeakage_ * 1.12 * scale;
    }

    double
    cellArea() const override
    {
        return MemCellModel::cellArea() * 1.3; // ~30% over dense 6T
    }

  protected:
    double
    leakScale() const
    {
        const double r = vdd_ / tech_.vddNominal;
        return r * r * r;
    }

    Bitline readBitline_;
};

/**
 * The paper's BVF 8T: reads as Cell8T; the write precharge speculates on
 * value 1 by precharging WBL to Vdd and /WBL to ground. A hit (writing 1)
 * swings neither line; a miss (writing 0) swings both.
 */
class CellBvf8T : public Cell8T
{
  public:
    CellBvf8T(const TechParams &tech, double vdd, int cells)
        : Cell8T(tech, vdd, cells)
    {}

    CellKind kind() const override { return CellKind::SramBvf8T; }

    double
    writeEnergy(int bit) const override
    {
        const double fixed = wordlineEnergy_ + driverOverhead(tech_, vdd_);
        if (bit == 1) {
            // Speculation hit: bitlines already hold the target values;
            // only the internal cell nodes flip.
            return fixed + bitline_.swingEnergy(vdd_, 0.06 * vdd_);
        }
        // Miss: WBL discharges Vdd->0 and /WBL charges 0->Vdd.
        return fixed + 2.0 * bitline_.fullSwingEnergy(vdd_);
    }

    double
    holdLeakage(int bit) const override
    {
        // Grounded /WBL removes one leakage path. Fit targets:
        //   hold0 = conv8T.hold0 * (1 - 0.43%)
        //   hold1 = hold0 * (1 - 9.61%)  (==> -3.01% vs conv8T hold1)
        const double conv0 = Cell8T::holdLeakage(0);
        const double hold0 = conv0 * (1.0 - 0.0043);
        if (bit == 0)
            return hold0;
        return hold0 * (1.0 - 0.0961);
    }
};

/**
 * BVF 6T (Section 7.1): the same asymmetric precharge applied to a 6T
 * cell. Energy-wise it mirrors BVF-8T writes and gains a cheap read-1,
 * but the destructive differential read bounds cells/bitline (validated
 * by ReadDisturbSim; the array model refuses >16 cells per bitline).
 */
class CellBvf6T : public Cell6T
{
  public:
    CellBvf6T(const TechParams &tech, double vdd, int cells)
        : Cell6T(tech, vdd, cells)
    {}

    CellKind kind() const override { return CellKind::SramBvf6T; }

    double
    readEnergy(int bit) const override
    {
        const double fixed = wordlineEnergy_ + senseOverhead(tech_, vdd_);
        if (bit == 1)
            return fixed + bitline_.swingEnergy(vdd_, 0.05 * vdd_);
        // Reading 0 fights the asymmetric precharge on both lines.
        return fixed + 2.0 * bitline_.swingEnergy(vdd_, Bitline::senseSwing)
               + bitline_.swingEnergy(vdd_, 0.3 * vdd_);
    }

    double
    writeEnergy(int bit) const override
    {
        const double fixed = wordlineEnergy_ + driverOverhead(tech_, vdd_);
        if (bit == 1)
            return fixed + bitline_.swingEnergy(vdd_, 0.06 * vdd_);
        return fixed + 2.0 * bitline_.fullSwingEnergy(vdd_);
    }

    /** Maximum reliable cells/bitline before read-0 flips the cell. */
    static constexpr int maxReliableCellsPerBitline = 16;
};

/**
 * 3T PMOS gain-cell eDRAM (Section 7.2): single-ended read and write,
 * both precharged high, so both favor storing/writing 1; refresh is a
 * read + write-back and inherits the favor. Leakage is low but the cell
 * needs periodic refresh, charged to hold power here.
 */
class CellEdram3T : public MemCellModel
{
  public:
    CellEdram3T(const TechParams &tech, double vdd, int cells)
        : MemCellModel(tech, vdd, cells), readBitline_(tech, cells, 1.0)
    {}

    CellKind kind() const override { return CellKind::Edram3T; }

    double
    readEnergy(int bit) const override
    {
        const double fixed = wordlineEnergy_ * 0.5
                             + senseOverhead(tech_, vdd_);
        if (bit == 1)
            return fixed + readBitline_.swingEnergy(vdd_, 0.05 * vdd_);
        return fixed + readBitline_.fullSwingEnergy(vdd_);
    }

    double
    writeEnergy(int bit) const override
    {
        const double fixed = wordlineEnergy_ * 0.5
                             + driverOverhead(tech_, vdd_);
        if (bit == 1)
            return fixed + bitline_.swingEnergy(vdd_, 0.05 * vdd_);
        return fixed + bitline_.fullSwingEnergy(vdd_);
    }

    double
    holdLeakage(int bit) const override
    {
        // Dynamic storage barely leaks; refresh energy dominates. Model
        // hold power as refresh at 64us amortized per cell, which still
        // favors 1 because refresh = read + write-back.
        const double refresh_period = micro(64);
        const double refresh_energy = readEnergy(bit) + writeEnergy(bit);
        return refresh_energy / refresh_period
               + baseHoldLeakage_ * 0.08;
    }

    double
    cellArea() const override
    {
        return MemCellModel::cellArea() * 0.6; // denser than 6T SRAM
    }

  private:
    Bitline readBitline_;
};

} // namespace

bool
cellReliableAt(CellKind kind, int cellsPerBitline)
{
    return kind != CellKind::SramBvf6T
           || cellsPerBitline <= CellBvf6T::maxReliableCellsPerBitline;
}

std::unique_ptr<MemCellModel>
makeCellModel(CellKind kind, const TechParams &tech, double vdd,
              int cellsPerBitline, bool allowUnreliable)
{
    fatal_if(cellsPerBitline <= 0, "cellsPerBitline must be positive");
    switch (kind) {
      case CellKind::Sram6T:
        return std::make_unique<Cell6T>(tech, vdd, cellsPerBitline);
      case CellKind::Sram8T:
        return std::make_unique<Cell8T>(tech, vdd, cellsPerBitline);
      case CellKind::SramBvf8T:
        return std::make_unique<CellBvf8T>(tech, vdd, cellsPerBitline);
      case CellKind::SramBvf6T:
        fatal_if(!allowUnreliable && !cellReliableAt(kind, cellsPerBitline),
                 "BVF-6T is unreliable beyond %d cells/bitline "
                 "(destructive read; see Section 7.1)",
                 CellBvf6T::maxReliableCellsPerBitline);
        return std::make_unique<CellBvf6T>(tech, vdd, cellsPerBitline);
      case CellKind::Edram3T:
        return std::make_unique<CellEdram3T>(tech, vdd, cellsPerBitline);
    }
    panic("unknown cell kind");
}

} // namespace bvf::circuit
