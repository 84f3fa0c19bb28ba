/**
 * @file
 * Section 7.1: how far can the BVF-6T bitline grow before destructive
 * reads make the array unusable -- and does SECDED(72,64) buy it back?
 *
 * The paper's transient analysis concludes that the BVF precharge makes
 * a 6T read of a stored 0 destructive once more than ~16 cells load the
 * bitline (28nm, nominal Vdd). This bench turns that claim into an
 * end-to-end experiment: a small application subset is simulated on a
 * BVF-6T machine while the read-disturb fault model (driven by the same
 * transient solver) corrupts every SRAM read, with and without SECDED;
 * each configuration is then priced, so the table shows the chip energy
 * *and* the uncorrectable-error rate side by side as the column height
 * sweeps across the reliability cliff.
 */

#include <cstdio>
#include <span>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "fault/fault_model.hh"
#include "workload/app_spec.hh"

using namespace bvf;

namespace
{

constexpr int appCount = 4;           //!< suite prefix to simulate
constexpr std::uint64_t faultSeed = 7;
constexpr double softErrorRate = 1.0e-7;

struct SweepPoint
{
    int cells;
    bool ecc;
    double disturbP = 0.0;
    double chipMicroJ = 0.0;
    fault::FaultSiteStats faults;
};

} // namespace

int
main()
{
    const auto &suite = workload::evaluationSuite();
    const std::span<const workload::AppSpec> apps(suite.data(), appCount);
    core::ExperimentDriver driver(gpu::baselineConfig());

    TextTable table(strFormat(
        "Section 7.1: BVF-6T reliability vs cells/bitline "
        "(28nm, 1.2V, %d apps, soft %.0e, seed %llu)",
        appCount, softErrorRate,
        static_cast<unsigned long long>(faultSeed)));
    table.header({"Cells/bitline", "ECC", "P(disturb)", "Chip[uJ]",
                  "Corrected", "Uncorr.+silent", "Uncorr. rate"});

    int measured_cliff = 0; // tallest column that stays clean with ECC
    for (const int cells : {8, 12, 16, 17, 20, 24, 32}) {
        for (const bool ecc : {false, true}) {
            SweepPoint pt;
            pt.cells = cells;
            pt.ecc = ecc;
            pt.disturbP = fault::readDisturbFlipProbability(
                circuit::CellKind::SramBvf6T, circuit::TechNode::N28,
                1.2, cells);

            core::RunOptions options;
            options.fault.enabled = true;
            options.fault.seed = faultSeed;
            options.fault.softErrorRate = softErrorRate;
            options.fault.readDisturbRate = pt.disturbP;
            options.fault.ecc = ecc ? fault::EccScheme::Secded72_64
                                    : fault::EccScheme::None;

            const auto runs = driver.runSuite(apps, options);

            core::Pricing pricing;
            pricing.cellKind = circuit::CellKind::SramBvf6T;
            pricing.cellsPerBitline = cells;
            pricing.ecc = ecc;
            pricing.allowUnreliableCells = true;
            const auto energies = driver.evaluate(runs, pricing);

            double chip = 0.0;
            for (const auto &e : energies)
                chip += e.at(coder::Scenario::AllCoders).chipTotal();
            pt.chipMicroJ = chip / energies.size() * 1e6;
            for (const auto &run : runs) {
                if (run.faults)
                    pt.faults.merge(run.faults->totals());
            }

            const std::uint64_t escaped =
                pt.faults.uncorrectable + pt.faults.silentErrors;
            if (ecc && escaped == 0 && cells > measured_cliff)
                measured_cliff = cells;
            table.row(
                {strFormat("%d", cells), ecc ? "SECDED" : "none",
                 strFormat("%.2e", pt.disturbP),
                 TextTable::num(pt.chipMicroJ, 3),
                 strFormat("%llu", static_cast<unsigned long long>(
                                       pt.faults.corrected)),
                 strFormat("%llu",
                           static_cast<unsigned long long>(escaped)),
                 strFormat("%.3e", pt.faults.uncorrectableRate())});
        }
    }
    table.print();
    std::printf("\npaper: the BVF precharge makes 6T reads of 0 "
                "destructive beyond 16 cells/bitline (Section 7.1)\n"
                "measured: SECDED keeps columns clean up to %d "
                "cells/bitline; beyond that the disturb probability "
                "saturates and even SECDED is overwhelmed\n",
                measured_cliff);
    return 0;
}
