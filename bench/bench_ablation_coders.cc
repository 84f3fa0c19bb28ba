/**
 * @file
 * Ablations on the design choices DESIGN.md calls out:
 *
 *  1. VS pivot: lane 21 (paper) vs lane 0 (what prior value-similarity
 *     work uses) at the register file.
 *  2. NoC coding: the BVF coders vs classic bus-invert (Section 3.2's
 *     comparison baseline) on the same flit streams.
 *  3. Cell initialization: powering BVF arrays up at 1 vs at 0
 *     (Section 3.1's "initialize the BVF SRAM cell to bit-1").
 */

#include <cstdio>

#include "coder/bus_invert.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "coder/nv_coder.hh"
#include "core/experiment.hh"
#include "workload/value_model.hh"

using namespace bvf;

namespace
{

/** Ablation 1: register-file energy under different VS pivots. */
void
pivotAblation()
{
    TextTable table("Ablation 1: VS register pivot (suite mean REG "
                    "energy vs baseline, 28nm)");
    table.header({"Pivot", "REG ratio"});
    for (const int pivot : {0, 15, 21}) {
        gpu::GpuConfig config = gpu::baselineConfig();
        core::ExperimentDriver driver(config);
        double base_sum = 0.0, coded_sum = 0.0;
        core::RunOptions options;
        options.vsRegisterPivot = pivot;
        // A representative subset keeps the ablation quick.
        for (const char *abbr : {"ATA", "BFS", "SGE", "HSP", "GES",
                                 "MMU", "SSP", "BLA"}) {
            const core::AppRun run =
                driver.runApp(workload::findApp(abbr), options);

            power::ChipPowerModel model(circuit::TechNode::N28, 1.2,
                                        700e6,
                                        circuit::CellKind::SramBvf8T,
                                        config);
            const auto base = model.evaluate(
                run.accountant->unitStats(coder::Scenario::Baseline), 0, 0,
                run.gpuStats, false);
            const auto coded = model.evaluate(
                run.accountant->unitStats(coder::Scenario::AllCoders), 0,
                0, run.gpuStats, false);
            base_sum += base.units.at(coder::UnitId::Reg).total();
            coded_sum += coded.units.at(coder::UnitId::Reg).total();
        }
        table.row({TextTable::num(pivot, 0),
                   TextTable::num(coded_sum / base_sum, 3)});
    }
    table.print();
    std::printf("(lane 21 should edge out lane 0; Figure 11's ~20%% "
                "Hamming-distance gap)\n\n");
}

/** Ablation 2: BVF coders vs bus-invert on a line stream. */
void
busInvertAblation()
{
    const auto &spec = workload::findApp("ATA");
    workload::ValueModel values(spec.values, 99);
    const coder::NvCoder nv;
    const coder::VsCoder vs(0);

    coder::BusInvertChannel bi(8);
    std::vector<Word> prev_raw(8, 0), prev_bvf(8, 0);
    std::uint64_t raw_t = 0, bvf_t = 0;
    std::uint64_t raw_ones = 0, bvf_ones = 0, bits = 0;
    const int tiles = 8000;
    for (int t = 0; t < tiles; ++t) {
        const auto tile = values.tile();
        std::vector<Word> coded(tile.begin(), tile.end());
        nv.encodeSpan(coded);
        vs.encode(coded);
        for (int f = 0; f < 4; ++f) {
            std::vector<Word> raw_flit(tile.begin() + f * 8,
                                       tile.begin() + f * 8 + 8);
            std::vector<Word> bvf_flit(coded.begin() + f * 8,
                                       coded.begin() + f * 8 + 8);
            for (int i = 0; i < 8; ++i) {
                raw_t += static_cast<std::uint64_t>(hammingDistance(
                    prev_raw[static_cast<std::size_t>(i)],
                    raw_flit[static_cast<std::size_t>(i)]));
                bvf_t += static_cast<std::uint64_t>(hammingDistance(
                    prev_bvf[static_cast<std::size_t>(i)],
                    bvf_flit[static_cast<std::size_t>(i)]));
                raw_ones += static_cast<std::uint64_t>(
                    hammingWeight(raw_flit[static_cast<std::size_t>(i)]));
                bvf_ones += static_cast<std::uint64_t>(
                    hammingWeight(bvf_flit[static_cast<std::size_t>(i)]));
                bits += 32;
            }
            prev_raw = raw_flit;
            prev_bvf = bvf_flit;
            // Bus-invert the raw stream (its own wires).
            std::vector<bool> parity;
            bi.encode(raw_flit, parity);
        }
    }

    TextTable table("Ablation 2: NoC coding schemes on a fill stream");
    table.header({"Scheme", "Toggles/flit", "1-bit density", "Extra "
                                                             "wires"});
    const double flits = tiles * 4.0;
    table.row({"uncoded", TextTable::num(raw_t / flits, 1),
               TextTable::pct(static_cast<double>(raw_ones) / bits),
               "0"});
    table.row({"bus-invert",
               TextTable::num(bi.totalToggles() / flits, 1), "~50%",
               "1/lane"});
    table.row({"BVF (NV+VS)", TextTable::num(bvf_t / flits, 1),
               TextTable::pct(static_cast<double>(bvf_ones) / bits),
               "0"});
    table.print();
    std::printf("(bus-invert minimizes toggles but leaves 0/1 balance "
                "~50%%, useless to BVF cells; the BVF coders cut "
                "toggles *and* maximize 1s without parity wires)\n\n");
}

/** Ablation 3: init-to-1 vs init-to-0 standby energy. */
void
initAblation()
{
    // An idle 128KB BVF-8T register file over 1 ms.
    circuit::ArrayGeometry geom;
    geom.sets = 1024;
    geom.blockBytes = 128;
    const circuit::ArrayModel array(
        circuit::CellKind::SramBvf8T,
        circuit::techParams(circuit::TechNode::N28), 1.2, geom);
    const double seconds = 1e-3;
    const double e0 = array.holdPower(0.0) * seconds;
    const double e1 = array.holdPower(1.0) * seconds;
    TextTable table("Ablation 3: untouched-array initialization "
                    "(128KB BVF-8T, 1ms standby)");
    table.header({"Init value", "Standby energy [nJ]"});
    table.row({"0 (conventional)", TextTable::num(e0 * 1e9, 2)});
    table.row({"1 (paper)", TextTable::num(e1 * 1e9, 2)});
    table.print();
    std::printf("init-to-1 saves %.2f%% of standby energy on idle "
                "capacity (paper: storing 1 costs 9.61%% less)\n",
                100.0 * (1.0 - e1 / e0));
}

} // namespace

int
main()
{
    pivotAblation();
    busInvertAblation();
    initAblation();
    return 0;
}
