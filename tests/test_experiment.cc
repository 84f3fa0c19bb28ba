/**
 * @file
 * Tests for the experiment driver: single-app end-to-end energy
 * evaluation and the headline orderings the paper reports.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "workload/kernel_builder.hh"

namespace bvf::core
{
namespace
{

using coder::Scenario;

class ExperimentTest : public ::testing::Test
{
  protected:
    static const AppRun &
    run()
    {
        static const AppRun r = [] {
            ExperimentDriver driver(gpu::baselineConfig());
            return driver.runApp(workload::findApp("ATA"));
        }();
        return r;
    }

    static AppEnergy
    price(circuit::TechNode node)
    {
        ExperimentDriver driver(gpu::baselineConfig());
        Pricing pricing;
        pricing.node = node;
        return driver.evaluate(run(), pricing);
    }
};

TEST_F(ExperimentTest, BvfReducesChipEnergy)
{
    const auto e = price(circuit::TechNode::N28);
    EXPECT_LT(e.at(Scenario::AllCoders).chipTotal(),
              e.at(Scenario::Baseline).chipTotal());
}

TEST_F(ExperimentTest, CombinedBeatsEveryIndividualCoder)
{
    const auto e = price(circuit::TechNode::N28);
    const double all = e.at(Scenario::AllCoders).bvfUnitsTotal();
    for (const auto s :
         {Scenario::NvOnly, Scenario::VsOnly, Scenario::IsaOnly})
        EXPECT_LT(all, e.at(s).bvfUnitsTotal());
}

TEST_F(ExperimentTest, EveryCoderHelpsAlone)
{
    const auto e = price(circuit::TechNode::N28);
    const double base = e.at(Scenario::Baseline).bvfUnitsTotal();
    for (const auto s :
         {Scenario::NvOnly, Scenario::VsOnly, Scenario::IsaOnly})
        EXPECT_LT(e.at(s).bvfUnitsTotal(), base);
}

TEST_F(ExperimentTest, FortyNmSavesMoreThanTwentyEight)
{
    // The paper's ordering: -24% at 40nm vs -21% at 28nm.
    const auto e28 = price(circuit::TechNode::N28);
    const auto e40 = price(circuit::TechNode::N40);
    const double r28 = e28.at(Scenario::AllCoders).chipTotal()
                       / e28.at(Scenario::Baseline).chipTotal();
    const double r40 = e40.at(Scenario::AllCoders).chipTotal()
                       / e40.at(Scenario::Baseline).chipTotal();
    EXPECT_LT(r40, r28);
}

TEST_F(ExperimentTest, ChipReductionInPaperBand)
{
    // Single memory-bound app: reduction should be in the ballpark the
    // paper's Figure 18 shows for ATA (stronger than the mean).
    const auto e = price(circuit::TechNode::N28);
    const double red = 1.0
                       - e.at(Scenario::AllCoders).chipTotal()
                             / e.at(Scenario::Baseline).chipTotal();
    EXPECT_GT(red, 0.12);
    EXPECT_LT(red, 0.40);
}

TEST_F(ExperimentTest, CoderOverheadCharged)
{
    const auto e = price(circuit::TechNode::N28);
    EXPECT_DOUBLE_EQ(e.at(Scenario::Baseline).coderOverhead, 0.0);
    EXPECT_GT(e.at(Scenario::AllCoders).coderOverhead, 0.0);
    EXPECT_LT(e.at(Scenario::AllCoders).coderOverhead,
              0.02 * e.at(Scenario::AllCoders).chipTotal());
}

TEST_F(ExperimentTest, MeanHelpersAverageCorrectly)
{
    ExperimentDriver driver(gpu::baselineConfig());
    Pricing pricing;
    const std::vector<AppEnergy> both = {price(circuit::TechNode::N28),
                                         price(circuit::TechNode::N28)};
    const double mean =
        ExperimentDriver::meanChipRatio(both, Scenario::AllCoders);
    const double single = both[0].at(Scenario::AllCoders).chipTotal()
                          / both[0].at(Scenario::Baseline).chipTotal();
    EXPECT_NEAR(mean, single, 1e-12);
}

TEST_F(ExperimentTest, UnitCapacitiesCoverAllSramUnits)
{
    ExperimentDriver driver(gpu::baselineConfig());
    const auto caps = driver.unitCapacities();
    EXPECT_EQ(caps.size(), 8u); // all units except the NoC
    EXPECT_EQ(caps.count(coder::UnitId::Noc), 0u);
}

TEST_F(ExperimentTest, DvfsKeepsReductionConsistent)
{
    // Figure 20's claim at single-app granularity.
    ExperimentDriver driver(gpu::baselineConfig());
    Pricing nominal, low;
    nominal.node = circuit::TechNode::N40;
    low.node = circuit::TechNode::N40;
    low.pstate = gpu::pstateLow();
    const auto e_nom = driver.evaluate(run(), nominal);
    const auto e_low = driver.evaluate(run(), low);
    const double red_nom = 1.0
                           - e_nom.at(Scenario::AllCoders).chipTotal()
                                 / e_nom.at(Scenario::Baseline)
                                       .chipTotal();
    const double red_low = 1.0
                           - e_low.at(Scenario::AllCoders).chipTotal()
                                 / e_low.at(Scenario::Baseline)
                                       .chipTotal();
    EXPECT_NEAR(red_nom, red_low, 0.03);
    // And the low P-state costs far less absolute energy.
    EXPECT_LT(e_low.at(Scenario::Baseline).chipTotal(),
              0.5 * e_nom.at(Scenario::Baseline).chipTotal());
}

TEST_F(ExperimentTest, CheckedRunsClassifyFatalAsTimeoutOrFailed)
{
    // A token cancelled before the run trips the first watchdog poll:
    // both checked entry points report the fatal() as a Timeout.
    ExperimentDriver driver(gpu::baselineConfig());
    const workload::AppSpec &spec = workload::findApp("ATA");
    CancelToken cancelled;
    cancelled.requestCancel();
    RunOptions timed;
    timed.cancel = &cancelled;
    const auto app = driver.runAppChecked(spec, timed);
    ASSERT_FALSE(app.ok());
    EXPECT_EQ(app.error().code, ErrorCode::Timeout);
    const auto program =
        driver.runProgramChecked(workload::buildProgram(spec), timed);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.error().code, ErrorCode::Timeout);

    // With no token, a fatal() inside the run is a plain failure.
    workload::AppSpec broken = spec;
    broken.blockThreads = 33; // not a multiple of the warp size
    const auto bad_app = driver.runAppChecked(broken);
    ASSERT_FALSE(bad_app.ok());
    EXPECT_EQ(bad_app.error().code, ErrorCode::Failed);
    EXPECT_FALSE(bad_app.error().message.empty());
    RunOptions incompatible; // --check-static refuses fault injection
    incompatible.checkStatic = true;
    incompatible.fault.enabled = true;
    incompatible.fault.softErrorRate = 1e-6;
    const auto bad_program = driver.runProgramChecked(
        workload::buildProgram(spec), incompatible);
    ASSERT_FALSE(bad_program.ok());
    EXPECT_EQ(bad_program.error().code, ErrorCode::Failed);
    EXPECT_FALSE(bad_program.error().message.empty());
}

TEST_F(ExperimentTest, SuiteRunFailsLoudlyOnABrokenApp)
{
    // No skip, no retry: a suite mean over fewer apps would be wrong.
    ExperimentDriver driver(gpu::baselineConfig());
    workload::AppSpec broken = workload::findApp("ATA");
    broken.blockThreads = 33;
    const std::vector<workload::AppSpec> apps = {broken};
    EXPECT_EXIT(driver.runSuite(apps), ::testing::ExitedWithCode(1),
                "blockThreads must be a warp multiple");
}

TEST_F(ExperimentTest, SeedSaltChangesTheDraws)
{
    workload::AppSpec spec = workload::findApp("ATA");
    const std::uint64_t base = spec.seed();
    spec.seedSalt = 1;
    EXPECT_NE(spec.seed(), base);
    spec.seedSalt = 0;
    EXPECT_EQ(spec.seed(), base); // salt 0 is the historical seed
}

TEST_F(ExperimentTest, FaultInjectionLeavesAccountingDeterministic)
{
    // Same seed, same fault pattern, same accounted energy.
    ExperimentDriver driver(gpu::baselineConfig());
    RunOptions options;
    options.fault.enabled = true;
    options.fault.seed = 17;
    options.fault.softErrorRate = 1e-6;
    options.fault.ecc = fault::EccScheme::Secded72_64;

    const auto a = driver.runApp(workload::findApp("ATA"), options);
    const auto b = driver.runApp(workload::findApp("ATA"), options);
    ASSERT_TRUE(a.faults && b.faults);
    EXPECT_EQ(a.faults->totals().injected.total(),
              b.faults->totals().injected.total());
    EXPECT_GT(a.faults->totals().codewords, 0u);

    Pricing pricing;
    pricing.ecc = true;
    const auto ea = driver.evaluate(a, pricing);
    const auto eb = driver.evaluate(b, pricing);
    EXPECT_DOUBLE_EQ(ea.at(Scenario::Baseline).chipTotal(),
                     eb.at(Scenario::Baseline).chipTotal());
}

TEST_F(ExperimentTest, TapSeesTheRawStreamBeforeTheFaultLayer)
{
    // Faults change what the accountant is handed, never what the
    // machine emits: a tap on a faulty run accounts exactly what the
    // fault-free run's accountant does.
    ExperimentDriver driver(gpu::baselineConfig());
    AccountantOptions opts;
    opts.arch = driver.config().arch;
    EnergyAccountant tapped(driver.unitCapacities(), opts);
    RunOptions options;
    options.fault.enabled = true;
    options.fault.seed = 5;
    options.fault.softErrorRate = 1e-3;
    options.tap = &tapped;
    const auto faulty = driver.runApp(workload::findApp("ATA"), options);
    tapped.finalize(faulty.gpuStats.cycles);
    ASSERT_TRUE(faulty.faults);
    ASSERT_GT(faulty.faults->totals().injected.total(), 0u);

    const auto reads = [](const EnergyAccountant &a, coder::UnitId u) {
        return a.unitStats(Scenario::Baseline).at(u).reads.ones;
    };
    for (const auto &[unit, stats] :
         run().accountant->unitStats(Scenario::Baseline)) {
        EXPECT_EQ(reads(tapped, unit), stats.reads.ones)
            << coder::unitName(unit);
        EXPECT_EQ(tapped.unitStats(Scenario::Baseline).at(unit).writes.ones,
                  stats.writes.ones)
            << coder::unitName(unit);
    }
    EXPECT_NE(reads(*faulty.accountant, coder::UnitId::L1D),
              reads(tapped, coder::UnitId::L1D));
    EXPECT_FALSE(faulty.staticPrediction); // no --check-static
}

TEST_F(ExperimentTest, EccPricingCostsEnergy)
{
    // SECDED check bits must show up as extra stored bits and extra
    // dynamic energy relative to the unprotected machine.
    ExperimentDriver driver(gpu::baselineConfig());
    RunOptions ecc_run;
    ecc_run.fault.ecc = fault::EccScheme::Secded72_64;
    const auto protected_run =
        driver.runApp(workload::findApp("ATA"), ecc_run);
    EXPECT_EQ(protected_run.faults, nullptr); // ECC alone injects nothing

    Pricing plain, ecc;
    ecc.ecc = true;
    const auto e_plain = driver.evaluate(run(), plain);
    const auto e_ecc = driver.evaluate(protected_run, ecc);
    EXPECT_GT(e_ecc.at(Scenario::Baseline).chipTotal(),
              e_plain.at(Scenario::Baseline).chipTotal());
    // ...but by a modest factor (12.5% storage, not a blowup).
    EXPECT_LT(e_ecc.at(Scenario::Baseline).chipTotal(),
              1.3 * e_plain.at(Scenario::Baseline).chipTotal());
}

TEST_F(ExperimentTest, EvaluateRefusesAnEccPairThatDisagrees)
{
    // Pricing SECDED arrays over a stream that never accounted the
    // check bits (or the reverse) is silently wrong, so it is fatal.
    ExperimentDriver driver(gpu::baselineConfig());
    RunOptions ecc_run;
    ecc_run.fault.ecc = fault::EccScheme::Secded72_64;
    const auto protected_run =
        driver.runApp(workload::findApp("ATA"), ecc_run);
    ASSERT_FALSE(run().accountant->eccAccounting());
    ASSERT_TRUE(protected_run.accountant->eccAccounting());

    Pricing plain, ecc;
    ecc.ecc = true;
    ScopedFatalTrap trap;
    EXPECT_THROW(driver.evaluate(run(), ecc), FatalError);
    EXPECT_THROW(driver.evaluate(protected_run, plain), FatalError);
    EXPECT_NO_THROW(driver.evaluate(protected_run, ecc));
}

} // namespace
} // namespace bvf::core
