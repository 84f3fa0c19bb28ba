/**
 * @file
 * Experiment driver implementation.
 */

#include "core/experiment.hh"

#include "common/logging.hh"
#include "core/static_check.hh"
#include "core/trace.hh"
#include "workload/kernel_builder.hh"

namespace bvf::core
{

using coder::Scenario;
using coder::UnitId;

ExperimentDriver::ExperimentDriver(gpu::GpuConfig config)
    : config_(std::move(config))
{
}

std::map<UnitId, std::uint64_t>
ExperimentDriver::unitCapacities() const
{
    const auto sms = static_cast<std::uint64_t>(config_.numSms);
    std::map<UnitId, std::uint64_t> caps;
    caps[UnitId::Reg] = sms * config_.regFileBytes * 8;
    caps[UnitId::Sme] = sms * config_.sharedMemBytes * 8;
    caps[UnitId::L1D] = sms * config_.l1dBytes * 8;
    caps[UnitId::L1I] = sms * config_.l1iBytes * 8;
    caps[UnitId::L1C] = sms * config_.l1cBytes * 8;
    caps[UnitId::L1T] = sms * config_.l1tBytes * 8;
    caps[UnitId::Ifb] =
        sms * static_cast<std::uint64_t>(config_.maxWarpsPerSm) * 64 * 8;
    caps[UnitId::L2] =
        static_cast<std::uint64_t>(config_.l2TotalBytes()) * 8;
    return caps;
}

AppRun
ExperimentDriver::runApp(const workload::AppSpec &spec,
                         const RunOptions &options) const
{
    AppRun run = runProgram(workload::buildProgram(spec), options);
    run.name = spec.name;
    run.abbr = spec.abbr;
    run.memoryIntensive = spec.memoryIntensive;
    return run;
}

AppRun
ExperimentDriver::runProgram(isa::Program program,
                             const RunOptions &options) const
{
    AppRun run;
    run.name = program.name;
    run.abbr = program.name;
    const std::string label = program.name.empty() ? "kernel"
                                                   : program.name;

    AccountantOptions opts;
    opts.arch = config_.arch;
    opts.vsRegisterPivot = options.vsRegisterPivot;
    opts.eccAccounting = options.fault.ecc == fault::EccScheme::Secded72_64;
    if (options.dynamicIsa) {
        // The "assembler" profiles this binary and programs the mask
        // register at launch (Section 4.3, dynamic method).
        opts.dynamicIsaMask =
            isa::kernelPreferenceMask(config_.arch, program.body);
    }
    run.accountant = std::make_shared<EnergyAccountant>(unitCapacities(),
                                                        opts);

    // The static report must be built before the program is moved into
    // the machine; the knobs must mirror the accountant's exactly or the
    // proven intervals would describe a different encoding.
    std::optional<StaticReport> staticReport;
    if (options.checkStatic) {
        fatal_if(options.fault.anyFaults(),
                 "--check-static is incompatible with fault injection");
        fatal_if(opts.eccAccounting,
                 "--check-static is incompatible with ECC accounting");
        staticReport =
            analyzeStatic(program, config_, run.accountant->isaMask());
    }

    // The fault layer sits between the machine and the accountant, so
    // the accountant prices what a faulty array would actually deliver.
    // With faults disabled no layer is inserted and the access stream
    // is untouched.
    sram::AccessSink *sink = run.accountant.get();
    if (options.fault.anyFaults()) {
        run.faults = std::make_shared<fault::FaultSink>(*run.accountant,
                                                        options.fault);
        sink = run.faults.get();
    }
    std::optional<TeeSink> tapped;
    if (options.tap) {
        tapped.emplace(*sink, *options.tap);
        sink = &*tapped;
    }

    gpu::Gpu machine(config_, std::move(program), *sink);
    machine.setCancellation(options.cancel);
    if (options.probe)
        machine.setExecProbe(options.probe);
    if (options.uniformDispatch)
        machine.setUniformDispatch(true);
    run.gpuStats = machine.run();
    run.accountant->finalize(run.gpuStats.cycles);

    if (staticReport) {
        const auto violations = crossCheckRun(*staticReport,
                                              *run.accountant);
        for (const std::string &v : violations)
            warn("%s: %s", label.c_str(), v.c_str());
        fatal_if(!violations.empty(),
                 "static cross-check failed for %s: %zu observed ratios "
                 "escaped their proven intervals",
                 label.c_str(), violations.size());
        run.staticPrediction = std::move(staticReport->prediction);
    }
    return run;
}

Result<AppRun>
ExperimentDriver::runProgramChecked(isa::Program program,
                                    const RunOptions &options) const
{
    return trapFatal([&] { return runProgram(std::move(program), options); },
                     options.cancel);
}

Result<AppRun>
ExperimentDriver::runAppChecked(const workload::AppSpec &spec,
                                const RunOptions &options) const
{
    return trapFatal([&] { return runApp(spec, options); }, options.cancel);
}

std::vector<AppRun>
ExperimentDriver::runSuite(std::span<const workload::AppSpec> apps,
                           const RunOptions &options) const
{
    std::vector<AppRun> runs;
    runs.reserve(apps.size());
    for (const workload::AppSpec &spec : apps) {
        inform("simulating %s (%s)", spec.name.c_str(), spec.abbr.c_str());
        runs.push_back(runApp(spec, options));
    }
    return runs;
}

AppEnergy
ExperimentDriver::evaluate(const AppRun &run, const Pricing &pricing) const
{
    // Check bits change the stored 0/1 mix, so SECDED arrays priced
    // over a stream that never accounted them would be silently wrong.
    fatal_if(pricing.ecc != run.accountant->eccAccounting(),
             "%s: Pricing::ecc (%d) must match the run's SECDED check-bit "
             "accounting, RunOptions::fault.ecc (%d)",
             run.abbr.c_str(), pricing.ecc ? 1 : 0,
             run.accountant->eccAccounting() ? 1 : 0);
    power::ChipModelOptions array_opts;
    array_opts.ecc = pricing.ecc;
    array_opts.cellsPerBitline = pricing.cellsPerBitline;
    array_opts.allowUnreliableCells = pricing.allowUnreliableCells;
    power::ChipPowerModel model(pricing.node, pricing.pstate.vdd,
                                pricing.pstate.frequency, pricing.cellKind,
                                config_, array_opts);
    AppEnergy out;
    out.abbr = run.abbr;
    out.memoryIntensive = run.memoryIntensive;
    for (const Scenario s : coder::allScenarios) {
        const auto &noc = run.accountant->noc(s);
        out.byScenario[static_cast<std::size_t>(coder::scenarioIndex(s))] =
            model.evaluate(run.accountant->unitStats(s), noc.toggles,
                           noc.flits, run.gpuStats,
                           s != Scenario::Baseline);
    }
    return out;
}

std::vector<AppEnergy>
ExperimentDriver::evaluate(const std::vector<AppRun> &runs,
                           const Pricing &pricing) const
{
    std::vector<AppEnergy> out;
    out.reserve(runs.size());
    for (const AppRun &run : runs)
        out.push_back(evaluate(run, pricing));
    return out;
}

double
ExperimentDriver::meanChipRatio(const std::vector<AppEnergy> &energies,
                                Scenario scenario)
{
    fatal_if(energies.empty(), "no energies to average");
    double sum = 0.0;
    for (const AppEnergy &e : energies) {
        sum += e.at(scenario).chipTotal()
               / e.at(Scenario::Baseline).chipTotal();
    }
    return sum / static_cast<double>(energies.size());
}

double
ExperimentDriver::meanBvfUnitsRatio(const std::vector<AppEnergy> &energies,
                                    Scenario scenario)
{
    fatal_if(energies.empty(), "no energies to average");
    double sum = 0.0;
    for (const AppEnergy &e : energies) {
        sum += e.at(scenario).bvfUnitsTotal()
               / e.at(Scenario::Baseline).bvfUnitsTotal();
    }
    return sum / static_cast<double>(energies.size());
}

} // namespace bvf::core
