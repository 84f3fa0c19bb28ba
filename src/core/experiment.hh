/**
 * @file
 * Experiment driver: run applications through the GPU model and produce
 * per-scenario energy reports.
 *
 * One runApp() call simulates an application once and accounts all five
 * scenarios; evaluate() then prices the statistics under any
 * (technology node, P-state, cell family) combination without
 * re-simulating -- exactly how the paper derives Figures 16-23 from one
 * set of GPGPU-Sim traces.
 */

#ifndef BVF_CORE_EXPERIMENT_HH
#define BVF_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/predictor.hh"
#include "common/cancel.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "core/accountant.hh"
#include "fault/fault_sink.hh"
#include "gpu/gpu.hh"
#include "power/chip_model.hh"
#include "workload/app_spec.hh"

namespace bvf::core
{

/** One application's simulation outcome (scenario-independent parts). */
struct AppRun
{
    std::string name;
    std::string abbr;
    bool memoryIntensive = false;
    gpu::GpuStats gpuStats;
    std::shared_ptr<EnergyAccountant> accountant;

    /** Fault-injection layer; null when the run was fault-free. */
    std::shared_ptr<fault::FaultSink> faults;

    /**
     * The static density prediction the run was cross-checked against
     * (RunOptions::checkStatic); empty when no check ran.
     */
    std::optional<analysis::StaticPrediction> staticPrediction;
};

/** Per-scenario chip energy for one app under one pricing. */
struct AppEnergy
{
    std::string abbr;
    bool memoryIntensive = false;
    std::array<power::ChipEnergy, coder::numScenarios> byScenario;

    const power::ChipEnergy &
    at(coder::Scenario s) const
    {
        return byScenario[static_cast<std::size_t>(
            coder::scenarioIndex(s))];
    }

    /** chipTotal() of every scenario, in scenarioIndex order. */
    std::array<double, coder::numScenarios>
    chipTotals() const
    {
        std::array<double, coder::numScenarios> out{};
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = byScenario[i].chipTotal();
        return out;
    }

    /** bvfUnitsTotal() of every scenario, in scenarioIndex order. */
    std::array<double, coder::numScenarios>
    bvfUnitsTotals() const
    {
        std::array<double, coder::numScenarios> out{};
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = byScenario[i].bvfUnitsTotal();
        return out;
    }
};

/** Pricing configuration: where and how energy is evaluated. */
struct Pricing
{
    circuit::TechNode node = circuit::TechNode::N28;
    gpu::PState pstate = {700.0e6, 1.2, "700MHz@1.2V"};
    circuit::CellKind cellKind = circuit::CellKind::SramBvf8T;

    /**
     * Price SECDED(72,64) storage. Must match the run's accounting
     * (RunOptions::fault.ecc); ExperimentDriver::evaluate checks it.
     */
    bool ecc = false;

    /** Bitline length of every BVF array (Table 3 machine: 128). */
    int cellsPerBitline = 128;

    /** Longest bitline any front end or wire request may ask for. */
    static constexpr int maxCellsPerBitline = 8192;

    /** Price BVF-6T arrays past their reliability limit (fault study). */
    bool allowUnreliableCells = false;
};

/** Per-run simulation knobs. */
struct RunOptions
{
    /**
     * Use a per-application ISA mask extracted from this kernel's
     * binary (Section 4.3 "dynamic" variant) instead of the static
     * Table 2 mask.
     */
    bool dynamicIsa = false;

    /** VS lane pivot at the register file (paper default: 21). */
    int vsRegisterPivot = coder::VsCoder::defaultRegisterPivot;

    /**
     * Fault injection + ECC. When fault.ecc is SECDED the accountant
     * also prices the check bits (they change the stored 0/1 mix).
     * The all-defaults config changes nothing: no FaultSink is
     * inserted and accounted numbers stay bit-identical.
     */
    fault::FaultConfig fault;

    /**
     * Cooperative watchdog token polled inside the GPU cycle loop
     * (null = never cancelled). Kept by pointer: the caller owns the
     * token and arms its deadline per attempt.
     */
    const CancelToken *cancel = nullptr;

    /**
     * After the run, cross-check the accountant's encoded bit
     * statistics against the static density predictor and fatal() on
     * any observed ratio outside its proven interval. Incompatible
     * with fault injection and ECC accounting: both perturb the bit
     * stream beyond what the static model covers.
     */
    bool checkStatic = false;

    /**
     * Issue-observation probe installed on every SM for this run
     * (null = none). The submitted-kernel path uses it to enforce an
     * admission certificate (core/contract.hh) while the kernel runs.
     */
    gpu::ExecProbe *probe = nullptr;

    /**
     * Run the SMs' dispatch loop specialized for certified-uniform
     * control flow (Certificate::uniformControlFlow). Only legal when
     * the program's admission certificate carries that bit; results
     * (statistics and energy) are byte-identical either way, the run
     * is just faster.
     */
    bool uniformDispatch = false;

    /**
     * Observer of the machine's raw access stream (null = none): it
     * receives every event the machine emits, before the fault layer,
     * alongside the accountant. bvf_sim hangs its trace writer and its
     * pivot sweep here.
     */
    sram::AccessSink *tap = nullptr;
};

/**
 * Run @p body with fatal() trapped: a fatal() or std::exception raised
 * inside it comes back as an Error instead of ending the process.
 * The code is ErrorCode::Timeout when @p cancel has expired (a watchdog
 * stopped the run) and ErrorCode::Failed otherwise, so callers can tell
 * a hang from a broken configuration.
 */
template <typename Fn>
Result<std::invoke_result_t<Fn &>>
trapFatal(Fn &&body, const CancelToken *cancel = nullptr)
{
    try {
        ScopedFatalTrap trap;
        return body();
    } catch (const std::exception &e) { // FatalError is one too
        const bool timed_out = cancel && cancel->expired();
        return Error{timed_out ? ErrorCode::Timeout : ErrorCode::Failed,
                     e.what()};
    }
}

/**
 * Runs applications and prices their energy.
 */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(gpu::GpuConfig config);

    /** Simulate one application (all scenarios accounted). */
    AppRun runApp(const workload::AppSpec &spec,
                  const RunOptions &options = {}) const;

    /**
     * Single fail-soft attempt at one application: trapFatal(runApp)
     * with options.cancel as the watchdog token.
     */
    Result<AppRun> runAppChecked(const workload::AppSpec &spec,
                                 const RunOptions &options = {}) const;

    /**
     * Simulate an already-built kernel. This is the only simulation
     * entry point for programs that did not come out of the trusted
     * kernel builder (bytecode submissions, assembled text); callers
     * must gate it behind analysis::verifyProgram and should install a
     * ContractProbe via options.probe so the certificate is enforced.
     */
    AppRun runProgram(isa::Program program,
                      const RunOptions &options = {}) const;

    /** Fail-soft runProgram: fatal() becomes a structured Error. */
    Result<AppRun> runProgramChecked(isa::Program program,
                                     const RunOptions &options = {}) const;

    /**
     * Simulate @p apps in order, a plain map over runApp: the first app
     * that fails is fatal(), since a skipped app would silently move
     * the suite mean a figure prints. Isolating a broken app, with
     * reseeded retries, is campaign::CampaignRunner's job.
     */
    std::vector<AppRun> runSuite(
        std::span<const workload::AppSpec> apps = workload::evaluationSuite(),
        const RunOptions &options = {}) const;

    /**
     * Price one run under @p pricing; fatal() when pricing.ecc
     * disagrees with whether the run accounted SECDED check bits.
     */
    AppEnergy evaluate(const AppRun &run, const Pricing &pricing) const;

    /** Price a set of runs. */
    std::vector<AppEnergy> evaluate(const std::vector<AppRun> &runs,
                                    const Pricing &pricing) const;

    /**
     * Suite-mean relative chip energy of @p scenario vs baseline
     * (e.g. 0.79 => 21% reduction).
     */
    static double meanChipRatio(const std::vector<AppEnergy> &energies,
                                coder::Scenario scenario);

    /** Suite-mean relative energy over the BVF units only. */
    static double meanBvfUnitsRatio(const std::vector<AppEnergy> &energies,
                                    coder::Scenario scenario);

    const gpu::GpuConfig &config() const { return config_; }

    /** Unit capacities of the configured machine [bits]. */
    std::map<coder::UnitId, std::uint64_t> unitCapacities() const;

  private:
    gpu::GpuConfig config_;
};

} // namespace bvf::core

#endif // BVF_CORE_EXPERIMENT_HH
