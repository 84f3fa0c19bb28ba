/**
 * @file
 * Evaluation config implementation.
 */

#include "core/eval_config.hh"

#include "fault/fault_model.hh"

namespace bvf::core
{

gpu::GpuConfig
EvalConfig::machine() const
{
    gpu::GpuConfig config = gpu::baselineConfig();
    config.arch = arch;
    config.scheduler = sched;
    return config;
}

namespace
{

/** Flip probability of a read of a stored 0 (non-zero for BVF-6T). */
double
readDisturbRate(const EvalConfig &c)
{
    return fault::readDisturbFlipProbability(c.cell, c.node, c.pstate.vdd,
                                             c.cellsBitline);
}

} // namespace

RunOptions
EvalConfig::runOptions(double softErrorRate, std::uint64_t faultSeed) const
{
    RunOptions run;
    run.dynamicIsa = dynamicIsa;
    run.vsRegisterPivot = pivot;
    run.fault.seed = faultSeed;
    run.fault.softErrorRate = softErrorRate;
    run.fault.readDisturbRate = readDisturbRate(*this);
    run.fault.ecc =
        ecc ? fault::EccScheme::Secded72_64 : fault::EccScheme::None;
    run.fault.enabled =
        softErrorRate > 0.0 || run.fault.readDisturbRate > 0.0;
    return run;
}

Pricing
EvalConfig::pricing() const
{
    Pricing pricing;
    pricing.node = node;
    pricing.pstate = pstate;
    pricing.cellKind = cell;
    pricing.ecc = ecc;
    pricing.cellsPerBitline = cellsBitline;
    pricing.allowUnreliableCells = readDisturbRate(*this) > 0.0;
    return pricing;
}

bool
parseEvalFlag(cli::ArgStream &args, const std::string &flag,
              EvalConfig &config)
{
    if (flag == "--arch")
        config.arch = parseSpelling(flag, args.value(flag), kArchSpellings);
    else if (flag == "--sched")
        config.sched = parseSpelling(flag, args.value(flag), kSchedSpellings);
    else if (flag == "--pivot")
        config.pivot = cli::parseInteger(flag, args.value(flag), 0,
                                         EvalConfig::maxPivot);
    else if (flag == "--dynamic-isa")
        config.dynamicIsa = true;
    else if (flag == "--node")
        config.node = parseSpelling(flag, args.value(flag), kNodeSpellings);
    else if (flag == "--pstate")
        config.pstate =
            parseSpelling(flag, args.value(flag), kPStateSpellings)();
    else if (flag == "--cell")
        config.cell = parseSpelling(flag, args.value(flag), kCellSpellings);
    else if (flag == "--ecc")
        config.ecc = true;
    else if (flag == "--cells-bitline")
        config.cellsBitline = cli::parseInteger(
            flag, args.value(flag), 1, Pricing::maxCellsPerBitline);
    else
        return false;
    return true;
}

std::string
evalUsage(std::string_view indent)
{
    // Appended in steps, as in Error::describe.
    std::string out;
    auto choice = [&out](std::string_view flag, const auto &table,
                         std::string_view then) {
        out += "[";
        out += flag;
        out += " ";
        out += spellingList(table, "|");
        out += "]";
        out += then;
    };
    std::string nl = "\n";
    nl += indent;
    choice("--node", kNodeSpellings, " ");
    choice("--pstate", kPStateSpellings, " ");
    choice("--sched", kSchedSpellings, nl);
    choice("--cell", kCellSpellings, " ");
    choice("--arch", kArchSpellings, nl);
    out += "[--pivot N] [--dynamic-isa] [--ecc] [--cells-bitline N]";
    return out;
}

} // namespace bvf::core
