/**
 * @file
 * The evaluation config: the nine knobs every front end shares (arch,
 * scheduler, VS pivot, dynamic ISA, node, P-state, cell, ECC, cells per
 * bitline), their command-line spellings, and the one mapping from them
 * to the GpuConfig, RunOptions and Pricing an evaluation uses. bvf_sim,
 * the daemon's handler and the fleet campaign all use this mapping, so
 * a fleet worker runs exactly the config its coordinator digests. The
 * wire indices live in server/protocol.hh, whose range checks take
 * their bounds from the tables here.
 */

#ifndef BVF_CORE_EVAL_CONFIG_HH
#define BVF_CORE_EVAL_CONFIG_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/mem_cell.hh"
#include "circuit/technology.hh"
#include "common/cli.hh"
#include "core/experiment.hh"
#include "gpu/gpu_config.hh"
#include "isa/encoding.hh"

namespace bvf::core
{

/** One command-line spelling of an enumerated knob's value. */
template <typename T>
struct Spelling
{
    std::string_view name;
    T value;
};

// Each enumerated knob's spellings, in the order diagnostics list them.
inline constexpr std::array<Spelling<isa::GpuArch>, 4> kArchSpellings{{
    {"fermi", isa::GpuArch::Fermi},
    {"kepler", isa::GpuArch::Kepler},
    {"maxwell", isa::GpuArch::Maxwell},
    {"pascal", isa::GpuArch::Pascal},
}};

inline constexpr std::array<Spelling<gpu::SchedulerPolicy>, 3>
    kSchedSpellings{{
        {"gto", gpu::SchedulerPolicy::Gto},
        {"lrr", gpu::SchedulerPolicy::Lrr},
        {"two", gpu::SchedulerPolicy::TwoLevel},
    }};

inline constexpr std::array<Spelling<circuit::TechNode>, 2> kNodeSpellings{{
    {"28", circuit::TechNode::N28},
    {"40", circuit::TechNode::N40},
}};

/** P-states have no enum; each spelling names its accessor. */
inline constexpr std::array<Spelling<const gpu::PState &(*)()>, 3>
    kPStateSpellings{{
        {"700", &gpu::pstateNominal},
        {"500", &gpu::pstateMid},
        {"300", &gpu::pstateLow},
    }};

inline constexpr std::array<Spelling<circuit::CellKind>, 5> kCellSpellings{{
    {"bvf8t", circuit::CellKind::SramBvf8T},
    {"bvf6t", circuit::CellKind::SramBvf6T},
    {"8t", circuit::CellKind::Sram8T},
    {"6t", circuit::CellKind::Sram6T},
    {"edram", circuit::CellKind::Edram3T},
}};

/** The value spelled @p name in @p table, if any. */
template <typename T, std::size_t N>
std::optional<T>
findSpelling(const std::array<Spelling<T>, N> &table, std::string_view name)
{
    for (const Spelling<T> &s : table) {
        if (s.name == name)
            return s.value;
    }
    return std::nullopt;
}

/** The spellings of @p table joined by @p separator. */
template <typename T, std::size_t N>
std::string
spellingList(const std::array<Spelling<T>, N> &table,
             std::string_view separator)
{
    std::string out;
    for (const Spelling<T> &s : table) {
        if (!out.empty())
            out += separator;
        out += s.name;
    }
    return out;
}

/** The value spelled @p value, or cli::badChoice naming @p table. */
template <typename T, std::size_t N>
T
parseSpelling(const std::string &flag, const std::string &value,
              const std::array<Spelling<T>, N> &table)
{
    if (const auto found = findSpelling(table, value))
        return *found;
    cli::badChoice(flag, value, spellingList(table, ", ").c_str());
}

/** The nine shared knobs. Defaults are the paper's Table 3 machine. */
struct EvalConfig
{
    isa::GpuArch arch = isa::GpuArch::Pascal;
    gpu::SchedulerPolicy sched = gpu::SchedulerPolicy::Gto;
    int pivot = coder::VsCoder::defaultRegisterPivot;
    bool dynamicIsa = false;
    circuit::TechNode node = circuit::TechNode::N28;
    gpu::PState pstate = gpu::pstateNominal();
    circuit::CellKind cell = circuit::CellKind::SramBvf8T;
    bool ecc = false;
    int cellsBitline = 128;

    /** Highest VS pivot lane any front end or wire request may ask for. */
    static constexpr int maxPivot = 31;

    /** The baseline machine with this arch and scheduler. */
    gpu::GpuConfig machine() const;

    /**
     * Run options. ECC accounts SECDED check bits; the derived read
     * disturb plus @p softErrorRate arm fault injection seeded with
     * @p faultSeed (bvf_sim's --fault-rate and --fault-seed).
     */
    RunOptions runOptions(double softErrorRate = 0.0,
                          std::uint64_t faultSeed = 1) const;

    /** Pricing; a modelled read disturb licenses unreliable cells. */
    Pricing pricing() const;
};

/**
 * If @p flag is one of the nine knobs, consume its value from @p args
 * into @p config and return true (a bad value throws cli::UsageError);
 * otherwise consume nothing and return false.
 */
bool parseEvalFlag(cli::ArgStream &args, const std::string &flag,
                   EvalConfig &config);

/** Usage lines for the nine knobs; lines after the first get @p indent. */
std::string evalUsage(std::string_view indent);

} // namespace bvf::core

#endif // BVF_CORE_EVAL_CONFIG_HH
