/**
 * @file
 * Application specifications: the 58-application evaluation suite.
 *
 * Each AppSpec captures, per benchmark, the knobs that matter to the BVF
 * study: value statistics (ValueProfile), instruction mix, memory access
 * behaviour and launch geometry. The specs are synthetic stand-ins for
 * the paper's CUDA benchmarks (Rodinia, Parboil, CUDA SDK, SHOC,
 * Lonestar, Polybench and the GPGPU-Sim suite); names and the memory- vs
 * compute-intensive split follow the paper's Figures 18/19.
 */

#ifndef BVF_WORKLOAD_APP_SPEC_HH
#define BVF_WORKLOAD_APP_SPEC_HH

#include <string>
#include <vector>

#include "workload/value_model.hh"

namespace bvf::workload
{

/** Which benchmark suite an application belongs to. */
enum class Suite
{
    Rodinia,
    Parboil,
    CudaSdk,
    Shoc,
    Lonestar,
    Polybench,
    GpgpuSim,
};

/** Display name, e.g. "Rodinia". */
std::string suiteName(Suite suite);

/** Per-iteration instruction mix of the generated kernel loop body. */
struct InstrMix
{
    int globalLoads = 2;    //!< LDG per loop iteration
    int globalStores = 1;   //!< STG per loop iteration
    int sharedOps = 0;      //!< LDS+STS pairs per iteration
    int constantLoads = 0;  //!< LDC per iteration
    int textureLoads = 0;   //!< LDT per iteration
    int fpOps = 6;          //!< FFMA/FADD/FMUL chain length
    int intOps = 3;         //!< integer ALU ops
};

/** Global-memory access pattern of the generated loads/stores. */
enum class AccessPattern
{
    Coalesced, //!< lane i touches element warp_base + i
    Strided,   //!< lane i touches element (warp_base + i) * stride
    Random,    //!< lane i touches a hashed element
};

/** One benchmark application. */
struct AppSpec
{
    std::string name;   //!< full benchmark name, e.g. "atax"
    std::string abbr;   //!< figure abbreviation, e.g. "ATA"
    Suite suite = Suite::Polybench;

    ValueProfile values;
    InstrMix mix;
    AccessPattern pattern = AccessPattern::Coalesced;
    int stride = 1;              //!< element stride for Strided
    double divergenceProb = 0.1; //!< P(loop body contains a divergent if)
    int gridBlocks = 12;
    int blockThreads = 128;
    int loopIters = 6;
    bool memoryIntensive = false; //!< paper's Fig 18 classification

    /**
     * Extra entropy folded into seed(). Zero (the default) keeps the
     * historical per-name seed; campaign::CampaignRunner bumps it to
     * retry a failed application with fresh value/divergence draws.
     */
    std::uint64_t seedSalt = 0;

    /** Deterministic per-app seed derived from the name and seedSalt. */
    std::uint64_t seed() const;
};

/** The full 58-application suite, in figure order. */
const std::vector<AppSpec> &evaluationSuite();

/** Look up an application by abbreviation; fatals if missing. */
const AppSpec &findApp(const std::string &abbr);

/**
 * Resolve command-line application names: "all" expands to the suite,
 * anything else goes through findApp, and a repeated application is
 * dropped with a warning.
 */
std::vector<AppSpec> resolveApps(const std::vector<std::string> &names);

} // namespace bvf::workload

#endif // BVF_WORKLOAD_APP_SPEC_HH
