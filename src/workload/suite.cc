/**
 * @file
 * The 58-application evaluation suite.
 *
 * Parameter choices are synthetic but follow each benchmark's public
 * character: graph codes (BFS, SSSP) are integer-heavy, divergent and
 * random-access; dense linear algebra (GEMM, SYRK, ATAX) is float-heavy,
 * coalesced and streaming; stencils sit in between; the memoryIntensive
 * flag matches the paper's Figure 18/19 narrative (ATA, BFS, BIC, CON,
 * COR, GES, SYK, SYR, MD save the most; BLA, CP, DXT, LIB, NQU, PAT,
 * SGE the least).
 */

#include "workload/app_spec.hh"

#include "common/logging.hh"

namespace bvf::workload
{

std::string
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::Rodinia:
        return "Rodinia";
      case Suite::Parboil:
        return "Parboil";
      case Suite::CudaSdk:
        return "SDK";
      case Suite::Shoc:
        return "SHOC";
      case Suite::Lonestar:
        return "Lonestar";
      case Suite::Polybench:
        return "Polybench";
      case Suite::GpgpuSim:
        return "GPGPU-Sim";
    }
    panic("unknown suite");
}

std::uint64_t
AppSpec::seed() const
{
    // FNV-1a over the name, salted so reseeding the suite is explicit.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    // seedSalt perturbs every bit so a retry-with-reseed redraws the
    // whole value stream, not a shifted copy of it.
    if (seedSalt != 0)
        h ^= (seedSalt + 0x9e3779b97f4a7c15ull) * 0xff51afd7ed558ccdull;
    return h ^ 0xb5f0ull;
}

namespace
{

/** Convenience builder so the table below stays readable. */
struct SpecBuilder
{
    AppSpec s;

    SpecBuilder(std::string name, std::string abbr, Suite suite)
    {
        s.name = std::move(name);
        s.abbr = std::move(abbr);
        s.suite = suite;
    }

    // Value-statistics knobs.
    SpecBuilder &zero(double p) { s.values.zeroValueProb = p; return *this; }
    SpecBuilder &flt(double f) { s.values.floatFraction = f; return *this; }
    SpecBuilder &narrow(double p) { s.values.narrowGeomP = p; return *this; }
    SpecBuilder &neg(double p) { s.values.negativeProb = p; return *this; }
    SpecBuilder &outlier(double p)
    {
        s.values.laneOutlierProb = p;
        return *this;
    }
    SpecBuilder &centre(int lane) { s.values.pivotCentre = lane; return *this; }

    // Kernel-shape knobs.
    SpecBuilder &
    mix(int ldg, int stg, int fp, int iops)
    {
        s.mix.globalLoads = ldg;
        s.mix.globalStores = stg;
        s.mix.fpOps = fp;
        s.mix.intOps = iops;
        return *this;
    }
    SpecBuilder &shared(int pairs) { s.mix.sharedOps = pairs; return *this; }
    SpecBuilder &cmem(int n) { s.mix.constantLoads = n; return *this; }
    SpecBuilder &tex(int n) { s.mix.textureLoads = n; return *this; }
    SpecBuilder &pattern(AccessPattern p) { s.pattern = p; return *this; }
    SpecBuilder &stride(int n) { s.stride = n; return *this; }
    SpecBuilder &div(double p) { s.divergenceProb = p; return *this; }
    SpecBuilder &
    launch(int blocks, int threads, int iters)
    {
        s.gridBlocks = blocks;
        s.blockThreads = threads;
        s.loopIters = iters;
        return *this;
    }
    SpecBuilder &memBound() { s.memoryIntensive = true; return *this; }

    operator AppSpec() const { return s; }
};

std::vector<AppSpec>
buildSuite()
{
    using enum AccessPattern;
    std::vector<AppSpec> apps;

    auto add = [&apps](const SpecBuilder &b) { apps.push_back(b); };

    // ------------------------------------------------------- Rodinia --
    add(SpecBuilder("backprop", "BCK", Suite::Rodinia)
            .zero(0.154).flt(0.75).mix(3, 1, 8, 3).shared(2)
            .launch(40, 128, 5).div(0.05));
    add(SpecBuilder("bfs", "BFS", Suite::Rodinia)
            .zero(0.315).flt(0.0).narrow(0.085).mix(4, 1, 0, 6)
            .pattern(Random).div(0.45).launch(48, 128, 5)
            .outlier(0.16).memBound());
    add(SpecBuilder("b+tree", "BTR", Suite::Rodinia)
            .zero(0.210).flt(0.0).narrow(0.060).mix(3, 1, 0, 7)
            .pattern(Random).div(0.30).launch(40, 128, 5));
    add(SpecBuilder("cfd", "CFD", Suite::Rodinia)
            .zero(0.084).flt(0.85).mix(4, 2, 10, 2)
            .launch(40, 128, 5).div(0.08));
    add(SpecBuilder("gaussian", "GAU", Suite::Rodinia)
            .zero(0.175).flt(0.70).mix(3, 1, 6, 3)
            .launch(32, 128, 6).div(0.10));
    add(SpecBuilder("heartwall", "HWL", Suite::Rodinia)
            .zero(0.126).flt(0.60).mix(3, 1, 8, 4).tex(2)
            .launch(32, 128, 5).div(0.15));
    add(SpecBuilder("hotspot", "HSP", Suite::Rodinia)
            .zero(0.105).flt(0.80).mix(3, 1, 9, 3).shared(2)
            .launch(40, 128, 5).div(0.06));
    add(SpecBuilder("kmeans", "KMN", Suite::Rodinia)
            .zero(0.140).flt(0.55).mix(4, 1, 6, 4).cmem(1)
            .launch(40, 128, 5).div(0.12));
    add(SpecBuilder("lavaMD", "MD", Suite::Rodinia)
            .zero(0.098).flt(0.72).mix(5, 2, 9, 3).shared(4)
            .launch(48, 128, 6).div(0.10).memBound());
    add(SpecBuilder("lud", "LUD", Suite::Rodinia)
            .zero(0.168).flt(0.68).mix(3, 1, 7, 3).shared(2)
            .launch(32, 128, 5).div(0.08));
    add(SpecBuilder("nn", "NN", Suite::Rodinia)
            .zero(0.140).flt(0.65).mix(3, 1, 5, 3)
            .launch(32, 96, 5).div(0.05));
    add(SpecBuilder("nw", "NW", Suite::Rodinia)
            .zero(0.245).flt(0.0).narrow(0.075).mix(3, 1, 0, 7).shared(2)
            .launch(32, 128, 5).div(0.20).centre(19));
    add(SpecBuilder("pathfinder", "PAT", Suite::Rodinia)
            .zero(0.196).flt(0.0).narrow(0.070).mix(2, 1, 0, 9).shared(2)
            .launch(32, 128, 7).div(0.22));
    add(SpecBuilder("srad", "SRD", Suite::Rodinia)
            .zero(0.112).flt(0.78).mix(4, 1, 8, 3)
            .launch(40, 128, 5).div(0.08));

    // ------------------------------------------------------- Parboil --
    add(SpecBuilder("cutcp", "CUT", Suite::Parboil)
            .zero(0.070).flt(0.85).mix(3, 1, 11, 2).cmem(1)
            .launch(32, 128, 6).div(0.06));
    add(SpecBuilder("histo", "HIS", Suite::Parboil)
            .zero(0.280).flt(0.0).narrow(0.090).mix(3, 2, 0, 6)
            .pattern(Random).div(0.25).launch(40, 128, 5).centre(23));
    add(SpecBuilder("lbm", "LBM", Suite::Parboil)
            .zero(0.070).flt(0.88).mix(5, 3, 10, 2)
            .launch(48, 128, 5).div(0.04));
    add(SpecBuilder("mri-q", "MRQ", Suite::Parboil)
            .zero(0.056).flt(0.90).mix(3, 1, 12, 2).cmem(2)
            .launch(32, 128, 6).div(0.03));
    add(SpecBuilder("sad", "SAD", Suite::Parboil)
            .zero(0.210).flt(0.0).narrow(0.100).mix(4, 1, 0, 8).tex(2)
            .launch(40, 128, 5).div(0.12));
    add(SpecBuilder("sgemm", "SGE", Suite::Parboil)
            .zero(0.070).flt(0.92).mix(2, 1, 14, 2).shared(4)
            .launch(40, 128, 8).div(0.02));
    add(SpecBuilder("spmv", "SPM", Suite::Parboil)
            .zero(0.245).flt(0.45).mix(4, 1, 4, 5)
            .pattern(Random).div(0.28).launch(40, 128, 5)
            .outlier(0.12));
    add(SpecBuilder("stencil", "STE", Suite::Parboil)
            .zero(0.098).flt(0.80).mix(5, 1, 8, 3)
            .launch(48, 128, 5).div(0.05));

    // ------------------------------------------------------ CUDA SDK --
    add(SpecBuilder("blackscholes", "BLA", Suite::CudaSdk)
            .zero(0.035).flt(0.95).mix(2, 2, 16, 1)
            .launch(40, 128, 7).div(0.02));
    add(SpecBuilder("convolutionSeparable", "CON", Suite::CudaSdk)
            .zero(0.140).flt(0.75).mix(5, 2, 7, 2).shared(4).cmem(1)
            .launch(48, 128, 6).div(0.03).memBound());
    add(SpecBuilder("dxtc", "DXT", Suite::CudaSdk)
            .zero(0.126).flt(0.30).narrow(0.085).mix(2, 1, 6, 8)
            .shared(2).launch(32, 128, 8).div(0.10));
    add(SpecBuilder("fastWalshTransform", "FWT", Suite::CudaSdk)
            .zero(0.154).flt(0.60).mix(3, 2, 5, 4).shared(4)
            .launch(40, 128, 5).div(0.04));
    add(SpecBuilder("matrixMul", "MMU", Suite::CudaSdk)
            .zero(0.084).flt(0.90).mix(2, 1, 12, 2).shared(4)
            .launch(40, 128, 7).div(0.02));
    add(SpecBuilder("mergeSort", "MGS", Suite::CudaSdk)
            .zero(0.182).flt(0.0).narrow(0.065).mix(3, 2, 0, 8).shared(2)
            .launch(40, 128, 5).div(0.25).centre(20));
    add(SpecBuilder("oceanFFT", "OFT", Suite::CudaSdk)
            .zero(0.070).flt(0.85).mix(3, 2, 9, 3).shared(2)
            .launch(40, 128, 5).div(0.03));
    add(SpecBuilder("imageDenoising", "IMD", Suite::CudaSdk)
            .zero(0.105).flt(0.70).mix(4, 1, 8, 3).tex(4)
            .launch(40, 128, 5).div(0.07));
    add(SpecBuilder("reduction", "RED", Suite::CudaSdk)
            .zero(0.196).flt(0.55).mix(4, 1, 3, 4).shared(4)
            .launch(48, 128, 5).div(0.10));
    add(SpecBuilder("scalarProd", "SCP", Suite::CudaSdk)
            .zero(0.105).flt(0.80).mix(4, 1, 6, 2).shared(2)
            .launch(40, 128, 5).div(0.03));
    add(SpecBuilder("scan", "SCN", Suite::CudaSdk)
            .zero(0.210).flt(0.40).mix(3, 2, 3, 5).shared(4)
            .launch(40, 128, 5).div(0.08));
    add(SpecBuilder("transpose", "TRA", Suite::CudaSdk)
            .zero(0.140).flt(0.60).mix(3, 3, 2, 4).shared(4)
            .pattern(Strided).stride(8).launch(48, 128, 5).div(0.02));

    // ---------------------------------------------------------- SHOC --
    add(SpecBuilder("fft", "FFT", Suite::Shoc)
            .zero(0.056).flt(0.88).mix(3, 2, 10, 3).shared(4)
            .launch(40, 128, 6).div(0.03));
    add(SpecBuilder("md", "MDS", Suite::Shoc)
            .zero(0.084).flt(0.75).mix(5, 1, 9, 3)
            .pattern(Random).launch(40, 128, 6).div(0.12));
    add(SpecBuilder("qtclustering", "QTC", Suite::Shoc)
            .zero(0.175).flt(0.50).mix(4, 1, 5, 5)
            .pattern(Random).div(0.30).launch(32, 128, 5)
            .outlier(0.14).centre(22));
    add(SpecBuilder("s3d", "S3D", Suite::Shoc)
            .zero(0.070).flt(0.86).mix(4, 2, 12, 2).cmem(1)
            .launch(40, 128, 5).div(0.05));
    add(SpecBuilder("sort", "SRT", Suite::Shoc)
            .zero(0.175).flt(0.0).narrow(0.070).mix(3, 3, 0, 7).shared(4)
            .launch(40, 128, 5).div(0.18));
    add(SpecBuilder("triad", "TRI", Suite::Shoc)
            .zero(0.105).flt(0.82).mix(3, 1, 3, 2)
            .launch(56, 128, 5).div(0.01));

    // ------------------------------------------------------ Lonestar --
    add(SpecBuilder("bfs-ls", "LBF", Suite::Lonestar)
            .zero(0.294).flt(0.0).narrow(0.085).mix(4, 1, 0, 6)
            .pattern(Random).div(0.40).launch(40, 128, 5)
            .outlier(0.18));
    add(SpecBuilder("barneshut", "BH", Suite::Lonestar)
            .zero(0.126).flt(0.65).mix(4, 1, 8, 4)
            .pattern(Random).div(0.35).launch(32, 128, 6)
            .outlier(0.15).centre(24));
    add(SpecBuilder("mst", "MST", Suite::Lonestar)
            .zero(0.266).flt(0.0).narrow(0.080).mix(4, 1, 0, 7)
            .pattern(Random).div(0.38).launch(32, 128, 5)
            .outlier(0.16));
    add(SpecBuilder("sp", "SP", Suite::Lonestar)
            .zero(0.252).flt(0.10).narrow(0.075).mix(3, 1, 1, 6)
            .pattern(Random).div(0.32).launch(32, 128, 5));
    add(SpecBuilder("sssp", "SSP", Suite::Lonestar)
            .zero(0.280).flt(0.0).narrow(0.080).mix(4, 1, 0, 6)
            .pattern(Random).div(0.42).launch(40, 128, 5)
            .outlier(0.17).centre(22));

    // ----------------------------------------------------- Polybench --
    add(SpecBuilder("atax", "ATA", Suite::Polybench)
            .zero(0.210).flt(0.65).mix(5, 1, 5, 2)
            .launch(48, 128, 6).div(0.02).memBound());
    add(SpecBuilder("bicg", "BIC", Suite::Polybench)
            .zero(0.210).flt(0.65).mix(5, 1, 5, 2)
            .launch(48, 128, 6).div(0.02).memBound().centre(20));
    add(SpecBuilder("correlation", "COR", Suite::Polybench)
            .zero(0.182).flt(0.70).mix(5, 1, 6, 2)
            .launch(48, 128, 6).div(0.03).memBound());
    add(SpecBuilder("covariance", "COV", Suite::Polybench)
            .zero(0.182).flt(0.70).mix(5, 1, 6, 2)
            .launch(48, 128, 6).div(0.03));
    add(SpecBuilder("gemm", "GEM", Suite::Polybench)
            .zero(0.084).flt(0.90).mix(3, 1, 12, 2).shared(2)
            .launch(40, 128, 7).div(0.02));
    add(SpecBuilder("gesummv", "GES", Suite::Polybench)
            .zero(0.224).flt(0.60).mix(6, 1, 4, 2)
            .launch(48, 128, 6).div(0.02).memBound());
    add(SpecBuilder("mvt", "MVT", Suite::Polybench)
            .zero(0.196).flt(0.65).mix(5, 1, 4, 2)
            .launch(48, 128, 6).div(0.02));
    add(SpecBuilder("syrk", "SYR", Suite::Polybench)
            .zero(0.196).flt(0.70).mix(5, 2, 6, 2)
            .launch(48, 128, 6).div(0.02).memBound());
    add(SpecBuilder("syr2k", "SYK", Suite::Polybench)
            .zero(0.196).flt(0.70).mix(6, 2, 6, 2)
            .launch(48, 128, 6).div(0.02).memBound());
    add(SpecBuilder("2dconv", "2DC", Suite::Polybench)
            .zero(0.154).flt(0.75).mix(5, 1, 7, 2)
            .launch(48, 128, 5).div(0.03));

    // ----------------------------------------------------- GPGPU-Sim --
    add(SpecBuilder("cp", "CP", Suite::GpgpuSim)
            .zero(0.056).flt(0.90).mix(2, 1, 14, 2).cmem(1)
            .launch(32, 128, 8).div(0.02));
    add(SpecBuilder("lib", "LIB", Suite::GpgpuSim)
            .zero(0.070).flt(0.85).mix(2, 1, 12, 3)
            .launch(32, 128, 8).div(0.05));
    add(SpecBuilder("nqu", "NQU", Suite::GpgpuSim)
            .zero(0.210).flt(0.0).narrow(0.080).mix(1, 1, 0, 12)
            .div(0.35).launch(24, 96, 8));

    fatal_if(apps.size() != 58, "suite must contain 58 apps, has %zu",
             apps.size());
    return apps;
}

} // namespace

const std::vector<AppSpec> &
evaluationSuite()
{
    static const std::vector<AppSpec> suite = buildSuite();
    return suite;
}

const AppSpec &
findApp(const std::string &abbr)
{
    for (const AppSpec &app : evaluationSuite()) {
        if (app.abbr == abbr)
            return app;
    }
    fatal("unknown application abbreviation '%s'", abbr.c_str());
}

std::vector<AppSpec>
resolveApps(const std::vector<std::string> &names)
{
    std::vector<AppSpec> specs;
    auto add = [&](const AppSpec &spec) {
        for (const AppSpec &have : specs) {
            if (have.abbr == spec.abbr) {
                warn("ignoring duplicate application %s", spec.abbr.c_str());
                return;
            }
        }
        specs.push_back(spec);
    };
    for (const std::string &name : names) {
        if (name == "all") {
            for (const AppSpec &spec : evaluationSuite())
                add(spec);
        } else {
            add(findApp(name));
        }
    }
    return specs;
}

} // namespace bvf::workload
