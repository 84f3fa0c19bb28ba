/**
 * @file
 * Runtime enforcement of an admission certificate.
 *
 * A kernel admitted by the static verifier (analysis/verifier.hh)
 * carries a Certificate: a proven per-warp instruction-issue bound and
 * per-space memory footprints. The ContractProbe hangs off the SM's
 * ExecProbe hook and checks every issued instruction against that
 * certificate while the kernel runs. The hook fires once per
 * architectural issue, before the instruction executes: a load that
 * stalls on a full MSHR file is seen on its first attempt only. Its
 * retries do not reach the probe, and an SM that only replays them
 * freezes as it would unprobed (DESIGN.md §3), so a probed run steps
 * exactly as an unprobed one. A violation is by definition a verifier
 * soundness bug -- the verifier claimed a bound the machine exceeded --
 * so the probe aborts loudly via fatal() instead of tolerating it;
 * runProgramChecked turns that into a structured error without killing
 * a serving process.
 */

#ifndef BVF_CORE_CONTRACT_HH
#define BVF_CORE_CONTRACT_HH

#include <cstdint>
#include <unordered_map>

#include "analysis/verifier.hh"
#include "gpu/sm.hh"

namespace bvf::core
{

/** Enforces one admitted kernel's certificate during simulation. */
class ContractProbe : public gpu::ExecProbe
{
  public:
    explicit ContractProbe(analysis::Certificate certificate)
        : cert_(certificate)
    {
    }

    void onIssue(int smId, int pc, const isa::Instruction &instr,
                 const gpu::Warp &warp, std::uint32_t guard,
                 std::uint64_t cycle) override;

    /** Largest per-warp issue count observed so far. */
    std::uint64_t maxIssued() const { return maxIssued_; }

    /** Memory accesses checked against a footprint so far. */
    std::uint64_t checkedAccesses() const { return checkedAccesses_; }

    const analysis::Certificate &certificate() const { return cert_; }

  private:
    analysis::Certificate cert_;
    std::unordered_map<std::uint64_t, std::uint64_t> issued_; //!< per warp
    std::uint64_t maxIssued_ = 0;
    std::uint64_t checkedAccesses_ = 0;
};

} // namespace bvf::core

#endif // BVF_CORE_CONTRACT_HH
