/**
 * @file
 * Consistent-hash routing for the bvfd fleet.
 *
 * Jobs are keyed (an application abbreviation, or a digest of a raw
 * request payload) and mapped onto workers through a classic
 * virtual-node hash ring: every worker owns kVirtualNodes points on a
 * 32-bit circle, a key routes to the first point at or after its own
 * hash, and the walk continues clockwise to produce a *preference
 * list* -- primary worker first, then the failover candidates in a
 * deterministic order.
 *
 * The two properties the fleet leans on:
 *  - determinism: the same key and the same worker set always produce
 *    the same preference list, so routing is reproducible;
 *  - minimal disruption: removing a worker only re-routes the keys it
 *    owned -- every other key's primary is untouched, which is what
 *    keeps a worker death from stampeding the whole fleet onto one
 *    survivor.
 *
 * The ring itself is immutable once built; liveness is *not* its
 * concern. Routing around dead workers is done by the coordinator
 * walking the preference list and skipping workers whose health state
 * machine says no -- mixing liveness into the ring would change every
 * key's hash neighbourhood on every flap.
 */

#ifndef BVF_FLEET_RING_HH
#define BVF_FLEET_RING_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bvf::fleet
{

/** Virtual nodes per worker; more points, smoother key balance. */
constexpr int kVirtualNodes = 64;

/** Immutable consistent-hash ring over worker indices [0, N). */
class HashRing
{
  public:
    /**
     * Build the ring over @p workerIds (stable identifiers, typically
     * "host:port"). Index i in every preference list refers to
     * workerIds[i].
     */
    explicit HashRing(const std::vector<std::string> &workerIds);

    /**
     * Full preference list for @p key: every worker index exactly
     * once, primary first, failover order after. Empty ring yields an
     * empty list.
     */
    std::vector<std::size_t> route(std::string_view key) const;

    /** Primary worker for @p key; size() must be nonzero. */
    std::size_t primary(std::string_view key) const;

    std::size_t size() const { return workers_; }

  private:
    struct Point
    {
        std::uint32_t hash;
        std::size_t worker;
    };

    std::size_t workers_ = 0;
    std::vector<Point> points_; //!< sorted by hash
};

} // namespace bvf::fleet

#endif // BVF_FLEET_RING_HH
