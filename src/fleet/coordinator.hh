/**
 * @file
 * Fleet coordinator: routes jobs across bvfd workers and survives
 * their deaths.
 *
 * The coordinator owns one WorkerClient per configured worker, a
 * consistent-hash ring over their identifiers, and per-worker health +
 * circuit-breaker state. execute() is the single entry point: given a
 * frame and a route key it walks the key's preference list, skipping
 * dead workers and open breakers, and retries with jittered
 * exponential backoff until it has an answer or runs out of attempts.
 *
 * Failure taxonomy, because the right reaction differs per failure:
 *
 *  - Transport failure (connect refused, deadline expired, torn
 *    frame): the *worker* is in trouble. Strike its health, trip its
 *    breaker, close its pooled connections and fail the job over to
 *    the next worker on the preference list. The job itself is not
 *    blamed -- it never ran.
 *
 *  - ErrorResponse carrying ErrorCode::Overloaded: the worker is
 *    healthy but saturated. Counts against the breaker (stop sending
 *    it load) but not against health (it answered), and the job fails
 *    over.
 *
 *  - Any other ErrorResponse: a healthy worker *evaluated* the job and
 *    rejected it. One such answer could still be a sick worker, so the
 *    job is retried on a different worker; the same verdict from a
 *    second distinct worker convicts the job, and the error is
 *    returned for the caller to quarantine. A single-worker fleet
 *    convicts after its one opinion.
 *
 * A background heartbeat pings every worker each interval; a dead
 * worker that answers again is revived and rejoins routing, which is
 * how a chaos-restarted worker picks its apps back up mid-campaign.
 */

#ifndef BVF_FLEET_COORDINATOR_HH
#define BVF_FLEET_COORDINATOR_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "fleet/health.hh"
#include "fleet/ring.hh"
#include "fleet/worker_client.hh"
#include "server/protocol.hh"

namespace bvf::fleet
{

/** Knobs for one coordinator. */
struct FleetOptions
{
    std::vector<WorkerAddress> workers;

    /** Per-request transport deadline; expiry is a worker strike. */
    std::chrono::milliseconds requestDeadline{10000};

    /** Backoff envelope base between retry passes (PR 2 discipline). */
    std::chrono::milliseconds backoffBase{100};

    /** Full passes over the preference list before giving up. */
    int maxAttempts = 4;

    /** Consecutive failures that open a worker's breaker. */
    int breakerThreshold = 3;

    /** How long an open breaker rejects before the half-open probe. */
    std::chrono::milliseconds breakerCooldown{1000};

    /** Heartbeat period; 0 disables the background prober. */
    std::chrono::milliseconds heartbeatInterval{500};

    /**
     * Minimum deadline a heartbeat ping gets, whatever the interval.
     * Saturated workers answer pings late; a late pong must read as
     * "busy", not "dead", or short intervals flap the whole fleet.
     */
    std::chrono::milliseconds heartbeatFloor{2000};

    /**
     * Consecutive transport failures that convict a worker
     * (Alive -> ... -> Dead); minimum 2, see WorkerHealth.
     */
    int deadThreshold = 2;

    /** Seed for retry jitter (deterministic tests). */
    std::uint64_t jitterSeed = 0x5eedf1ee7ull;

    /**
     * Time source for deadlines, breaker cooldowns and retry backoff.
     * Null uses the real systemClock(); the simulation harness injects
     * a SimClock so a whole fleet run happens on simulated time.
     */
    Clock *clock = nullptr;

    /**
     * Per-worker connection factory override. Empty dials each
     * worker's real address; the simulation harness supplies in-memory
     * transports here. Called once per worker at construction.
     */
    std::function<WorkerClient::DialFn(std::size_t index,
                                       const WorkerAddress &address)>
        dialFactory;
};

/** Counters a fleet run reports; snapshot via Coordinator::stats(). */
struct FleetStats
{
    std::uint64_t requests = 0;     //!< execute() calls
    std::uint64_t failovers = 0;    //!< jobs served off their primary
    std::uint64_t overloaded = 0;   //!< gave up: no routable worker
    std::uint64_t quarantined = 0;  //!< jobs convicted by >= 2 workers
    std::uint64_t deaths = 0;       //!< Suspect -> Dead transitions
    std::uint64_t revivals = 0;     //!< Dead -> Alive transitions
    std::uint64_t breakerOpens = 0; //!< breaker open transitions
};

/** What execute() observed while completing one job. */
struct ExecuteInfo
{
    std::size_t worker = 0;          //!< index that produced the answer
    int transportFailures = 0;       //!< failovers this job survived
    int distinctAppErrorWorkers = 0; //!< workers that rejected the job
};

/** Shards requests across workers with failover and retry. */
class Coordinator
{
  public:
    explicit Coordinator(FleetOptions options);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Start the heartbeat prober (no-op when interval is 0). */
    void start();

    /** Stop the prober and drop every pooled connection. */
    void stop();

    /**
     * Run one request to completion. The returned frame may be an
     * ErrorResponse (the job's own verdict, confirmed per the
     * quarantine rule). Errors: Overloaded when no worker was
     * routable, otherwise the last transport error seen.
     */
    Result<server::Frame> execute(const server::Frame &frame,
                                  std::string_view routeKey,
                                  ExecuteInfo *info = nullptr);

    /**
     * Dispatch hook for server::ServerOptions::handler: the returned
     * callable proxies every frame through execute(), turning a bvfd
     * front-end into a fleet load balancer. Transport-level give-ups
     * become ErrorResponse frames so the client always gets an answer.
     */
    std::function<server::Frame(const server::Frame &)> proxyHandler();

    /**
     * One synchronous heartbeat pass over every worker: ping, update
     * health, revive answering dead workers. The background prober
     * calls this each interval; tests and the simulation harness call
     * it directly so liveness transitions need no wall-clock waiting.
     */
    void probeWorkersOnce();

    /** Current liveness verdict for worker @p index. */
    WorkerState workerState(std::size_t index) const;

    /** Is worker @p index's circuit breaker currently open? */
    bool breakerOpen(std::size_t index) const;

    /** Consistent counters snapshot. */
    FleetStats stats() const;

    std::size_t workerCount() const { return clients_.size(); }

    /**
     * Route key for @p frame: the application abbreviation for
     * app-keyed requests (density/energy/static), else a digest of the
     * payload. Keying by abbr pins each app to one worker under normal
     * operation, so repeated requests for it reuse that worker's state.
     */
    static std::string routeKeyForFrame(const server::Frame &frame);

  private:
    void heartbeatLoop();
    bool pingWorker(std::size_t index);
    Clock::time_point timeNow();

    FleetOptions options_;
    HashRing ring_;
    std::vector<std::unique_ptr<WorkerClient>> clients_;

    mutable std::mutex mutex_; //!< guards health_/breakers_/rng_
    std::vector<WorkerHealth> health_;
    std::vector<CircuitBreaker> breakers_;
    Rng rng_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> failovers_{0};
    std::atomic<std::uint64_t> overloaded_{0};
    std::atomic<std::uint64_t> quarantined_{0};
    std::atomic<std::uint64_t> pingNonce_{1};

    std::thread heartbeat_;
    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopping_ = false;
};

} // namespace bvf::fleet

#endif // BVF_FLEET_COORDINATOR_HH
