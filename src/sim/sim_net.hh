/**
 * @file
 * In-memory network with injectable faults for the simulation harness.
 *
 * SimNet stands in for the real sockets between the fleet coordinator
 * and its workers. Each worker is a synchronous frame handler; dial()
 * returns a server::Transport whose send()/recv() move bytes through
 * the byte-faithful wire model:
 *
 *  - bytes sent are run through the fault schedule (drop, truncate,
 *    corrupt), then taken off the stream by the real server's stream
 *    step (server::nextRequest) -- so a corrupted request really does
 *    fail CRC on the "remote" side and really does produce the same
 *    ErrorResponse-then-hangup the real bvfd would;
 *  - responses suffer their own faults (drop, truncate, corrupt,
 *    duplicate) and arrive after a simulated latency, so recv() must
 *    advance the SimClock to see them -- deadlines are honest;
 *  - kill() breaks every open connection to a worker (epoch bump) and
 *    makes new dials fail until restart().
 *
 * All randomness comes from one seeded Rng, making every run an exact
 * replay of its seed. A watchdog bounds both total transport
 * operations and total simulated time: a scheduling bug that would
 * hang the real fleet forever turns every subsequent operation into a
 * Timeout error here, which the scenario runner reports as a
 * violation instead of hanging the test suite.
 */

#ifndef BVF_SIM_SIM_NET_HH
#define BVF_SIM_SIM_NET_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/rng.hh"
#include "server/protocol.hh"
#include "server/transport.hh"
#include "sim/sim_clock.hh"

namespace bvf::sim
{

/** Independent fault probabilities applied per message. */
struct SimFaults
{
    double dropRequest = 0.0;      //!< request vanishes en route
    double truncateRequest = 0.0;  //!< request loses its tail
    double corruptRequest = 0.0;   //!< request gets a byte flipped
    double dropResponse = 0.0;     //!< response vanishes en route
    double truncateResponse = 0.0; //!< response loses its tail
    double corruptResponse = 0.0;  //!< response gets a byte flipped
    double duplicateResponse = 0.0; //!< response delivered twice
    double connectFail = 0.0;      //!< dial refused spuriously

    /** One-way delivery latency. */
    std::chrono::milliseconds latency{1};
};

/**
 * Scripted per-message override: return true to take over fault
 * decisions for this message (mutating @p bytes in place; clearing it
 * drops the message). Used by regression tests that need one exact
 * fault at one exact moment rather than probabilities.
 * @p isRequest distinguishes direction; @p worker is the target.
 */
using MessageFaultFn = std::function<bool(
    std::size_t worker, bool isRequest, std::string &bytes)>;

/** The simulated network: workers, wires, faults, watchdog. */
class SimNet
{
  public:
    /** Synchronous request handler standing in for worker @p index. */
    using Handler =
        std::function<server::Frame(std::size_t worker,
                                    const server::Frame &request)>;

    /**
     * @param clock    simulated time source (latency, arrivals)
     * @param rng      fault decisions (forked from the scenario seed)
     * @param workers  number of simulated workers
     * @param handler  produces each worker's response frames
     */
    SimNet(SimClock &clock, Rng rng, std::size_t workers,
           Handler handler);

    SimNet(const SimNet &) = delete;
    SimNet &operator=(const SimNet &) = delete;

    SimFaults &faults() { return faults_; }

    /** Install/clear a scripted fault hook (overrides probabilities). */
    void setMessageFault(MessageFaultFn fn) { scripted_ = std::move(fn); }

    /** Zero every fault probability and clear the scripted hook. */
    void quiesce();

    /** Connection factory for WorkerClient::DialFn / dialFactory. */
    Result<server::TransportPtr>
    dial(std::size_t worker, std::chrono::milliseconds deadline);

    /** Crash worker @p index: open connections break, dials fail. */
    void kill(std::size_t worker);

    /** Bring worker @p index back (fresh process, empty buffers). */
    void restart(std::size_t worker);

    bool alive(std::size_t worker) const { return alive_[worker]; }
    std::size_t workerCount() const { return alive_.size(); }

    /**
     * Abort the run once this many transport operations (sends +
     * recvs) have happened; every later operation fails Timeout.
     * This is the no-hang guarantee: livelock becomes a visible error.
     */
    void setOpBudget(std::uint64_t ops) { opBudget_ = ops; }

    /** Same guarantee over simulated time. */
    void setTimeBudget(std::chrono::milliseconds budget)
    {
        timeBudget_ = budget;
    }

    bool watchdogTripped() const { return tripped_; }
    std::uint64_t opsUsed() const { return ops_; }

  private:
    struct Conn;
    class Transport;

    bool checkWatchdog();
    bool roll(double probability);
    void mutateByte(std::string &bytes);
    void truncateTail(std::string &bytes);

    /** Apply faults to @p bytes; false means the message was dropped. */
    bool applyFaults(std::size_t worker, bool isRequest,
                     std::string &bytes, bool &duplicate);

    Result<void> deliverToWorker(const std::shared_ptr<Conn> &conn,
                                 std::string bytes);

    SimClock &clock_;
    Rng rng_;
    Handler handler_;
    SimFaults faults_;
    MessageFaultFn scripted_;

    std::vector<bool> alive_;
    std::vector<std::uint64_t> epochs_; //!< bumped by kill()

    std::uint64_t opBudget_ = 2'000'000;
    std::chrono::milliseconds timeBudget_{3'600'000}; // 1 sim-hour
    std::uint64_t ops_ = 0;
    bool tripped_ = false;
};

} // namespace bvf::sim

#endif // BVF_SIM_SIM_NET_HH
