/**
 * @file
 * Simulated network implementation.
 */

#include "sim/sim_net.hh"

#include <utility>

namespace bvf::sim
{

using server::Frame;

/** One simulated connection: worker-side parse state + client inbox. */
struct SimNet::Conn
{
    std::size_t worker = 0;
    std::uint64_t epoch = 0;  //!< epochs_[worker] at dial time
    std::string parseBuf;     //!< worker-side partial request bytes
    bool closedByWorker = false; //!< framing error -> server hangup

    struct Delivery
    {
        Clock::time_point arrival;
        std::string bytes;
    };
    std::deque<Delivery> pending; //!< responses in flight to the client
};

/** Client endpoint of one simulated connection. */
class SimNet::Transport final : public server::Transport
{
  public:
    Transport(SimNet &net, std::shared_ptr<Conn> conn)
        : net_(net), conn_(std::move(conn))
    {
    }

    Result<void> send(std::string_view bytes,
                      std::chrono::milliseconds deadline) override;
    Result<std::string>
    recv(std::chrono::milliseconds deadline) override;
    void close() override { closed_ = true; }

  private:
    SimNet &net_;
    std::shared_ptr<Conn> conn_;
    bool closed_ = false;
};

SimNet::SimNet(SimClock &clock, Rng rng, std::size_t workers,
               Handler handler)
    : clock_(clock), rng_(rng), handler_(std::move(handler)),
      alive_(workers, true), epochs_(workers, 0)
{
}

void
SimNet::quiesce()
{
    faults_ = SimFaults{};
    scripted_ = nullptr;
}

bool
SimNet::checkWatchdog()
{
    if (tripped_)
        return false;
    ++ops_;
    if (ops_ > opBudget_ || clock_.elapsed() > timeBudget_) {
        tripped_ = true;
        return false;
    }
    return true;
}

bool
SimNet::roll(double probability)
{
    if (probability <= 0.0)
        return false;
    return rng_.nextDouble() < probability;
}

void
SimNet::mutateByte(std::string &bytes)
{
    if (bytes.empty())
        return;
    const std::size_t at = rng_.nextBounded(bytes.size());
    bytes[at] = static_cast<char>(
        static_cast<unsigned char>(bytes[at])
        ^ static_cast<unsigned char>(1u << rng_.nextBounded(8)));
}

void
SimNet::truncateTail(std::string &bytes)
{
    if (bytes.empty())
        return;
    bytes.resize(rng_.nextBounded(bytes.size()));
}

bool
SimNet::applyFaults(std::size_t worker, bool isRequest,
                    std::string &bytes, bool &duplicate)
{
    duplicate = false;
    if (scripted_ && scripted_(worker, isRequest, bytes))
        return !bytes.empty();
    if (isRequest) {
        if (roll(faults_.dropRequest))
            return false;
        if (roll(faults_.truncateRequest))
            truncateTail(bytes);
        if (roll(faults_.corruptRequest))
            mutateByte(bytes);
        return !bytes.empty();
    }
    if (roll(faults_.dropResponse))
        return false;
    if (roll(faults_.truncateResponse))
        truncateTail(bytes);
    if (roll(faults_.corruptResponse))
        mutateByte(bytes);
    duplicate = roll(faults_.duplicateResponse);
    return !bytes.empty();
}

Result<server::TransportPtr>
SimNet::dial(std::size_t worker, std::chrono::milliseconds)
{
    if (!checkWatchdog())
        return Error{ErrorCode::Timeout, "sim: watchdog tripped"};
    if (!alive_[worker] || roll(faults_.connectFail))
        return Error{ErrorCode::Io, "sim: connect refused"};
    auto conn = std::make_shared<Conn>();
    conn->worker = worker;
    conn->epoch = epochs_[worker];
    return server::TransportPtr(
        std::make_unique<Transport>(*this, std::move(conn)));
}

void
SimNet::kill(std::size_t worker)
{
    alive_[worker] = false;
    ++epochs_[worker]; // every open connection is now stale
}

void
SimNet::restart(std::size_t worker)
{
    alive_[worker] = true;
    ++epochs_[worker]; // old connections do not survive the restart
}

Result<void>
SimNet::deliverToWorker(const std::shared_ptr<Conn> &conn,
                        std::string bytes)
{
    // The worker takes its requests through the real server's stream
    // step and answers each; a framing error is answered once, then
    // the worker hangs up.
    conn->parseBuf.append(bytes);
    while (!conn->closedByWorker) {
        server::StreamStep step = server::nextRequest(conn->parseBuf);
        if (step.kind == server::StreamStep::NeedMore)
            break;
        conn->closedByWorker = step.kind == server::StreamStep::HangUp;
        const Frame response = conn->closedByWorker
                                   ? std::move(step.frame)
                                   : handler_(conn->worker, step.frame);
        std::string reply =
            server::encodeFrame(response.type, response.payload);
        bool duplicate = false;
        if (!applyFaults(conn->worker, false, reply, duplicate))
            continue; // response lost en route
        // A duplicated frame rides the same stream, so it shows up
        // appended to the original delivery -- which is exactly the
        // shape the client's "never re-pool a stream with leftover
        // bytes" defense must catch.
        if (duplicate)
            reply += reply;
        conn->pending.push_back({clock_.now() + faults_.latency, reply});
    }
    return {};
}

Result<void>
SimNet::Transport::send(std::string_view bytes,
                        std::chrono::milliseconds)
{
    if (!net_.checkWatchdog())
        return Error{ErrorCode::Timeout, "sim: watchdog tripped"};
    if (closed_)
        return Error{ErrorCode::Io, "sim: send on closed transport"};
    if (conn_->epoch != net_.epochs_[conn_->worker]
        || !net_.alive_[conn_->worker]) {
        return Error{ErrorCode::Io, "sim: connection reset by peer"};
    }
    if (conn_->closedByWorker)
        return Error{ErrorCode::Io, "sim: connection reset by peer"};

    net_.clock_.advance(net_.faults_.latency);
    std::string wire(bytes);
    bool duplicate = false;
    if (!net_.applyFaults(conn_->worker, true, wire, duplicate))
        return {}; // dropped en route: send "succeeds", reply never comes
    return net_.deliverToWorker(conn_, std::move(wire));
}

Result<std::string>
SimNet::Transport::recv(std::chrono::milliseconds deadline)
{
    if (!net_.checkWatchdog())
        return Error{ErrorCode::Timeout, "sim: watchdog tripped"};
    if (closed_)
        return Error{ErrorCode::Io, "sim: recv on closed transport"};

    if (!conn_->pending.empty()) {
        auto &front = conn_->pending.front();
        if (front.arrival > net_.clock_.now()) {
            const auto wait =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    front.arrival - net_.clock_.now());
            if (deadline.count() > 0 && wait > deadline) {
                net_.clock_.advance(deadline);
                return Error{ErrorCode::Timeout,
                             "transport deadline expired"};
            }
            net_.clock_.advance(wait);
        }
        std::string bytes = std::move(front.bytes);
        conn_->pending.pop_front();
        return bytes;
    }

    // Nothing in flight. A worker-side hangup or a broken epoch is an
    // orderly EOF; otherwise nothing is ever coming, so burn the
    // deadline and time out (blocking forever would be a harness hang).
    if (conn_->closedByWorker
        || conn_->epoch != net_.epochs_[conn_->worker]
        || !net_.alive_[conn_->worker]) {
        return std::string{};
    }
    if (deadline.count() > 0)
        net_.clock_.advance(deadline);
    return Error{ErrorCode::Timeout, "transport deadline expired"};
}

} // namespace bvf::sim
