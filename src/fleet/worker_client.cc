/**
 * @file
 * Worker client implementation: framed round trips over a Transport.
 */

#include "fleet/worker_client.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace bvf::fleet
{

using server::Frame;
using server::TransportPtr;

std::string
WorkerAddress::id() const
{
    if (!unixPath.empty())
        return "unix:" + unixPath;
    return strFormat("%s:%d", host.c_str(), port);
}

Result<WorkerAddress>
parseWorkerAddress(const std::string &spec)
{
    WorkerAddress addr;
    if (spec.rfind("unix:", 0) == 0) {
        addr.unixPath = spec.substr(5);
        if (addr.unixPath.empty()) {
            return Error{ErrorCode::InvalidArgument,
                         "empty unix socket path in worker spec"};
        }
        return addr;
    }
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0
        || colon + 1 == spec.size()) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("worker spec '%s' is not HOST:PORT or "
                               "unix:PATH",
                               spec.c_str())};
    }
    addr.host = spec.substr(0, colon);
    char *end = nullptr;
    const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || port < 1 || port > 65535) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("bad port in worker spec '%s'",
                               spec.c_str())};
    }
    addr.port = static_cast<int>(port);
    return addr;
}

WorkerClient::WorkerClient(WorkerAddress address, DialFn dial,
                           Clock *clock)
    : address_(std::move(address)), dial_(std::move(dial)),
      clock_(clock ? clock : &systemClock())
{
    if (!dial_) {
        dial_ = [this](std::chrono::milliseconds deadline) {
            if (!address_.unixPath.empty())
                return server::SocketTransport::dialUnix(
                    address_.unixPath, deadline);
            return server::SocketTransport::dialTcp(
                address_.host, address_.port, deadline);
        };
    }
}

WorkerClient::~WorkerClient()
{
    closeAll();
}

void
WorkerClient::closeAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &transport : idle_)
        transport->close();
    idle_.clear();
}

Result<TransportPtr>
WorkerClient::checkout(std::chrono::milliseconds deadline)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!idle_.empty()) {
            TransportPtr transport = std::move(idle_.back());
            idle_.pop_back();
            return transport;
        }
    }
    return dial_(deadline);
}

void
WorkerClient::checkin(TransportPtr transport)
{
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(transport));
}

Result<Frame>
WorkerClient::request(const Frame &frame,
                      std::chrono::milliseconds deadline)
{
    const server::Deadline budget(deadline, *clock_);
    auto checkedOut = checkout(deadline);
    if (!checkedOut.ok())
        return checkedOut.error();
    TransportPtr transport = std::move(checkedOut.value());

    const std::string bytes = encodeFrame(frame.type, frame.payload);
    auto sent = transport->send(bytes, budget.remaining());
    if (!sent.ok()) {
        transport->close();
        return sent.error();
    }

    std::string buf;
    auto response = server::readFrame(*transport, buf, budget);
    if (response.ok() && buf.empty()) {
        checkin(std::move(transport)); // provably clean stream
    } else {
        // A failed read leaves the stream offset unreliable. So do
        // bytes beyond the response (a duplicated frame, a babbling
        // worker): the answer we matched by position is still the
        // answer, but a pooled connection holding leftovers would
        // serve them as the *next* request's response. Never re-pool
        // a desynced stream.
        transport->close();
    }
    return response;
}

} // namespace bvf::fleet
