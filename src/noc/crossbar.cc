/**
 * @file
 * Crossbar implementation.
 */

#include "noc/crossbar.hh"

#include <bit>

#include "common/logging.hh"

namespace bvf::noc
{

Crossbar::Crossbar(int numSms, int numBanks, sram::AccessSink &sink)
    : numSms_(numSms), numBanks_(numBanks), sink_(sink)
{
    fatal_if(numSms <= 0 || numBanks <= 0,
             "crossbar needs positive port counts");
    fatal_if(numSms > maxPorts || numBanks > maxPorts,
             "crossbar with %d SMs and %d banks: at most %d ports per side",
             numSms, numBanks, maxPorts);
    request_.sourceQueues.resize(static_cast<std::size_t>(numSms));
    request_.contenders.assign(static_cast<std::size_t>(numBanks), 0);
    request_.rrPointer.assign(static_cast<std::size_t>(numBanks), 0);
    reply_.sourceQueues.resize(static_cast<std::size_t>(numBanks));
    reply_.contenders.assign(static_cast<std::size_t>(numSms), 0);
    reply_.rrPointer.assign(static_cast<std::size_t>(numSms), 0);
}

int
Crossbar::requestChannel(int sm, int bank) const
{
    return sm * numBanks_ + bank;
}

int
Crossbar::replyChannel(int bank, int sm) const
{
    return numSms_ * numBanks_ + bank * numSms_ + sm;
}

void
Crossbar::injectRequest(Packet pkt)
{
    panic_if(pkt.srcSm < 0 || pkt.srcSm >= numSms_, "bad source SM");
    panic_if(pkt.dstBank < 0 || pkt.dstBank >= numBanks_, "bad bank");
    ++stats_.packets;
    const int src = pkt.srcSm;
    const int dst = pkt.dstBank;
    enqueue(request_, src, dst, std::move(pkt));
}

void
Crossbar::injectReply(Packet pkt)
{
    panic_if(pkt.srcSm < 0 || pkt.srcSm >= numSms_, "bad destination SM");
    panic_if(pkt.dstBank < 0 || pkt.dstBank >= numBanks_, "bad bank");
    ++stats_.packets;
    const int src = pkt.dstBank;
    const int dst = pkt.srcSm;
    enqueue(reply_, src, dst, std::move(pkt));
}

void
Crossbar::enqueue(Network &net, int src, int dst, Packet pkt)
{
    auto &queue = net.sourceQueues[static_cast<std::size_t>(src)];
    if (queue.empty())
        net.contenders[static_cast<std::size_t>(dst)] |= std::uint64_t(1)
                                                         << src;
    queue.push_back(InFlight{std::move(pkt), 0});
    ++net.queued;
}

void
Crossbar::stepNetwork(Network &net, bool isRequest, std::uint64_t cycle)
{
    const int num_dst = isRequest ? numBanks_ : numSms_;
    const int num_src = static_cast<int>(net.sourceQueues.size());

    // Ports in ascending order, each mask read when its port is reached:
    // a source whose next head targets a later port moves again this
    // cycle.
    for (int dst = 0; dst < num_dst; ++dst) {
        const std::uint64_t mask =
            net.contenders[static_cast<std::size_t>(dst)];
        if (!mask)
            continue;
        // Round-robin: the first contender at or after rr, wrapping.
        int &rr = net.rrPointer[static_cast<std::size_t>(dst)];
        const std::uint64_t from_rr = mask & (~std::uint64_t(0) << rr);
        const int src = std::countr_zero(from_rr ? from_rr : mask);
        auto &queue = net.sourceQueues[static_cast<std::size_t>(src)];
        InFlight &head = queue.front();

        ++stats_.flits;
        ++head.flitsSent;

        if (head.flitsSent == head.pkt.flitCount()) {
            // Payload flits of a packet travel back to back on this
            // channel; report them as one block (header flits ride
            // the control wires and only cost per-flit energy).
            if (!head.pkt.payload.empty()) {
                const int channel = isRequest ? requestChannel(src, dst)
                                              : replyChannel(src, dst);
                sink_.onNocPacket(channel, head.pkt.payload,
                                  isInstrPacket(head.pkt.type), cycle);
            }
            stats_.totalLatency += cycle - head.pkt.issueCycle;
            Packet done = std::move(head.pkt);
            queue.pop_front();
            --net.queued;
            net.contenders[static_cast<std::size_t>(dst)] &=
                ~(std::uint64_t(1) << src);
            if (!queue.empty()) {
                const Packet &next = queue.front().pkt;
                const int next_dst = isRequest ? next.dstBank : next.srcSm;
                net.contenders[static_cast<std::size_t>(next_dst)] |=
                    std::uint64_t(1) << src;
            }
            if (isRequest) {
                panic_if(!deliverRequest_, "no request handler");
                deliverRequest_(done);
            } else {
                panic_if(!deliverReply_, "no reply handler");
                deliverReply_(done);
            }
        }
        rr = src + 1 == num_src ? 0 : src + 1;
    }
}

void
Crossbar::step(std::uint64_t cycle)
{
    if (request_.queued)
        stepNetwork(request_, true, cycle);
    if (reply_.queued)
        stepNetwork(reply_, false, cycle);
}

} // namespace bvf::noc
