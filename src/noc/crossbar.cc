/**
 * @file
 * Crossbar implementation.
 */

#include "noc/crossbar.hh"

#include "common/logging.hh"

namespace bvf::noc
{

Crossbar::Crossbar(int numSms, int numBanks, sram::AccessSink &sink)
    : numSms_(numSms), numBanks_(numBanks), sink_(sink)
{
    fatal_if(numSms <= 0 || numBanks <= 0,
             "crossbar needs positive port counts");
    request_.sourceQueues.resize(static_cast<std::size_t>(numSms));
    request_.rrPointer.assign(static_cast<std::size_t>(numBanks), 0);
    reply_.sourceQueues.resize(static_cast<std::size_t>(numBanks));
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
    ++request_.queued;
    request_.sourceQueues[static_cast<std::size_t>(pkt.srcSm)]
        .push_back(InFlight{std::move(pkt), 0});
}

void
Crossbar::injectReply(Packet pkt)
{
    panic_if(pkt.srcSm < 0 || pkt.srcSm >= numSms_, "bad destination SM");
    panic_if(pkt.dstBank < 0 || pkt.dstBank >= numBanks_, "bad bank");
    ++stats_.packets;
    ++reply_.queued;
    reply_.sourceQueues[static_cast<std::size_t>(pkt.dstBank)]
        .push_back(InFlight{std::move(pkt), 0});
}

void
Crossbar::stepNetwork(Network &net, bool isRequest, std::uint64_t cycle)
{
    const int num_dst = isRequest ? numBanks_ : numSms_;
    const int num_src = static_cast<int>(net.sourceQueues.size());

    for (int dst = 0; dst < num_dst; ++dst) {
        // Round-robin over sources whose head packet targets this port.
        int &rr = net.rrPointer[static_cast<std::size_t>(dst)];
        for (int probe = 0; probe < num_src; ++probe) {
            const int src = (rr + probe) % num_src;
            auto &queue = net.sourceQueues[static_cast<std::size_t>(src)];
            if (queue.empty())
                continue;
            InFlight &head = queue.front();
            const int pkt_dst = isRequest ? head.pkt.dstBank
                                          : head.pkt.srcSm;
            if (pkt_dst != dst)
                continue;

            ++stats_.flits;
            ++head.flitsSent;

            if (head.flitsSent == head.pkt.flitCount()) {
                // Payload flits of a packet travel back to back on this
                // channel; report them as one block (header flits ride
                // the control wires and only cost per-flit energy).
                if (!head.pkt.payload.empty()) {
                    const int channel = isRequest
                                            ? requestChannel(src, dst)
                                            : replyChannel(src, dst);
                    sink_.onNocPacket(channel, head.pkt.payload,
                                      isInstrPacket(head.pkt.type),
                                      cycle);
                }
                stats_.totalLatency += cycle - head.pkt.issueCycle;
                Packet done = std::move(head.pkt);
                queue.pop_front();
                --net.queued;
                if (isRequest) {
                    panic_if(!deliverRequest_, "no request handler");
                    deliverRequest_(done);
                } else {
                    panic_if(!deliverReply_, "no reply handler");
                    deliverReply_(done);
                }
            }
            rr = (src + 1) % num_src;
            break; // one flit per destination port per cycle
        }
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
