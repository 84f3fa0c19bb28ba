/**
 * @file
 * GPU top-level implementation.
 */

#include "gpu/gpu.hh"

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace bvf::gpu
{

using coder::UnitId;
using sram::AccessType;

Gpu::Gpu(const GpuConfig &config, isa::Program program,
         sram::AccessSink &sink)
    : config_(config), program_(std::move(program)), sink_(sink),
      encoder_(config.arch)
{
    fatal_if(program_.body.empty(), "program has no instructions");
    binary_ = encoder_.encode(program_.body);

    for (int s = 0; s < config_.numSms; ++s) {
        sms_.push_back(std::make_unique<Sm>(s, config_, program_, sink_,
                                            *this));
    }
    noc_ = std::make_unique<noc::Crossbar>(config_.numSms,
                                           config_.l2Banks, sink_);
    noc_->setRequestHandler(
        [this](const noc::Packet &pkt) { handleRequestAtBank(pkt); });
    noc_->setReplyHandler(
        [this](const noc::Packet &pkt) { handleReplyAtSm(pkt); });

    for (int b = 0; b < config_.l2Banks; ++b) {
        l2_.emplace_back(strFormat("L2[%d]", b), config_.l2BytesPerBank,
                         config_.l2Assoc, config_.lineBytes, 0);
    }
    mc_ = std::make_unique<MemoryController>(
        config_.dramChannels, 2048, config_.dramRowHitLatency,
        config_.dramRowMissLatency);
    mc_->setCompleteHandler([this](const DramRequest &req) {
        onDramComplete(req, cycle_);
    });
}

int
Gpu::bankOf(std::uint32_t lineAddr) const
{
    return static_cast<int>((lineAddr / config_.lineBytes)
                            % static_cast<std::uint32_t>(config_.l2Banks));
}

Word
Gpu::readGlobalWord(std::uint32_t addr) const
{
    return isa::loadGlobal(program_.global, addr);
}

void
Gpu::writeGlobalWord(std::uint32_t addr, Word value)
{
    isa::storeGlobal(program_.global, addr, value);
}

Word64
Gpu::instrBinary(int pc) const
{
    panic_if(pc < 0 || pc >= static_cast<int>(binary_.size()),
             "instruction fetch out of range: pc=%d", pc);
    return binary_[static_cast<std::size_t>(pc)];
}

std::vector<Word>
Gpu::lineData(std::uint32_t lineAddr) const
{
    std::vector<Word> words;
    words.reserve(config_.lineBytes / 4);
    for (std::uint32_t off = 0; off < config_.lineBytes; off += 4)
        words.push_back(readGlobalWord(lineAddr + off));
    return words;
}

std::vector<Word>
Gpu::instrLineData(std::uint32_t lineAddr) const
{
    // Instruction lines as 32-bit word pairs (lo, hi) per binary.
    std::vector<Word> words;
    const int first_pc = static_cast<int>(lineAddr / 8);
    const int per_line = static_cast<int>(config_.lineBytes / 8);
    for (int i = 0; i < per_line; ++i) {
        Word64 bin = 0;
        if (first_pc + i < static_cast<int>(binary_.size()))
            bin = binary_[static_cast<std::size_t>(first_pc + i)];
        words.push_back(static_cast<Word>(bin));
        words.push_back(static_cast<Word>(bin >> 32));
    }
    return words;
}

void
Gpu::accountL2Line(std::uint32_t lineAddr, AccessType type, bool instr,
                   std::uint64_t cycle)
{
    if (instr) {
        std::vector<Word64> instrs;
        const int first_pc = static_cast<int>(lineAddr / 8);
        const int per_line = static_cast<int>(config_.lineBytes / 8);
        for (int i = 0; i < per_line; ++i) {
            if (first_pc + i < static_cast<int>(binary_.size()))
                instrs.push_back(binary_[static_cast<std::size_t>(
                    first_pc + i)]);
        }
        sink_.onFetch(UnitId::L2, type, instrs, cycle);
    } else {
        const auto words = lineData(lineAddr);
        sink_.onAccess(UnitId::L2, type, words, fullMask, cycle);
    }
}

void
Gpu::sendReadRequest(int smId, std::uint32_t lineAddr, bool instr,
                     std::uint64_t cycle)
{
    noc::Packet pkt;
    pkt.type = instr ? noc::PacketType::InstrRequest
                     : noc::PacketType::ReadRequest;
    pkt.srcSm = smId;
    pkt.dstBank = bankOf(lineAddr);
    pkt.address = lineAddr;
    pkt.requestId = nextRequestId_++;
    pkt.issueCycle = cycle;
    noc_->injectRequest(std::move(pkt));
}

void
Gpu::sendWriteRequest(int smId, std::uint32_t lineAddr,
                      std::vector<Word> payload, std::uint64_t cycle)
{
    noc::Packet pkt;
    pkt.type = noc::PacketType::WriteRequest;
    pkt.srcSm = smId;
    pkt.dstBank = bankOf(lineAddr);
    pkt.address = lineAddr;
    pkt.payload = std::move(payload);
    pkt.requestId = nextRequestId_++;
    pkt.issueCycle = cycle;
    noc_->injectRequest(std::move(pkt));
}

void
Gpu::handleRequestAtBank(const noc::Packet &pkt)
{
    TagCache &bank = l2_[static_cast<std::size_t>(pkt.dstBank)];
    const bool instr = noc::isInstrPacket(pkt.type);

    switch (pkt.type) {
      case noc::PacketType::ReadRequest:
      case noc::PacketType::InstrRequest: {
        const auto outcome = bank.access(pkt.address);
        if (outcome == CacheOutcome::Hit) {
            ++stats_.l2Hits;
            accountL2Line(pkt.address, AccessType::Read, instr, cycle_);
            noc::Packet reply;
            reply.type = instr ? noc::PacketType::InstrReply
                               : noc::PacketType::ReadReply;
            reply.srcSm = pkt.srcSm;
            reply.dstBank = pkt.dstBank;
            reply.address = pkt.address;
            reply.requestId = pkt.requestId;
            reply.payload = instr ? instrLineData(pkt.address)
                                  : lineData(pkt.address);
            scheduleReply(cycle_
                              + static_cast<std::uint64_t>(
                                  config_.l2Latency),
                          std::move(reply));
        } else {
            ++stats_.l2Misses;
            auto &waiters = dramWaiting_[pkt.address];
            waiters.push_back(pkt);
            if (outcome == CacheOutcome::Miss)
                mc_->enqueue(pkt.address, pkt.address, cycle_);
        }
        break;
      }
      case noc::PacketType::WriteRequest: {
        // Write-allocate without fetch: install the tag and account the
        // written words (the store data itself).
        const auto outcome = bank.access(pkt.address);
        if (outcome == CacheOutcome::Miss || outcome
            == CacheOutcome::MissMerged) {
            bank.fill(pkt.address);
        }
        sink_.onAccess(UnitId::L2, AccessType::Write, pkt.payload,
                       fullMask, cycle_);
        break;
      }
      default:
        panic("unexpected packet type at bank");
    }
}

void
Gpu::onDramComplete(const DramRequest &req, std::uint64_t cycle)
{
    const std::uint32_t line = req.lineAddr;
    auto it = dramWaiting_.find(line);
    if (it == dramWaiting_.end())
        return;
    std::vector<noc::Packet> waiters = std::move(it->second);
    dramWaiting_.erase(it);
    panic_if(waiters.empty(), "DRAM completion with no waiters");

    const bool instr = noc::isInstrPacket(waiters.front().type);
    TagCache &bank =
        l2_[static_cast<std::size_t>(waiters.front().dstBank)];
    bank.fill(line);
    // L2 fill write.
    accountL2Line(line, AccessType::Write, instr, cycle);

    for (const noc::Packet &pkt : waiters) {
        // Each waiter reads the line out of L2.
        accountL2Line(line, AccessType::Read, noc::isInstrPacket(pkt.type),
                      cycle);
        noc::Packet reply;
        reply.type = noc::isInstrPacket(pkt.type)
                         ? noc::PacketType::InstrReply
                         : noc::PacketType::ReadReply;
        reply.srcSm = pkt.srcSm;
        reply.dstBank = pkt.dstBank;
        reply.address = pkt.address;
        reply.requestId = pkt.requestId;
        reply.payload = reply.type == noc::PacketType::ReadReply
                            ? lineData(pkt.address)
                            : instrLineData(pkt.address);
        scheduleReply(cycle
                          + static_cast<std::uint64_t>(config_.l2Latency),
                      std::move(reply));
    }
}

void
Gpu::scheduleReply(std::uint64_t cycle, noc::Packet pkt)
{
    delayedReplies_.emplace(cycle, std::move(pkt));
}

void
Gpu::handleReplyAtSm(const noc::Packet &pkt)
{
    Sm &sm = *sms_[static_cast<std::size_t>(pkt.srcSm)];
    if (pkt.type == noc::PacketType::InstrReply)
        sm.onInstrFill(pkt.address, cycle_);
    else
        sm.onDataFill(pkt.address, cycle_);
}

GpuStats
Gpu::run()
{
    // Initial block assignment, round-robin across SMs.
    nextBlock_ = 0;
    const int total_blocks = program_.launch.gridBlocks;
    bool made_progress = true;
    while (nextBlock_ < total_blocks && made_progress) {
        made_progress = false;
        for (int s = 0; s < config_.numSms && nextBlock_ < total_blocks;
             ++s) {
            if (sms_[static_cast<std::size_t>(s)]->assignBlock(
                    nextBlock_)) {
                ++nextBlock_;
                made_progress = true;
            }
        }
    }
    fatal_if(nextBlock_ == 0, "no block fits on any SM");

    const std::uint64_t cycle_limit = 200'000'000;
    // Watchdog poll period: cheap enough to never matter (one clock read
    // per ~4k simulated cycles), fine enough that a timed-out app stops
    // within milliseconds of its deadline.
    constexpr std::uint64_t cancel_poll_cycles = 4096;
    cycle_ = 0;
    bool work_left = true;
    while (work_left) {
        ++cycle_;
        fatal_if(cycle_ > cycle_limit, "simulation exceeded cycle limit");
        if (cancel_ && cycle_ % cancel_poll_cycles == 0
            && cancel_->expired()) {
            fatal("simulation cancelled by watchdog at cycle %llu",
                  static_cast<unsigned long long>(cycle_));
        }

        for (auto &sm : sms_)
            sm->step(cycle_);
        noc_->step(cycle_);
        mc_->step(cycle_);

        // Release matured L2 replies into the reply network.
        while (!delayedReplies_.empty()
               && delayedReplies_.begin()->first <= cycle_) {
            noc_->injectReply(std::move(delayedReplies_.begin()->second));
            delayedReplies_.erase(delayedReplies_.begin());
        }

        // Launch remaining blocks as SMs drain.
        if (nextBlock_ < total_blocks) {
            for (int s = 0; s < config_.numSms
                            && nextBlock_ < total_blocks;
                 ++s) {
                while (nextBlock_ < total_blocks
                       && sms_[static_cast<std::size_t>(s)]->assignBlock(
                           nextBlock_)) {
                    ++nextBlock_;
                }
            }
        }

        work_left = nextBlock_ < total_blocks || noc_->busy()
                    || mc_->busy() || !delayedReplies_.empty();
        if (!work_left) {
            for (const auto &sm : sms_) {
                if (!sm->idle()) {
                    work_left = true;
                    break;
                }
            }
        }
    }

    stats_.cycles = cycle_;
    for (const auto &sm : sms_) {
        const SmStats &s = sm->stats();
        stats_.sm.issued += s.issued;
        stats_.sm.fpOps += s.fpOps;
        stats_.sm.intOps += s.intOps;
        stats_.sm.loads += s.loads;
        stats_.sm.stores += s.stores;
        stats_.sm.controlOps += s.controlOps;
        stats_.sm.sharedAccesses += s.sharedAccesses;
        stats_.sm.bankConflictCycles += s.bankConflictCycles;
        stats_.sm.idleCycles += s.idleCycles;
        stats_.sm.pivotDivergentWrites += s.pivotDivergentWrites;
        stats_.sm.regBankConflictCycles += s.regBankConflictCycles;
        stats_.sm.readyChecks += s.readyChecks;
        stats_.sm.issueStalls += s.issueStalls;
        stats_.sm.stallReplays += s.stallReplays;
        stats_.sm.frozenSteps += s.frozenSteps;
    }
    stats_.noc = noc_->stats();
    stats_.dramRowHits = mc_->rowHits();
    stats_.dramRowMisses = mc_->rowMisses();
    return stats_;
}

} // namespace bvf::gpu
