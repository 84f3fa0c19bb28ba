/**
 * @file
 * Wire protocol implementation.
 */

#include "server/protocol.hh"

#include <bit>
#include <cstring>

#include "common/crc32.hh"
#include "circuit/mem_cell.hh"
#include "common/logging.hh"

namespace bvf::server
{

namespace
{

constexpr char kMagic[4] = {'B', 'V', 'F', 'P'};

Error
corrupt(const std::string &what)
{
    return Error{ErrorCode::Corrupt, what};
}

} // namespace

std::string
msgTypeName(MsgType type)
{
    const int slot = messageSlot(type);
    if (slot < 0)
        return "?";
    std::string name = kMessageKinds[static_cast<std::size_t>(slot)].label;
    for (char &c : name) {
        if (c == '_')
            c = '-';
    }
    const bool response = static_cast<std::uint8_t>(type) & 0x80;
    return name + (response ? "-response" : "-request");
}

bool
msgTypeKnown(std::uint8_t raw)
{
    return messageSlot(static_cast<MsgType>(raw)) >= 0;
}

// --- Framing ----------------------------------------------------------

std::string
encodeFrame(MsgType type, std::string_view payload)
{
    panic_if(payload.size() > kMaxPayload,
             "frame payload of %zu bytes exceeds the %u-byte cap",
             payload.size(), kMaxPayload);
    WireWriter w;
    // The header is itself little-endian wire fields; reuse the writer.
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    w.putU8(kProtocolVersion);
    w.putU8(static_cast<std::uint8_t>(type));
    w.putU16(0); // flags
    w.putU32(static_cast<std::uint32_t>(payload.size()));
    out += w.str();
    // The CRC covers the header fields before it as well as the
    // payload: a type byte flipped into another *valid* type would
    // otherwise parse clean.
    Crc32 crc;
    crc.update(out.data(), out.size());
    crc.update(payload.data(), payload.size());
    WireWriter c;
    c.putU32(crc.value());
    out += c.str();
    out.append(payload);
    return out;
}

Result<Frame>
parseFrame(std::string_view bytes, std::size_t &consumed)
{
    if (bytes.size() < kHeaderBytes)
        return Error{ErrorCode::Truncated, "incomplete frame header"};
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return corrupt("bad frame magic");

    WireReader r(bytes.substr(sizeof(kMagic),
                              kHeaderBytes - sizeof(kMagic)));
    std::uint8_t version = 0, rawType = 0;
    std::uint16_t flags = 0;
    std::uint32_t length = 0, crc = 0;
    r.getU8(version);
    r.getU8(rawType);
    r.getU16(flags);
    r.getU32(length);
    r.getU32(crc);

    if (version != kProtocolVersion) {
        return Error{ErrorCode::Unsupported,
                     strFormat("protocol version %u, this build speaks %u",
                               version, kProtocolVersion)};
    }
    if (flags != 0)
        return corrupt("reserved frame flags set");
    if (!msgTypeKnown(rawType)) {
        return corrupt(strFormat("unknown message type 0x%02x", rawType));
    }
    if (length > kMaxPayload) {
        // Corrupt, not InvalidArgument: no conforming peer ever sends a
        // length above the cap, so an oversized field means the stream
        // itself is damaged.  The distinction matters to the fleet
        // coordinator, which retries framing damage on another worker
        // but records other error codes as application verdicts -- a
        // bit flip in this field must not convict the job it hit.
        return corrupt(strFormat("frame payload of %u bytes exceeds the "
                                 "%u-byte cap",
                                 length, kMaxPayload));
    }
    if (bytes.size() < kHeaderBytes + length)
        return Error{ErrorCode::Truncated, "incomplete frame payload"};

    const std::string_view payload = bytes.substr(kHeaderBytes, length);
    Crc32 check;
    check.update(bytes.data(), kHeaderBytes - sizeof(crc));
    check.update(payload.data(), payload.size());
    if (check.value() != crc)
        return corrupt("frame CRC mismatch");

    Frame frame;
    frame.type = static_cast<MsgType>(rawType);
    frame.payload.assign(payload);
    consumed = kHeaderBytes + length;
    return frame;
}

Frame
errorFrame(const Error &error)
{
    WireError wire;
    wire.code = static_cast<std::uint8_t>(error.code);
    wire.message = error.message;
    return Frame{MsgType::ErrorResponse, wire.encode()};
}

StreamStep
nextRequest(std::string &buf)
{
    std::size_t consumed = 0;
    auto parsed = parseFrame(buf, consumed);
    if (parsed.ok()) {
        buf.erase(0, consumed);
        return {StreamStep::Request, std::move(parsed.value())};
    }
    if (parsed.error().code == ErrorCode::Truncated)
        return {StreamStep::NeedMore, {}};
    return {StreamStep::HangUp, errorFrame(parsed.error())};
}

// --- Wire primitives --------------------------------------------------

void
WireWriter::putU8(std::uint8_t v)
{
    buf_.push_back(static_cast<char>(v));
}

void
WireWriter::putU16(std::uint16_t v)
{
    putU8(static_cast<std::uint8_t>(v));
    putU8(static_cast<std::uint8_t>(v >> 8));
}

void
WireWriter::putU32(std::uint32_t v)
{
    putU16(static_cast<std::uint16_t>(v));
    putU16(static_cast<std::uint16_t>(v >> 16));
}

void
WireWriter::putU64(std::uint64_t v)
{
    putU32(static_cast<std::uint32_t>(v));
    putU32(static_cast<std::uint32_t>(v >> 32));
}

void
WireWriter::putF64(double v)
{
    putU64(std::bit_cast<std::uint64_t>(v));
}

void
WireWriter::putString(std::string_view s)
{
    panic_if(s.size() > kMaxString,
             "wire string of %zu bytes exceeds the %u-byte cap",
             s.size(), kMaxString);
    putU32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
}

void
WireWriter::putBlob(std::string_view s)
{
    // Blobs (kernel bytecode) are capped by the frame payload, not the
    // short-string cap; 64 bytes of headroom cover the rest of the
    // message around the blob.
    panic_if(s.size() > kMaxPayload - 64,
             "wire blob of %zu bytes exceeds the frame payload cap",
             s.size());
    putU32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
}

bool
WireReader::getU8(std::uint8_t &v)
{
    if (pos_ + 1 > bytes_.size())
        return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
}

bool
WireReader::getU16(std::uint16_t &v)
{
    std::uint8_t lo = 0, hi = 0;
    if (!getU8(lo) || !getU8(hi))
        return false;
    v = static_cast<std::uint16_t>(lo | (hi << 8));
    return true;
}

bool
WireReader::getU32(std::uint32_t &v)
{
    std::uint16_t lo = 0, hi = 0;
    if (!getU16(lo) || !getU16(hi))
        return false;
    v = static_cast<std::uint32_t>(lo)
        | (static_cast<std::uint32_t>(hi) << 16);
    return true;
}

bool
WireReader::getU64(std::uint64_t &v)
{
    std::uint32_t lo = 0, hi = 0;
    if (!getU32(lo) || !getU32(hi))
        return false;
    v = static_cast<std::uint64_t>(lo)
        | (static_cast<std::uint64_t>(hi) << 32);
    return true;
}

bool
WireReader::getF64(double &v)
{
    std::uint64_t bits = 0;
    if (!getU64(bits))
        return false;
    v = std::bit_cast<double>(bits);
    return true;
}

bool
WireReader::getString(std::string &v, std::uint32_t maxLen)
{
    std::uint32_t len = 0;
    if (!getU32(len) || len > maxLen
        || pos_ + len > bytes_.size()) {
        return false;
    }
    v.assign(bytes_.substr(pos_, len));
    pos_ += len;
    return true;
}

// --- The evaluation config on the wire -----------------------------------

std::uint8_t
pstateIndex(const gpu::PState &pstate)
{
    for (std::uint8_t i = 0; i < core::kPStateSpellings.size(); ++i) {
        const gpu::PState &p = core::kPStateSpellings[i].value();
        if (p.frequency == pstate.frequency && p.vdd == pstate.vdd)
            return i;
    }
    panic("P-state %s has no wire index", pstate.name.c_str());
}

Result<void>
checkServable(const core::EvalConfig &config)
{
    if (circuit::cellReliableAt(config.cell, config.cellsBitline))
        return {};
    return Error{ErrorCode::InvalidArgument,
                 strFormat("cell %s at %d cells/bitline is a read-disturb "
                           "fault study, whose result depends on a fault "
                           "seed no request carries; run it with bvf_sim",
                           circuit::cellKindName(config.cell).c_str(),
                           config.cellsBitline)};
}

} // namespace bvf::server
