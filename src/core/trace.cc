/**
 * @file
 * Trace serialization implementation.
 */

#include "core/trace.hh"

#include <cstring>
#include <istream>
#include <ostream>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace bvf::core
{

namespace
{

constexpr char magic[4] = {'B', 'V', 'F', 'T'};
constexpr char batchMagic[4] = {'B', 'T', 'C', 'H'};
constexpr char footerMagic[4] = {'B', 'V', 'F', 'E'};
constexpr std::uint32_t version = 2;

/** Flush threshold: one CRC per ~64KiB of records. */
constexpr std::size_t batchFlushBytes = 64 * 1024;

/** Upper bound on a batch payload a reader will allocate. */
constexpr std::uint32_t maxBatchBytes = 1u << 30;

enum class RecordKind : std::uint8_t
{
    Access = 1,
    Fetch = 2,
    Noc = 3,
};

template <typename T>
void
writeRaw(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readRaw(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    return value;
}

/**
 * A record's fixed header, written as its in-memory bytes. `reserved`
 * fills what would otherwise be 4 bytes of tail padding, so every byte
 * a writer emits is defined.
 */
struct RecordHeader
{
    std::uint8_t kind;
    std::uint8_t a; //!< unit, or channel low byte
    std::uint8_t b; //!< access type, or channel high byte
    std::uint8_t flags;
    std::uint32_t activeMask;
    std::uint64_t cycle;
    std::uint32_t count;
    std::uint32_t reserved = 0; //!< written 0, ignored on replay
};
static_assert(sizeof(RecordHeader) == 24,
              "the on-disk trace record header is 24 bytes");

/** Bounds-checked cursor over an in-memory batch payload. */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool
    read(void *dst, std::size_t n)
    {
        if (off_ + n > size_)
            return false;
        std::memcpy(dst, data_ + off_, n);
        off_ += n;
        return true;
    }

    bool done() const { return off_ == size_; }
    std::size_t offset() const { return off_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t off_ = 0;
};

/**
 * Decode one record from @p reader and deliver it to @p sink.
 * Returns an error description on malformed input, empty on success.
 */
std::string
dispatchRecord(ByteReader &reader, sram::AccessSink &sink,
               std::vector<Word> &words, std::vector<Word64> &instrs)
{
    RecordHeader h{};
    if (!reader.read(&h, sizeof(h)))
        return "truncated record header";
    switch (static_cast<RecordKind>(h.kind)) {
      case RecordKind::Access:
        words.resize(h.count);
        if (!reader.read(words.data(), h.count * sizeof(Word)))
            return "truncated access record";
        sink.onAccess(static_cast<coder::UnitId>(h.a),
                      static_cast<sram::AccessType>(h.b), words,
                      h.activeMask, h.cycle);
        return {};
      case RecordKind::Fetch:
        instrs.resize(h.count);
        if (!reader.read(instrs.data(), h.count * sizeof(Word64)))
            return "truncated fetch record";
        sink.onFetch(static_cast<coder::UnitId>(h.a),
                     static_cast<sram::AccessType>(h.b), instrs,
                     h.cycle);
        return {};
      case RecordKind::Noc: {
        words.resize(h.count);
        if (!reader.read(words.data(), h.count * sizeof(Word)))
            return "truncated NoC record";
        const int channel =
            static_cast<int>(h.a) | (static_cast<int>(h.b) << 8);
        sink.onNocPacket(channel, words, h.flags != 0, h.cycle);
        return {};
      }
      default:
        return strFormat("corrupt record kind %u", h.kind);
    }
}

/**
 * Close out a replay that hit damage: salvage keeps the prefix,
 * otherwise the damage becomes the caller's error.
 */
Result<ReplaySummary>
failOrSalvage(ReplaySummary summary, const ReplayOptions &opts,
              ErrorCode code, std::string what)
{
    if (!opts.salvage)
        return Error{code, std::move(what)};
    summary.salvaged = true;
    summary.warning = std::move(what);
    return summary;
}

} // namespace

TraceWriter::TraceWriter(std::ostream &out) : out_(out)
{
    out_.write(magic, sizeof(magic));
    writeRaw(out_, version);
    if (!out_)
        ioError_ = true;
    batch_.reserve(batchFlushBytes + 4096);
}

TraceWriter::~TraceWriter()
{
    if (finished_)
        return;
    const auto result = finish();
    if (!result.ok())
        warn("trace writer: %s", result.error().describe().c_str());
}

void
TraceWriter::appendRecord(const void *header, std::size_t headerBytes,
                          const void *payload, std::size_t payloadBytes)
{
    const auto *hp = static_cast<const char *>(header);
    batch_.insert(batch_.end(), hp, hp + headerBytes);
    if (payloadBytes > 0) {
        const auto *pp = static_cast<const char *>(payload);
        batch_.insert(batch_.end(), pp, pp + payloadBytes);
    }
    ++batchRecords_;
    ++records_;
    if (batch_.size() >= batchFlushBytes)
        flushBatch();
}

void
TraceWriter::flushBatch()
{
    if (batch_.empty())
        return;
    out_.write(batchMagic, sizeof(batchMagic));
    writeRaw(out_, static_cast<std::uint32_t>(batch_.size()));
    writeRaw(out_, batchRecords_);
    writeRaw(out_, crc32(batch_.data(), batch_.size()));
    out_.write(batch_.data(),
               static_cast<std::streamsize>(batch_.size()));
    if (!out_)
        ioError_ = true;
    batch_.clear();
    batchRecords_ = 0;
}

Result<std::uint64_t>
TraceWriter::finish()
{
    if (!finished_) {
        flushBatch();
        out_.write(footerMagic, sizeof(footerMagic));
        writeRaw(out_, records_);
        writeRaw(out_, crc32(&records_, sizeof(records_)));
        out_.flush();
        if (!out_)
            ioError_ = true;
        finished_ = true;
    }
    if (ioError_) {
        return Error{ErrorCode::Io,
                     "trace stream write failed; output is incomplete"};
    }
    return records_;
}

void
TraceWriter::onAccess(coder::UnitId unit, sram::AccessType type,
                      std::span<const Word> block,
                      std::uint32_t activeMask, std::uint64_t cycle)
{
    RecordHeader h{};
    h.kind = static_cast<std::uint8_t>(RecordKind::Access);
    h.a = static_cast<std::uint8_t>(unit);
    h.b = static_cast<std::uint8_t>(type);
    h.activeMask = activeMask;
    h.cycle = cycle;
    h.count = static_cast<std::uint32_t>(block.size());
    appendRecord(&h, sizeof(h), block.data(), block.size_bytes());
}

void
TraceWriter::onFetch(coder::UnitId unit, sram::AccessType type,
                     std::span<const Word64> instrs, std::uint64_t cycle)
{
    RecordHeader h{};
    h.kind = static_cast<std::uint8_t>(RecordKind::Fetch);
    h.a = static_cast<std::uint8_t>(unit);
    h.b = static_cast<std::uint8_t>(type);
    h.cycle = cycle;
    h.count = static_cast<std::uint32_t>(instrs.size());
    appendRecord(&h, sizeof(h), instrs.data(), instrs.size_bytes());
}

void
TraceWriter::onNocPacket(int channel, std::span<const Word> payload,
                         bool instrStream, std::uint64_t cycle)
{
    RecordHeader h{};
    h.kind = static_cast<std::uint8_t>(RecordKind::Noc);
    h.a = static_cast<std::uint8_t>(channel & 0xff);
    h.b = static_cast<std::uint8_t>((channel >> 8) & 0xff);
    h.flags = instrStream ? 1 : 0;
    h.cycle = cycle;
    h.count = static_cast<std::uint32_t>(payload.size());
    appendRecord(&h, sizeof(h), payload.data(), payload.size_bytes());
}

Result<ReplaySummary>
replayTrace(std::istream &in, sram::AccessSink &sink,
            const ReplayOptions &opts)
{
    char m[4];
    in.read(m, sizeof(m));
    if (!in || std::memcmp(m, magic, sizeof(magic)) != 0)
        return Error{ErrorCode::Corrupt, "not a BVF trace stream"};
    const auto v = readRaw<std::uint32_t>(in);
    if (!in)
        return Error{ErrorCode::Truncated, "trace ends inside header"};
    if (v != version) {
        return Error{ErrorCode::Unsupported,
                     strFormat("unsupported trace version %u", v)};
    }

    ReplaySummary summary;
    std::vector<char> payload;
    std::vector<Word> words;
    std::vector<Word64> instrs;
    for (;;) {
        char section[4];
        in.read(section, sizeof(section));
        if (!in && in.eof() && in.gcount() == 0) {
            // v2 streams must end with a footer: a clean EOF here means
            // trailing batches (or the whole tail) were lost.
            return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                 "trace ends without footer");
        }
        if (!in) {
            return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                 "trace ends inside a section marker");
        }

        if (std::memcmp(section, footerMagic, sizeof(footerMagic)) == 0) {
            const auto total = readRaw<std::uint64_t>(in);
            const auto crc = readRaw<std::uint32_t>(in);
            if (!in) {
                return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                     "trace ends inside footer");
            }
            if (crc32(&total, sizeof(total)) != crc) {
                return failOrSalvage(summary, opts, ErrorCode::Corrupt,
                                     "footer checksum mismatch");
            }
            if (total != summary.records) {
                return failOrSalvage(
                    summary, opts, ErrorCode::Truncated,
                    strFormat("footer records %llu but replayed %llu: "
                              "batches are missing",
                              static_cast<unsigned long long>(total),
                              static_cast<unsigned long long>(
                                  summary.records)));
            }
            summary.sawFooter = true;
            return summary;
        }

        if (std::memcmp(section, batchMagic, sizeof(batchMagic)) != 0) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("corrupt section marker after batch %llu",
                          static_cast<unsigned long long>(
                              summary.batches)));
        }

        const auto bytes = readRaw<std::uint32_t>(in);
        const auto record_count = readRaw<std::uint32_t>(in);
        const auto crc = readRaw<std::uint32_t>(in);
        if (!in) {
            return failOrSalvage(summary, opts, ErrorCode::Truncated,
                                 "trace ends inside a batch header");
        }
        if (bytes == 0 || bytes > maxBatchBytes) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("implausible batch size %u", bytes));
        }
        payload.resize(bytes);
        in.read(payload.data(), static_cast<std::streamsize>(bytes));
        if (!in) {
            return failOrSalvage(
                summary, opts, ErrorCode::Truncated,
                strFormat("batch %llu truncated",
                          static_cast<unsigned long long>(
                              summary.batches)));
        }
        if (crc32(payload.data(), payload.size()) != crc) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("batch %llu checksum mismatch",
                          static_cast<unsigned long long>(
                              summary.batches)));
        }

        // The batch is intact; only now may records reach the sink.
        ByteReader reader(payload.data(), payload.size());
        std::uint32_t replayed = 0;
        while (!reader.done()) {
            const std::string err =
                dispatchRecord(reader, sink, words, instrs);
            if (!err.empty()) {
                return failOrSalvage(
                    summary, opts, ErrorCode::Corrupt,
                    strFormat("batch %llu record %u: %s",
                              static_cast<unsigned long long>(
                                  summary.batches),
                              replayed, err.c_str()));
            }
            ++replayed;
            ++summary.records;
        }
        if (replayed != record_count) {
            return failOrSalvage(
                summary, opts, ErrorCode::Corrupt,
                strFormat("batch %llu holds %u records, header claims "
                          "%u",
                          static_cast<unsigned long long>(
                              summary.batches),
                          replayed, record_count));
        }
        ++summary.batches;
    }
}

} // namespace bvf::core
