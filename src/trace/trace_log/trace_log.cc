#include "trace/trace_log/trace_log.h"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace skybyte {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'R', 'C', 'L', 'O', 'G', '1'};
constexpr char kEndMagic[8] = {'S', 'T', 'R', 'C', 'E', 'N', 'D', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxThreads = 65536;
constexpr std::uint32_t kMaxBlockRecords = 1u << 20;
constexpr std::uint32_t kMaxNameLen = 1u << 20;

constexpr std::uint32_t kEncodingRaw = 0;
constexpr std::uint32_t kEncodingSlz = 1;

struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t numThreads;
    std::uint64_t footprintBytes;
    std::uint32_t nameLen;
    std::uint32_t blockRecords;
};
static_assert(sizeof(FileHeader) == 32);

struct BlockHeader
{
    std::uint32_t tid;
    std::uint32_t recordCount;
    std::uint32_t rawSize;    ///< decompressed payload bytes
    std::uint32_t storedSize; ///< payload bytes as stored on disk
    std::uint32_t encoding;   ///< kEncodingRaw or kEncodingSlz
    std::uint32_t crc;        ///< CRC-32 of the stored payload
};
static_assert(sizeof(BlockHeader) == 24);

struct Trailer
{
    std::uint64_t indexOffset;
    std::uint64_t indexSize;
    std::uint32_t indexCrc;
    std::uint32_t reserved;
    char magic[8];
};
static_assert(sizeof(Trailer) == 32);

/** Worst-case raw (columnar, pre-compression) payload size: 10-byte
 *  vaddr varint + 5-byte computeOps varint per record, plus the
 *  isWrite bitmap. Anything larger in a block header is corrupt. */
std::uint64_t
maxRawSize(std::uint64_t record_count)
{
    return record_count * 15 + (record_count + 7) / 8;
}

/** Pack one block's records into the columnar raw payload. */
std::vector<std::uint8_t>
encodePayload(const TraceRecord *records, std::size_t count)
{
    std::vector<std::uint8_t> raw;
    raw.reserve(count * 4 + count / 8 + 16);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t v = records[i].vaddr;
        putVarint(raw, zigzagEncode(static_cast<std::int64_t>(v - prev)));
        prev = v;
    }
    for (std::size_t i = 0; i < count; ++i)
        putVarint(raw, records[i].computeOps);
    std::uint8_t bits = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (records[i].isWrite)
            bits |= static_cast<std::uint8_t>(1u << (i % 8));
        if (i % 8 == 7 || i + 1 == count) {
            raw.push_back(bits);
            bits = 0;
        }
    }
    return raw;
}

/** Inverse of encodePayload(); fully validates the byte layout. */
std::vector<TraceRecord>
decodePayload(const std::uint8_t *raw, std::size_t raw_size,
              std::size_t count)
{
    std::vector<TraceRecord> records(count);
    std::size_t pos = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t delta = zigzagDecode(getVarint(raw, raw_size,
                                                          pos));
        prev += static_cast<std::uint64_t>(delta);
        records[i].vaddr = prev;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t ops = getVarint(raw, raw_size, pos);
        if (ops > 0xffffffffu)
            throw TraceLogError("computeOps overflows 32 bits");
        records[i].computeOps = static_cast<std::uint32_t>(ops);
    }
    const std::size_t bitmap_len = (count + 7) / 8;
    if (raw_size - pos != bitmap_len)
        throw TraceLogError("block payload size mismatch");
    for (std::size_t i = 0; i < count; ++i)
        records[i].isWrite = (raw[pos + i / 8] >> (i % 8)) & 1;
    return records;
}

std::atomic<std::uint64_t> g_liveBlocks{0};
std::atomic<std::uint64_t> g_peakBlocks{0};

} // namespace

std::uint64_t
liveDecodedBlocks()
{
    return g_liveBlocks.load(std::memory_order_relaxed);
}

std::uint64_t
peakLiveDecodedBlocks()
{
    return g_peakBlocks.load(std::memory_order_relaxed);
}

void
resetPeakLiveDecodedBlocks()
{
    g_peakBlocks.store(g_liveBlocks.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

namespace detail {

BlockGauge::BlockGauge()
{
    const std::uint64_t live =
        g_liveBlocks.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = g_peakBlocks.load(std::memory_order_relaxed);
    while (live > peak
           && !g_peakBlocks.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

BlockGauge &
BlockGauge::operator=(BlockGauge &&other) noexcept
{
    if (this != &other) {
        release();
        armed_ = other.armed_;
        other.armed_ = false;
    }
    return *this;
}

BlockGauge::~BlockGauge() { release(); }

void
BlockGauge::release() noexcept
{
    if (armed_) {
        g_liveBlocks.fetch_sub(1, std::memory_order_relaxed);
        armed_ = false;
    }
}

} // namespace detail

// --- Writer -----------------------------------------------------------

TraceLogWriter::TraceLogWriter(const std::string &path,
                               const std::string &name,
                               std::uint64_t footprint_bytes,
                               int num_threads,
                               std::uint32_t block_records)
    : out_(path), blockRecords_(block_records)
{
    if (num_threads < 1
        || static_cast<std::uint32_t>(num_threads) > kMaxThreads)
        throw std::invalid_argument("trace log thread count out of "
                                    "range");
    if (block_records < 1 || block_records > kMaxBlockRecords)
        throw std::invalid_argument("trace log block size out of range");
    if (name.size() > kMaxNameLen)
        throw std::invalid_argument("trace log workload name too long");

    FileHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kVersion;
    hdr.numThreads = static_cast<std::uint32_t>(num_threads);
    hdr.footprintBytes = footprint_bytes;
    hdr.nameLen = static_cast<std::uint32_t>(name.size());
    hdr.blockRecords = block_records;
    out_.write(&hdr, sizeof(hdr));
    out_.write(name.data(), name.size());

    threads_.resize(static_cast<std::size_t>(num_threads));
    for (auto &t : threads_)
        t.pending.reserve(block_records);
}

void
TraceLogWriter::append(int tid, const TraceRecord &rec)
{
    if (tid < 0 || static_cast<std::size_t>(tid) >= threads_.size())
        throw std::invalid_argument("trace log append: bad tid");
    PerThread &t = threads_[static_cast<std::size_t>(tid)];
    t.pending.push_back(rec);
    if (t.pending.size() == blockRecords_)
        flushBlock(tid);
}

void
TraceLogWriter::flushBlock(int tid)
{
    PerThread &t = threads_[static_cast<std::size_t>(tid)];
    const std::vector<std::uint8_t> raw =
        encodePayload(t.pending.data(), t.pending.size());
    const std::vector<std::uint8_t> packed =
        slzCompress(raw.data(), raw.size());
    const bool use_slz = packed.size() < raw.size();
    const std::vector<std::uint8_t> &stored = use_slz ? packed : raw;

    BlockHeader hdr{};
    hdr.tid = static_cast<std::uint32_t>(tid);
    hdr.recordCount = static_cast<std::uint32_t>(t.pending.size());
    hdr.rawSize = static_cast<std::uint32_t>(raw.size());
    hdr.storedSize = static_cast<std::uint32_t>(stored.size());
    hdr.encoding = use_slz ? kEncodingSlz : kEncodingRaw;
    hdr.crc = crc32(stored.data(), stored.size());

    t.blockOffsets.push_back(out_.bytesWritten());
    t.blockCounts.push_back(hdr.recordCount);
    t.totalRecords += hdr.recordCount;
    out_.write(&hdr, sizeof(hdr));
    out_.write(stored.data(), stored.size());
    t.pending.clear();
}

std::uint64_t
TraceLogWriter::finish()
{
    if (finished_)
        throw std::runtime_error("trace log writer already finished");
    for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
        if (!threads_[tid].pending.empty())
            flushBlock(static_cast<int>(tid));
    }

    std::vector<std::uint8_t> index;
    std::uint64_t total = 0;
    for (const PerThread &t : threads_) {
        putVarint(index, t.blockOffsets.size());
        putVarint(index, t.totalRecords);
        std::uint64_t prev = 0;
        for (std::size_t b = 0; b < t.blockOffsets.size(); ++b) {
            // Offsets are strictly increasing per thread; deltas keep
            // the index tiny even for million-block captures.
            putVarint(index, t.blockOffsets[b] - prev);
            putVarint(index, t.blockCounts[b]);
            prev = t.blockOffsets[b];
        }
        total += t.totalRecords;
    }

    Trailer trailer{};
    trailer.indexOffset = out_.bytesWritten();
    trailer.indexSize = index.size();
    trailer.indexCrc = crc32(index.data(), index.size());
    std::memcpy(trailer.magic, kEndMagic, sizeof(kEndMagic));
    out_.write(index.data(), index.size());
    out_.write(&trailer, sizeof(trailer));
    out_.commit();
    finished_ = true;
    return total;
}

std::uint64_t
writeTraceLog(const std::string &path, Workload &workload,
              std::uint32_t block_records)
{
    TraceLogWriter writer(path, workload.name(),
                          workload.footprintBytes(),
                          workload.numThreads(), block_records);
    for (int tid = 0; tid < workload.numThreads(); ++tid) {
        TraceCursor cursor(workload, tid);
        TraceRecord rec;
        while (cursor.next(rec))
            writer.append(tid, rec);
    }
    return writer.finish();
}

// --- Reader -----------------------------------------------------------

TraceLogReader::TraceLogReader(const std::string &path)
    : pathLabel_(path)
{
    file_.open(path, std::ios::binary);
    if (!file_)
        throw std::runtime_error("cannot open trace log: " + path);
    file_.seekg(0, std::ios::end);
    fileSize_ = static_cast<std::uint64_t>(file_.tellg());
    parse();
}

TraceLogReader::TraceLogReader(std::vector<std::uint8_t> bytes)
    : buf_(std::move(bytes)), fromBuffer_(true),
      pathLabel_("<memory>"), fileSize_(buf_.size())
{
    parse();
}

void
TraceLogReader::readAt(std::uint64_t offset, void *dest,
                       std::size_t size)
{
    if (offset > fileSize_ || size > fileSize_ - offset)
        throw TraceLogError("read past end of " + pathLabel_);
    if (fromBuffer_) {
        std::memcpy(dest, buf_.data() + offset, size);
        return;
    }
    file_.seekg(static_cast<std::streamoff>(offset));
    file_.read(static_cast<char *>(dest),
               static_cast<std::streamsize>(size));
    if (!file_ || file_.gcount() != static_cast<std::streamsize>(size))
        throw TraceLogError("short read from " + pathLabel_);
}

void
TraceLogReader::parse()
{
    if (fileSize_ < sizeof(FileHeader) + sizeof(Trailer))
        throw TraceLogError("trace log too small: " + pathLabel_);

    FileHeader hdr{};
    readAt(0, &hdr, sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        throw TraceLogError("bad trace log magic: " + pathLabel_);
    if (hdr.version != kVersion)
        throw TraceLogError("unsupported trace log version");
    if (hdr.numThreads < 1 || hdr.numThreads > kMaxThreads)
        throw TraceLogError("trace log thread count out of range");
    if (hdr.blockRecords < 1 || hdr.blockRecords > kMaxBlockRecords)
        throw TraceLogError("trace log block size out of range");
    if (hdr.nameLen > kMaxNameLen
        || hdr.nameLen
               > fileSize_ - sizeof(FileHeader) - sizeof(Trailer))
        throw TraceLogError("trace log name overruns file");
    footprint_ = hdr.footprintBytes;
    blockRecords_ = hdr.blockRecords;
    name_.resize(hdr.nameLen);
    readAt(sizeof(FileHeader), name_.data(), hdr.nameLen);
    const std::uint64_t data_begin = sizeof(FileHeader) + hdr.nameLen;

    Trailer trailer{};
    readAt(fileSize_ - sizeof(Trailer), &trailer, sizeof(trailer));
    if (std::memcmp(trailer.magic, kEndMagic, sizeof(kEndMagic)) != 0)
        throw TraceLogError("bad trace log trailer: " + pathLabel_);
    // Reserved must be zero so every trailer byte is load-bearing —
    // the corruption tests flip arbitrary bytes and expect rejection.
    if (trailer.reserved != 0)
        throw TraceLogError("trace log trailer reserved bits set");
    if (trailer.indexOffset < data_begin
        || trailer.indexOffset > fileSize_ - sizeof(Trailer)
        || trailer.indexSize
               > fileSize_ - sizeof(Trailer) - trailer.indexOffset)
        throw TraceLogError("trace log index out of bounds");
    dataEnd_ = trailer.indexOffset;

    std::vector<std::uint8_t> index(trailer.indexSize);
    readAt(trailer.indexOffset, index.data(), index.size());
    if (crc32(index.data(), index.size()) != trailer.indexCrc)
        throw TraceLogError("trace log index CRC mismatch");

    threads_.resize(hdr.numThreads);
    std::size_t pos = 0;
    for (PerThread &t : threads_) {
        const std::uint64_t blocks =
            getVarint(index.data(), index.size(), pos);
        // Every block costs at least its header, so the block count is
        // bounded by the data region size however corrupt the index.
        if (blocks > (dataEnd_ - data_begin) / sizeof(BlockHeader) + 1)
            throw TraceLogError("trace log block count out of range");
        t.totalRecords = getVarint(index.data(), index.size(), pos);
        t.blockOffsets.reserve(blocks);
        t.blockCounts.reserve(blocks);
        std::uint64_t offset = 0;
        std::uint64_t records = 0;
        for (std::uint64_t b = 0; b < blocks; ++b) {
            offset += getVarint(index.data(), index.size(), pos);
            const std::uint64_t count =
                getVarint(index.data(), index.size(), pos);
            if (offset < data_begin
                || offset > dataEnd_ - sizeof(BlockHeader))
                throw TraceLogError("trace log block offset out of "
                                    "bounds");
            if (count < 1 || count > blockRecords_)
                throw TraceLogError("trace log block record count out "
                                    "of range");
            // O(1) record lookup depends on every non-final block
            // being full.
            if (b + 1 < blocks && count != blockRecords_)
                throw TraceLogError("trace log interior block not "
                                    "full");
            t.blockOffsets.push_back(offset);
            t.blockCounts.push_back(
                static_cast<std::uint32_t>(count));
            records += count;
        }
        if (records != t.totalRecords)
            throw TraceLogError("trace log index record total "
                                "mismatch");
    }
    if (pos != index.size())
        throw TraceLogError("trace log index has trailing bytes");
}

DecodedBlock
TraceLogReader::readBlock(int tid, std::uint64_t block_idx)
{
    if (tid < 0 || static_cast<std::size_t>(tid) >= threads_.size())
        throw TraceLogError("trace log readBlock: bad tid");
    const PerThread &t = threads_[static_cast<std::size_t>(tid)];
    if (block_idx >= t.blockOffsets.size())
        throw TraceLogError("trace log readBlock: bad block index");
    const std::uint64_t offset = t.blockOffsets[block_idx];

    BlockHeader hdr{};
    readAt(offset, &hdr, sizeof(hdr));
    if (hdr.tid != static_cast<std::uint32_t>(tid)
        || hdr.recordCount != t.blockCounts[block_idx])
        throw TraceLogError("trace log block disagrees with index");
    if (hdr.rawSize > maxRawSize(hdr.recordCount))
        throw TraceLogError("trace log block raw size out of range");
    if (hdr.storedSize > dataEnd_ - offset - sizeof(BlockHeader))
        throw TraceLogError("trace log block overruns data region");
    if (hdr.encoding == kEncodingRaw) {
        if (hdr.storedSize != hdr.rawSize)
            throw TraceLogError("trace log raw block size mismatch");
    } else if (hdr.encoding != kEncodingSlz) {
        throw TraceLogError("trace log block has unknown encoding");
    }

    std::vector<std::uint8_t> stored(hdr.storedSize);
    readAt(offset + sizeof(BlockHeader), stored.data(), stored.size());
    if (crc32(stored.data(), stored.size()) != hdr.crc)
        throw TraceLogError("trace log block CRC mismatch");

    DecodedBlock block;
    block.tid = tid;
    block.firstRecord = block_idx * blockRecords_;
    block.rawBytes = hdr.rawSize;
    block.storedBytes = hdr.storedSize;
    block.compressed = hdr.encoding == kEncodingSlz;
    if (block.compressed) {
        const std::vector<std::uint8_t> raw =
            slzDecompress(stored.data(), stored.size(), hdr.rawSize);
        block.records = decodePayload(raw.data(), raw.size(),
                                      hdr.recordCount);
    } else {
        block.records = decodePayload(stored.data(), stored.size(),
                                      hdr.recordCount);
    }
    ++blocksDecoded_;
    return block;
}

} // namespace skybyte
