/**
 * @file
 * Tests for the STRC trace-log pipeline (trace/trace_log/): codec
 * units, writer/reader round trips across block-boundary record
 * counts, O(1) block lookup by record index, corrupt/truncated-file
 * error paths, the bounded-memory guarantee of the streaming replay
 * workload, and the headline equivalence — a System replaying an STRC
 * capture produces a byte-identical SimResult report to the same
 * System running the live generator the capture was taken from.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include "common/fs.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/system.h"
#include "trace/trace_log/codec.h"
#include "trace/trace_log/trace_log.h"
#include "trace/trace_log/trace_log_workload.h"
#include "trace/workload.h"

namespace skybyte {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    const std::string text = readFileText(path);
    return {text.begin(), text.end()};
}

// --- Codec units ------------------------------------------------------

TEST(TraceLogCodec, VarintRoundTrip)
{
    const std::uint64_t values[] = {
        0,   1,    127,  128,        129,
        300, 1u << 20, ~0ULL >> 1, ~0ULL - 1, ~0ULL,
    };
    std::vector<std::uint8_t> buf;
    for (const std::uint64_t v : values)
        putVarint(buf, v);
    std::size_t pos = 0;
    for (const std::uint64_t v : values)
        EXPECT_EQ(getVarint(buf.data(), buf.size(), pos), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(TraceLogCodec, VarintRejectsTruncationAndOverflow)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, ~0ULL);
    ASSERT_EQ(buf.size(), 10u);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
        std::size_t pos = 0;
        EXPECT_THROW(getVarint(buf.data(), cut, pos), TraceLogError);
    }
    // 10th byte with any bit above the top u64 bit set must throw
    // rather than silently wrap.
    std::vector<std::uint8_t> wide(9, 0x80);
    wide.push_back(0x02);
    std::size_t pos = 0;
    EXPECT_THROW(getVarint(wide.data(), wide.size(), pos),
                 TraceLogError);
}

TEST(TraceLogCodec, ZigzagRoundTrip)
{
    for (const std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{64}, std::int64_t{-64},
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
    }
    // Small magnitudes must encode small (that is the point).
    EXPECT_LE(zigzagEncode(-2), 4u);
}

TEST(TraceLogCodec, Crc32KnownVector)
{
    // The standard IEEE check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(TraceLogCodec, SlzRoundTripCompressible)
{
    // Long repeated runs: must round-trip AND actually shrink.
    std::vector<std::uint8_t> data;
    for (int i = 0; i < 500; ++i)
        data.push_back(static_cast<std::uint8_t>(i % 7));
    const auto packed = slzCompress(data.data(), data.size());
    EXPECT_LT(packed.size(), data.size());
    const auto out =
        slzDecompress(packed.data(), packed.size(), data.size());
    EXPECT_EQ(out, data);
}

TEST(TraceLogCodec, SlzRoundTripIncompressibleAndEdges)
{
    // Pseudo-random bytes (deterministic LCG), plus tiny inputs.
    std::vector<std::uint8_t> data;
    std::uint32_t x = 123456789;
    for (int i = 0; i < 1000; ++i) {
        x = x * 1664525u + 1013904223u;
        data.push_back(static_cast<std::uint8_t>(x >> 24));
    }
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{17}, data.size()}) {
        const auto packed = slzCompress(data.data(), n);
        const auto out = slzDecompress(packed.data(), packed.size(), n);
        EXPECT_EQ(out, std::vector<std::uint8_t>(data.begin(),
                                                 data.begin() + n));
    }
}

TEST(TraceLogCodec, SlzDecompressRejectsCorruptStreams)
{
    std::vector<std::uint8_t> data(300, 0xab);
    data[7] = 1;
    const auto packed = slzCompress(data.data(), data.size());
    // Truncations at every prefix length must throw, never crash.
    for (std::size_t cut = 0; cut < packed.size(); ++cut) {
        EXPECT_THROW(slzDecompress(packed.data(), cut, data.size()),
                     TraceLogError);
    }
    // Wrong declared size in both directions.
    EXPECT_THROW(
        slzDecompress(packed.data(), packed.size(), data.size() - 1),
        TraceLogError);
    EXPECT_THROW(
        slzDecompress(packed.data(), packed.size(), data.size() + 1),
        TraceLogError);
    // A match offset of zero / before the output start must throw.
    const std::vector<std::uint8_t> bad_offset = {
        0x10, 0xaa, 0x00, 0x00, 0x00};
    EXPECT_THROW(
        slzDecompress(bad_offset.data(), bad_offset.size(), 100),
        TraceLogError);
    const std::vector<std::uint8_t> far_offset = {
        0x10, 0xaa, 0x05, 0x00, 0x00};
    EXPECT_THROW(
        slzDecompress(far_offset.data(), far_offset.size(), 100),
        TraceLogError);
}

// --- Writer / reader round trips --------------------------------------

/** Deterministic synthetic records mixing locality and randomness so
 *  both codec paths (compressed and raw-stored) get exercised. */
std::vector<TraceRecord>
makeRecords(std::size_t n, std::uint64_t seed)
{
    std::vector<TraceRecord> records(n);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    std::uint64_t addr = Workload::kDataBase;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x % 4 == 0)
            addr = Workload::kDataBase + (x % (1 << 24));
        else
            addr += 64;
        records[i] = {static_cast<std::uint32_t>(x % 37),
                      x % 5 == 0, addr};
    }
    return records;
}

/** Every record of thread @p tid, decoded block by block. */
std::vector<TraceRecord>
readStream(TraceLogReader &reader, int tid)
{
    std::vector<TraceRecord> records;
    for (std::uint64_t b = 0; b < reader.blockCount(tid); ++b) {
        const DecodedBlock block = reader.readBlock(tid, b);
        records.insert(records.end(), block.records.begin(),
                       block.records.end());
    }
    return records;
}

void
expectSameRecords(const std::vector<TraceRecord> &a,
                  const std::vector<TraceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].vaddr, b[i].vaddr) << i;
        EXPECT_EQ(a[i].computeOps, b[i].computeOps) << i;
        EXPECT_EQ(a[i].isWrite, b[i].isWrite) << i;
    }
}

TEST(TraceLogRoundTrip, BlockBoundaryRecordCounts)
{
    constexpr std::uint32_t kBlock = 8;
    // Thread record counts straddling every block-boundary case:
    // empty, partial, exactly one block, one more, multiple blocks.
    const std::size_t counts[] = {0, 1, 7, 8, 9, 16, 17, 40};
    const int threads = static_cast<int>(std::size(counts));
    const std::string path = tmpPath("boundary.strc");

    std::vector<std::vector<TraceRecord>> streams;
    TraceLogWriter writer(path, "boundary", 1 << 20, threads, kBlock);
    for (int t = 0; t < threads; ++t) {
        streams.push_back(makeRecords(counts[t], t + 1));
        for (const TraceRecord &rec : streams.back())
            writer.append(t, rec);
    }
    const std::uint64_t total = writer.finish();
    EXPECT_EQ(total, std::accumulate(std::begin(counts),
                                     std::end(counts), std::size_t{0}));

    TraceLogReader reader(path);
    EXPECT_EQ(reader.name(), "boundary");
    EXPECT_EQ(reader.footprintBytes(), 1u << 20);
    EXPECT_EQ(reader.numThreads(), threads);
    EXPECT_EQ(reader.blockRecords(), kBlock);
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(reader.totalRecords(t), counts[t]) << t;
        EXPECT_EQ(reader.blockCount(t), (counts[t] + kBlock - 1) / kBlock)
            << t;
        expectSameRecords(streams[static_cast<std::size_t>(t)],
                          readStream(reader, t));
    }
    std::remove(path.c_str());
}

TEST(TraceLogRoundTrip, CaptureMatchesGeneratorStream)
{
    WorkloadParams p;
    p.numThreads = 3;
    p.instrPerThread = 20'000;
    p.footprintBytes = 4 * 1024 * 1024;
    auto original = makeWorkload("ycsb", p);
    const std::string path = tmpPath("capture.strc");
    const std::uint64_t written = writeTraceLog(path, *original, 256);
    EXPECT_GT(written, 0u);

    TraceLogReader reader(path);
    EXPECT_EQ(reader.name(), "ycsb");
    auto fresh = makeWorkload("ycsb", p);
    for (int t = 0; t < 3; ++t) {
        TraceCursor cursor(*fresh, t);
        std::vector<TraceRecord> want;
        TraceRecord rec;
        while (cursor.next(rec))
            want.push_back(rec);
        expectSameRecords(want, readStream(reader, t));
        EXPECT_EQ(want.size(), reader.totalRecords(t));
    }
    std::remove(path.c_str());
}

TEST(TraceLogWriter, AbandonedWriterLeavesNoFile)
{
    const std::string path = tmpPath("abandoned.strc");
    {
        TraceLogWriter writer(path, "w", 0, 1, 8);
        writer.append(0, {1, false, Workload::kDataBase});
        // no finish()
    }
    EXPECT_FALSE(fileExists(path));
}

// --- Block lookup -----------------------------------------------------

TEST(TraceLogSeek, RecordIndexMapsToOneBlock)
{
    constexpr std::uint32_t kBlock = 16;
    const std::size_t n = 1000;
    const std::string path = tmpPath("seek.strc");
    const std::vector<TraceRecord> stream = makeRecords(n, 99);
    {
        TraceLogWriter writer(path, "seek", 0, 1, kBlock);
        for (const TraceRecord &rec : stream)
            writer.append(0, rec);
        writer.finish();
    }

    TraceLogReader reader(path);
    ASSERT_EQ(reader.blockRecords(), kBlock);
    // Boundary-heavy probe set: block starts, ends, interior, last.
    for (const std::uint64_t r :
         {0, 1, 15, 16, 17, 31, 32, 500, 767, 991, 992, 999}) {
        const std::uint64_t before = reader.blocksDecoded();
        const DecodedBlock block =
            reader.readBlock(0, r / reader.blockRecords());
        // O(1): reaching record r decodes exactly its own block.
        EXPECT_EQ(reader.blocksDecoded() - before, 1u) << r;
        ASSERT_LE(block.firstRecord, r);
        ASSERT_LT(r - block.firstRecord, block.records.size()) << r;
        const TraceRecord &rec = block.records[r - block.firstRecord];
        EXPECT_EQ(rec.vaddr, stream[r].vaddr) << r;
        EXPECT_EQ(rec.computeOps, stream[r].computeOps) << r;
        EXPECT_EQ(rec.isWrite, stream[r].isWrite) << r;
    }
    // Past the last block is an error, not an empty block.
    EXPECT_THROW(reader.readBlock(0, reader.blockCount(0)),
                 TraceLogError);
    std::remove(path.c_str());
}

// --- Corrupt / truncated files ----------------------------------------

class TraceLogCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string path = tmpPath("corrupt.strc");
        TraceLogWriter writer(path, "corrupt", 0, 2, 8);
        const auto records = makeRecords(100, 5);
        for (const TraceRecord &rec : records) {
            writer.append(0, rec);
            writer.append(1, rec);
        }
        writer.finish();
        bytes_ = fileBytes(path);
        std::remove(path.c_str());
    }

    /** Expect constructing a reader over @p mutated to throw. */
    void
    expectRejected(std::vector<std::uint8_t> mutated,
                   const std::string &what)
    {
        try {
            TraceLogReader reader(std::move(mutated));
            // Header/index parse alone may not see a block-level
            // corruption; decoding every block must then hit it.
            for (int t = 0; t < reader.numThreads(); ++t)
                readStream(reader, t);
            FAIL() << "not rejected: " << what;
        } catch (const TraceLogError &) {
        }
    }

    std::vector<std::uint8_t> bytes_;
};

TEST_F(TraceLogCorruption, TruncationsAtEveryRegionRejected)
{
    // Chop the file at a spread of prefix lengths covering header,
    // name, block, index and trailer regions.
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          std::size_t{40}, bytes_.size() / 2, bytes_.size() - 40,
          bytes_.size() - 1}) {
        expectRejected({bytes_.begin(),
                        bytes_.begin() + static_cast<long>(keep)},
                       "truncate@" + std::to_string(keep));
    }
}

TEST_F(TraceLogCorruption, HeaderCorruptionsRejected)
{
    auto bad = bytes_;
    bad[0] ^= 0xff; // magic
    expectRejected(bad, "magic");

    bad = bytes_;
    bad[8] = 9; // version
    expectRejected(bad, "version");

    bad = bytes_;
    bad[12] = 0xff; // thread count blown up
    bad[13] = 0xff;
    expectRejected(bad, "threads");

    bad = bytes_;
    bad[28] = 0; // blockRecords = 0
    expectRejected(bad, "blockRecords");
}

TEST_F(TraceLogCorruption, BlockAndIndexCorruptionsRejected)
{
    // Flip one byte in every block/payload/index position; each must
    // be caught by a CRC, a bound, or the trailer check. (Positions
    // inside the name are skipped: the name is not integrity-checked.)
    const std::size_t name_end = 32 + std::string("corrupt").size();
    for (std::size_t at = name_end; at < bytes_.size(); at += 13) {
        auto bad = bytes_;
        bad[at] ^= 0x40;
        expectRejected(bad, "flip@" + std::to_string(at));
    }
}

TEST_F(TraceLogCorruption, TornTailWithOldTrailerRejected)
{
    // Simulate a torn overwrite: valid header, tail replaced by junk,
    // trailer kept — the index CRC must catch it.
    auto bad = bytes_;
    for (std::size_t i = bytes_.size() - 48; i < bytes_.size() - 32; ++i)
        bad[i] = 0x5a;
    expectRejected(bad, "torn tail");
}

// --- Streaming replay workload ----------------------------------------

TEST(TraceLogWorkload, ReplayMatchesReaderAndBoundsMemory)
{
    WorkloadParams p;
    p.numThreads = 4;
    p.instrPerThread = 30'000;
    p.footprintBytes = 4 * 1024 * 1024;
    auto gen = makeWorkload("zipf:theta=0.8", p);
    const std::string path = tmpPath("replay.strc");
    // Small blocks so the capture spans many of them per thread.
    writeTraceLog(path, *gen, 64);

    std::uint64_t total_blocks = 0;
    {
        TraceLogReader reader(path);
        for (int t = 0; t < reader.numThreads(); ++t)
            total_blocks += reader.blockCount(t);
    }
    ASSERT_GT(total_blocks, 40u);

    resetPeakLiveDecodedBlocks();
    const std::uint64_t live_before = liveDecodedBlocks();
    {
        TraceLogWorkload replay(path);
        EXPECT_EQ(replay.numThreads(), 4);
        auto fresh = makeWorkload("zipf:theta=0.8", p);
        for (int t = 0; t < 4; ++t) {
            TraceCursor want(*fresh, t);
            TraceCursor got(replay, t);
            TraceRecord a, b;
            while (want.next(a)) {
                ASSERT_TRUE(got.next(b)) << t;
                ASSERT_EQ(a.vaddr, b.vaddr) << t;
                ASSERT_EQ(a.computeOps, b.computeOps) << t;
                ASSERT_EQ(a.isWrite, b.isWrite) << t;
            }
            EXPECT_FALSE(got.next(b)) << t;
            EXPECT_EQ(replay.instructionsEmitted(t),
                      fresh->instructionsEmitted(t))
                << t;
        }
        EXPECT_EQ(replay.blocksDecoded(), total_blocks);
    }
    // The headline bound: however many blocks the capture has, only
    // O(threads × ring depth) were ever alive at once — per thread:
    // ring buffer + consumer-held block + producer in-flight block.
    const std::uint64_t per_thread =
        TraceLogWorkload::kRingBlocks + 2;
    EXPECT_LE(peakLiveDecodedBlocks() - live_before,
              4 * per_thread + 1);
    EXPECT_EQ(liveDecodedBlocks(), live_before);
    std::remove(path.c_str());
}

// --- Full-system fingerprint equivalence ------------------------------

/**
 * The gate for the whole pipeline: a System replaying an STRC capture
 * must produce a byte-identical report to the same System running the
 * live generator the capture was taken from. The replay goes through
 * the bring-your-own-workload constructor with the generator's spec
 * as its label, so even the report's workload string matches.
 */
class TraceLogFingerprint : public ::testing::TestWithParam<std::string>
{};

TEST_P(TraceLogFingerprint, ReplayMatchesLiveGenerator)
{
    const std::string gen_spec = GetParam();
    const SimConfig cfg = makeBenchConfig("SkyByte-Full");
    WorkloadParams p;
    p.numThreads = 2;
    p.instrPerThread = 4'000;
    p.footprintBytes = 8 * 1024 * 1024;
    // The spec constructor seeds the generator from the config, so the
    // capture must use the same seed to record the same stream.
    p.seed = cfg.seed;

    System live(cfg, gen_spec, p);
    const std::string live_json = toJson(live.run());

    const std::string path = tmpPath("fingerprint.strc");
    auto gen = makeWorkload(gen_spec, p);
    writeTraceLog(path, *gen, 128);
    System replay(
        cfg, std::make_unique<TraceLogWorkload>(path),
        [&path] { return std::make_unique<TraceLogWorkload>(path); },
        gen_spec);
    EXPECT_EQ(live_json, toJson(replay.run())) << gen_spec;
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ThreeWorkloads, TraceLogFingerprint,
                         ::testing::Values("zipf:theta=0.9",
                                           "scan:stride=128",
                                           "ptrchase:chain=16"));

TEST(TraceLogSpec, NonStrcCaptureThrowsNamingPath)
{
    const std::string junk = tmpPath("junk.strc");
    writeFileAtomic(junk, std::string(128, 'x'));
    // A file in the retired flat format: its 8-byte magic, then zeros.
    const char flat_magic[8] = {'S', 'K', 'Y', 'T', 'R', 'C', '0', '1'};
    const std::string flat = tmpPath("flat.trace");
    writeFileAtomic(flat, std::string(flat_magic, sizeof(flat_magic))
                              + std::string(120, '\0'));
    for (const std::string &path :
         {junk, flat, tmpPath("missing.strc")}) {
        try {
            makeWorkload("tracelog:path=" + path, WorkloadParams{});
            ADD_FAILURE() << "accepted " << path;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
    }
    std::remove(junk.c_str());
    std::remove(flat.c_str());
}

TEST(TraceLogSpec, RejectsMissingPathAndForeignKeys)
{
    WorkloadParams params;
    EXPECT_THROW(makeWorkload("tracelog", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("tracelog:threads=4", params),
                 std::invalid_argument);
    EXPECT_THROW(
        makeWorkload("tracelog:path=/nope.strc,instr=100", params),
        std::invalid_argument);
}

} // namespace
} // namespace skybyte
