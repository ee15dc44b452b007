/**
 * @file
 * The workload registry and its built-in generators: the seven Table I
 * workloads plus the parameterized synthetic scenarios (uniform, zipf,
 * scan, ptrchase, phased). Each Table I generator reproduces the
 * published footprint (scaled 1/64 by default), write ratio and locality
 * class of its namesake; the mixes below are tuned so the measured write
 * ratios and LLC MPKI ordering match Table I (verified by
 * tests/test_trace.cc and `skybyte_sweep --run table1`).
 *
 * Generators derive from SyntheticWorkload and implement a per-record
 * emit(); the base class batches emit() into TraceBatch refills, so the
 * virtual front-end boundary is crossed once per 256 records while the
 * per-thread record stream stays bit-identical to one-at-a-time
 * generation.
 */

#include "trace/workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/rng.h"
#include "trace/mix_workload.h"
#include "trace/trace_log/trace_log_workload.h"

namespace skybyte {

namespace {

/** Scale factor from paper footprints to the default simulated ones. */
constexpr double kFootprintScale = 1.0 / 64.0;

constexpr std::uint64_t
defaultFootprint(double paper_gb)
{
    return static_cast<std::uint64_t>(paper_gb * kFootprintScale
                                      * 1024.0 * 1024.0 * 1024.0);
}

/**
 * Shared skeleton: per-thread RNG, instruction accounting, address
 * helpers, and the emit()-batching refill(). Subclasses implement
 * emit().
 */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(const WorkloadParams &params, double paper_gb)
        : params_(params)
    {
        footprint_ = params.footprintBytes != 0
                         ? params.footprintBytes
                         : defaultFootprint(paper_gb);
        // Round to a whole number of pages.
        footprint_ = std::max<std::uint64_t>(footprint_, 16 * kPageBytes);
        footprint_ = (footprint_ / kPageBytes) * kPageBytes;
        threads_.resize(params.numThreads);
        for (int t = 0; t < params.numThreads; ++t) {
            threads_[t].rng.reseed(params.seed * 0x9e3779b9ULL + t + 1);
            threads_[t].tid = t;
        }
    }

    std::uint64_t footprintBytes() const override { return footprint_; }
    int numThreads() const override { return params_.numThreads; }

    /**
     * All mutable refill state lives in the per-tid ThreadState (RNG,
     * cursors, instruction count); params_/footprint_ are const after
     * construction, so distinct tids may refill concurrently.
     */
    bool concurrentRefillSafe() const override { return true; }

    std::uint64_t
    instructionsEmitted(int tid) const override
    {
        return threads_[tid].instrCount;
    }

    std::uint32_t
    refill(int tid, TraceBatch &batch) override
    {
        ThreadState &ts = threads_[tid];
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity
               && ts.instrCount < params_.instrPerThread) {
            TraceRecord &rec = batch.records[n++];
            emit(ts, rec);
            ts.instrCount += rec.computeOps + 1;
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  protected:
    struct ThreadState
    {
        Rng rng;
        int tid = 0;
        std::uint64_t instrCount = 0;
        // generic per-thread cursors used differently by each workload
        std::uint64_t cursor = 0;
        std::uint64_t burstLeft = 0;
        Addr burstAddr = 0;
        bool burstWrite = false;
        std::uint64_t phase = 0;
    };

    /** Produce one record (compute count + memory op) for @p ts. */
    virtual void emit(ThreadState &ts, TraceRecord &rec) = 0;

    /** Address of byte offset @p off within the shared data region. */
    Addr data(std::uint64_t off) const
    {
        return kDataBase + (off % footprint_);
    }

    /** A hot per-thread private address (stack/locals; host DRAM). */
    Addr
    privateAddr(ThreadState &ts, std::uint64_t span = 32 * 1024)
    {
        return kPrivateBase + ts.tid * kPrivateStride
               + lineAlign(ts.rng.below(span));
    }

    WorkloadParams params_;
    std::uint64_t footprint_ = 0;
    std::vector<ThreadState> threads_;
};

/**
 * bc — GAP betweenness centrality. Power-law vertex reads (zipf) over a
 * vertex array plus sequential edge-list bursts; 11% writes are score
 * updates. Heavily memory-bound (paper MPKI 39.4).
 */
class BcWorkload : public SyntheticWorkload
{
  public:
    explicit BcWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 8.18),
          vertexRegion_(footprint_ / 4),
          zipf_(std::max<std::uint64_t>(vertexRegion_ / kCachelineBytes, 64),
                0.70)
    {}

    std::string name() const override { return "bc"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        if (ts.burstLeft > 0) {
            // Sequential edge-list scan.
            ts.burstLeft--;
            ts.burstAddr += kCachelineBytes;
            rec = {rng.below(3) == 0 ? 3u : 2u, false, data(ts.burstAddr)};
            return;
        }
        // Edge bursts emit several read records per draw, so the write
        // branch probability is scaled up to keep writes at ~11% of all
        // memory operations (Table I).
        const double dice = rng.uniform();
        if (dice < 0.38) {
            // Score update: write to a zipf-chosen vertex line.
            const Addr v = zipf_.sample(rng) * kCachelineBytes;
            rec = {4, true, data(v)};
        } else if (dice < 0.62) {
            // Vertex metadata read.
            const Addr v = zipf_.sample(rng) * kCachelineBytes;
            rec = {3, false, data(v)};
        } else {
            // Edge burst: bursts start at the edge lists of zipf-chosen
            // vertices, so hub vertices' edges are rescanned often.
            const std::uint64_t edge_bytes = footprint_ - vertexRegion_;
            const std::uint64_t frac = zipf_.sample(rng);
            ts.burstAddr = vertexRegion_
                           + lineAlign((frac * 977) * kCachelineBytes
                                       % edge_bytes);
            ts.burstLeft = 2 + rng.below(10);
            rec = {2, false, data(ts.burstAddr)};
        }
    }

  private:
    std::uint64_t vertexRegion_;
    ZipfSampler zipf_;
};

/**
 * bfs-dense — Rodinia BFS on a dense graph. Frontier scans with random
 * neighbour visits and a randomly updated visited map; very low compute
 * per access (paper MPKI 122.9, 25% writes).
 */
class BfsWorkload : public SyntheticWorkload
{
  public:
    explicit BfsWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 9.13),
          zipf_(std::max<std::uint64_t>(footprint_ / kCachelineBytes, 64),
                0.80)
    {}

    std::string name() const override { return "bfs-dense"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        if (ts.burstLeft > 0) {
            // Adjacency-row scan.
            ts.burstLeft--;
            ts.burstAddr += kCachelineBytes;
            rec = {1, false, data(ts.burstAddr)};
            return;
        }
        // Real graphs are power-law: high-degree vertices are revisited
        // constantly, so probes/visited-map updates follow a zipf.
        // Burst dilution compensation as in bc: target 25% writes.
        const double dice = rng.uniform();
        if (dice < 0.47) {
            // Mark a vertex visited / update its level.
            rec = {1, true, data(zipf_.sample(rng) * kCachelineBytes)};
        } else if (dice < 0.62) {
            // Neighbour probe.
            rec = {1, false, data(zipf_.sample(rng) * kCachelineBytes)};
        } else {
            // Short adjacency burst.
            ts.burstAddr = zipf_.sample(rng) * kCachelineBytes;
            ts.burstLeft = 1 + rng.below(4);
            rec = {1, false, data(ts.burstAddr)};
        }
    }

  private:
    ZipfSampler zipf_;
};

/**
 * dlrm — embedding-table gathers (single-line random reads over most of
 * the footprint) alternating with dense MLP phases over a small reused
 * weight region; 32% writes from activations/gradients and sparse
 * embedding updates (paper MPKI 5.1).
 */
class DlrmWorkload : public SyntheticWorkload
{
  public:
    explicit DlrmWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 12.35),
          tableRegion_(footprint_ * 9 / 10),
          mlpRegion_(footprint_ - footprint_ * 9 / 10),
          zipf_(std::max<std::uint64_t>(tableRegion_ / kCachelineBytes,
                                        64),
                0.60)
    {}

    std::string name() const override { return "dlrm"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        // phase counts down gather ops, then MLP ops.
        if (ts.phase == 0) {
            ts.phase = 26 + rng.below(8);     // gathers per sample
            ts.cursor = 160 + rng.below(64);  // MLP ops per sample
        }
        if (ts.phase > 0 && ts.phase != kMlpMarker) {
            ts.phase--;
            // Embedding lookups are famously skewed (popular items).
            const Addr a = zipf_.sample(rng) * kCachelineBytes;
            if (rng.chance(0.18)) {
                // Sparse embedding-gradient update.
                rec = {6, true, data(a)};
            } else {
                rec = {6, false, data(a)};
            }
            if (ts.phase == 0)
                ts.phase = kMlpMarker;
            return;
        }
        // MLP phase: sequential weight reads (cache friendly) +
        // activation writes to a hot private buffer.
        if (ts.cursor == 0) {
            ts.phase = 0;
            emit(ts, rec);
            return;
        }
        ts.cursor--;
        if (rng.chance(0.40)) {
            rec = {5, true, privateAddr(ts, 256 * 1024)};
        } else {
            ts.burstAddr = (ts.burstAddr + kCachelineBytes) % mlpRegion_;
            rec = {5, false, data(tableRegion_ + ts.burstAddr)};
        }
    }

  private:
    static constexpr std::uint64_t kMlpMarker = ~0ULL;
    std::uint64_t tableRegion_;
    std::uint64_t mlpRegion_;
    ZipfSampler zipf_;
};

/**
 * radix — SPLASH-3 radix sort. Alternates sequential key reads with
 * scattered bucket writes (29% writes, paper MPKI 7.1). Each thread owns a
 * contiguous key slice; bucket writes scatter over the whole output half.
 */
class RadixWorkload : public SyntheticWorkload
{
  public:
    explicit RadixWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 9.60),
          half_(footprint_ / 2)
    {}

    std::string name() const override { return "radix"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        const std::uint64_t slice = half_ / params_.numThreads;
        const std::uint64_t slice_base = slice * ts.tid;
        // Three reads per key (key + histogram/prefix), then ~1.2 writes.
        switch (ts.phase % 4) {
          case 0:
          case 1: {
            // Sequential key-slice read.
            ts.cursor = (ts.cursor + kCachelineBytes) % slice;
            rec = {3, false, data(slice_base + ts.cursor)};
            break;
          }
          case 2: {
            // Histogram read: small hot region (cache resident).
            rec = {4, false, privateAddr(ts, 64 * 1024)};
            break;
          }
          default: {
            // Scattered bucket write into the output half.
            const Addr dst = half_ + lineAlign(rng.below(half_));
            rec = {3, true, data(dst)};
            break;
          }
        }
        ts.phase++;
    }

  private:
    std::uint64_t half_;
};

/**
 * srad — Rodinia speckle-reducing anisotropic diffusion. Column-strided
 * 2-D stencil sweep: reads of the 4 neighbours (two of them one full row
 * away) and a strided write of the centre element, which makes the dirty
 * lines per flushed page sparse — the behaviour SkyByte-W exploits
 * (paper: 24% writes, MPKI 7.5).
 */
class SradWorkload : public SyntheticWorkload
{
  public:
    explicit SradWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 8.16)
    {
        // Square-ish grid of 64 B cells.
        const std::uint64_t cells = footprint_ / kCachelineBytes;
        rowLines_ = 1;
        while (rowLines_ * rowLines_ < cells)
            rowLines_ <<= 1;
        colLines_ = std::max<std::uint64_t>(cells / rowLines_, 1);
    }

    std::string name() const override { return "srad"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        // Column-major traversal: consecutive cells are a row apart, so
        // consecutive writes land in different pages (sparse dirtiness).
        const std::uint64_t cells = rowLines_ * colLines_;
        const std::uint64_t slice = cells / params_.numThreads;
        const std::uint64_t idx = slice * ts.tid + (ts.cursor % slice);
        const std::uint64_t col = idx / colLines_;
        const std::uint64_t row = idx % colLines_;
        const auto cellAddr = [&](std::uint64_t r, std::uint64_t c) {
            return data(((r % colLines_) * rowLines_ + (c % rowLines_))
                        * kCachelineBytes);
        };
        switch (ts.phase % 5) {
          case 0: rec = {3, false, cellAddr(row, col)}; break;        // C
          case 1: rec = {2, false, cellAddr(row + 1, col)}; break;    // S
          case 2: rec = {2, false, cellAddr(row, col + 1)}; break;    // E
          case 3: rec = {2, false, cellAddr(row + colLines_ - 1, col)};
                  break;                                              // N
          default:
            rec = {3, true, cellAddr(row, col)};                      // W
            ts.cursor++;
            break;
        }
        ts.phase++;
    }

  private:
    std::uint64_t rowLines_ = 0;
    std::uint64_t colLines_ = 0;
};

/**
 * tpcc — WHISPER TPC-C on an in-memory store. Mostly hits in hot
 * warehouse/district tables with heavy business-logic compute (paper MPKI
 * is only 1.0) plus random stock/customer updates giving the highest
 * write ratio of the suite (36%).
 */
class TpccWorkload : public SyntheticWorkload
{
  public:
    explicit TpccWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 15.77),
          hotRegion_(footprint_ / 256)
    {}

    std::string name() const override { return "tpcc"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        const double dice = rng.uniform();
        // 36% of memory ops are writes; most traffic stays in hot tables.
        if (dice < 0.28) {
            // Hot-table update (district/warehouse counters).
            rec = {24, true, data(lineAlign(rng.below(hotRegion_)))};
        } else if (dice < 0.36) {
            // Cold random update (stock/customer) + order-line append.
            if (rng.chance(0.5)) {
                rec = {20, true, data(lineAlign(rng.below(footprint_)))};
            } else {
                ts.cursor += kCachelineBytes;
                rec = {20, true,
                       data(hotRegion_ + ts.cursor % (footprint_ / 2))};
            }
        } else if (dice < 0.86) {
            // Hot-table read.
            rec = {22, false, data(lineAlign(rng.below(hotRegion_)))};
        } else {
            // Cold random read (customer lookup, stock check).
            rec = {26, false, data(lineAlign(rng.below(footprint_)))};
        }
    }

  private:
    std::uint64_t hotRegion_;
};

/**
 * ycsb — WHISPER YCSB workload B (95/5 read/update) over zipfian keys
 * with 1 KB records; reads touch a few lines of the record, updates dirty
 * one or two (paper: 5% writes, MPKI 92.2).
 */
class YcsbWorkload : public SyntheticWorkload
{
  public:
    explicit YcsbWorkload(const WorkloadParams &p)
        : SyntheticWorkload(p, 9.61),
          records_(std::max<std::uint64_t>(footprint_ / kRecordBytes, 64)),
          zipf_(records_, 0.99)
    {}

    std::string name() const override { return "ycsb"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        if (ts.burstLeft > 0) {
            ts.burstLeft--;
            ts.burstAddr += kCachelineBytes;
            rec = {2, ts.burstWrite, data(ts.burstAddr)};
            return;
        }
        const std::uint64_t key = zipf_.sample(rng);
        ts.burstAddr = key * kRecordBytes
                       + rng.below(kRecordBytes / kCachelineBytes / 2)
                             * kCachelineBytes;
        ts.burstWrite = rng.chance(0.05);
        ts.burstLeft = ts.burstWrite ? rng.below(2) : 1 + rng.below(3);
        rec = {3, ts.burstWrite, data(ts.burstAddr)};
    }

  private:
    static constexpr std::uint64_t kRecordBytes = 1024;
    std::uint64_t records_;
    ZipfSampler zipf_;
};

/**
 * uniform — single-line uniform random microworkload.
 * Spec args: write_ratio= (default 0.25), compute= (default 4).
 */
class UniformWorkload : public SyntheticWorkload
{
  public:
    UniformWorkload(const WorkloadParams &p, double write_ratio,
                    std::uint32_t compute)
        : SyntheticWorkload(p, 0.25), writeRatio_(write_ratio),
          compute_(compute)
    {}

    std::string name() const override { return "uniform"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        rec = {compute_, rng.chance(writeRatio_),
               data(lineAlign(rng.below(footprint_)))};
    }

  private:
    double writeRatio_;
    std::uint32_t compute_;
};

/**
 * zipf — single-line zipf-skewed accesses over the whole footprint: the
 * canonical hot-set scenario for migration/caching studies.
 * Spec args: theta= (skew in (0,1), default 0.99), write_ratio=
 * (default 0.2), compute= (default 4).
 */
class ZipfScenarioWorkload : public SyntheticWorkload
{
  public:
    ZipfScenarioWorkload(const WorkloadParams &p, double theta,
                         double write_ratio, std::uint32_t compute)
        : SyntheticWorkload(p, 4.0),
          zipf_(std::max<std::uint64_t>(footprint_ / kCachelineBytes, 64),
                theta),
          writeRatio_(write_ratio), compute_(compute)
    {}

    std::string name() const override { return "zipf"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        rec = {compute_, rng.chance(writeRatio_),
               data(zipf_.sample(rng) * kCachelineBytes)};
    }

  private:
    ZipfSampler zipf_;
    double writeRatio_;
    std::uint32_t compute_;
};

/**
 * scan — streaming sequential sweep: each thread walks its own slice of
 * the footprint at a fixed stride, wrapping around; the worst case for
 * any hot-set policy and the best case for prefetch-free page caches.
 * Spec args: stride= (bytes, default 64), write_ratio= (default 0.0),
 * compute= (default 2).
 */
class ScanWorkload : public SyntheticWorkload
{
  public:
    ScanWorkload(const WorkloadParams &p, std::uint64_t stride,
                 double write_ratio, std::uint32_t compute)
        : SyntheticWorkload(p, 4.0), stride_(stride),
          writeRatio_(write_ratio), compute_(compute)
    {
        slice_ = footprint_ / static_cast<std::uint64_t>(
                     std::max(params_.numThreads, 1));
        slice_ = std::max<std::uint64_t>(lineAlign(slice_),
                                         kCachelineBytes);
    }

    std::string name() const override { return "scan"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        const Addr addr = slice_ * ts.tid + (ts.cursor % slice_);
        ts.cursor += stride_;
        rec = {compute_, ts.rng.chance(writeRatio_), data(addr)};
    }

  private:
    std::uint64_t stride_;
    std::uint64_t slice_ = 0;
    double writeRatio_;
    std::uint32_t compute_;
};

/**
 * ptrchase — dependent pointer chasing: each access is a hash of the
 * previous one, so there is no spatial locality and no MLP — the
 * latency-bound scenario where device-triggered context switches pay
 * off most. Periodically rehomes to an rng-chosen chain start.
 * Spec args: chain= (hops per chain, default 64), write_ratio=
 * (default 0.05), compute= (default 1).
 */
class PtrChaseWorkload : public SyntheticWorkload
{
  public:
    PtrChaseWorkload(const WorkloadParams &p, std::uint64_t chain,
                     double write_ratio, std::uint32_t compute)
        : SyntheticWorkload(p, 2.0), chain_(chain),
          writeRatio_(write_ratio), compute_(compute)
    {}

    std::string name() const override { return "ptrchase"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        if (ts.burstLeft == 0) {
            // Jump to a fresh chain head.
            ts.cursor = rng.below(footprint_);
            ts.burstLeft = chain_;
        }
        ts.burstLeft--;
        // splitmix64-style scramble: the next hop depends on the
        // current one, like dereferencing the stored pointer.
        std::uint64_t z = ts.cursor + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        ts.cursor = z ^ (z >> 31);
        rec = {compute_, rng.chance(writeRatio_),
               data(lineAlign(ts.cursor % footprint_))};
    }

  private:
    std::uint64_t chain_;
    double writeRatio_;
    std::uint32_t compute_;
};

/**
 * phased — alternates a streaming-scan phase with a zipf hot-set phase,
 * stressing the adaptivity of migration/caching policies (a policy
 * tuned for either steady state mispredicts at every transition).
 * Spec args: phase_instr= (instructions per phase, default 20000),
 * theta= (zipf skew, default 0.9), write_ratio= (default 0.2),
 * compute= (default 3).
 */
class PhasedWorkload : public SyntheticWorkload
{
  public:
    PhasedWorkload(const WorkloadParams &p, std::uint64_t phase_instr,
                   double theta, double write_ratio,
                   std::uint32_t compute)
        : SyntheticWorkload(p, 4.0),
          zipf_(std::max<std::uint64_t>(footprint_ / kCachelineBytes, 64),
                theta),
          phaseInstr_(std::max<std::uint64_t>(phase_instr, 1)),
          writeRatio_(write_ratio), compute_(compute)
    {
        slice_ = std::max<std::uint64_t>(
            lineAlign(footprint_ / static_cast<std::uint64_t>(
                          std::max(params_.numThreads, 1))),
            kCachelineBytes);
    }

    std::string name() const override { return "phased"; }

  protected:
    void
    emit(ThreadState &ts, TraceRecord &rec) override
    {
        Rng &rng = ts.rng;
        const bool scan_phase =
            (ts.instrCount / phaseInstr_) % 2 == 0;
        if (scan_phase) {
            // Each thread scans within its own slice so lanes differ
            // and never drift into a neighbour's slice on long runs.
            ts.cursor += kCachelineBytes;
            rec = {compute_, false,
                   data(slice_ * ts.tid + ts.cursor % slice_)};
        } else {
            rec = {compute_, rng.chance(writeRatio_),
                   data(zipf_.sample(rng) * kCachelineBytes)};
        }
    }

  private:
    ZipfSampler zipf_;
    std::uint64_t phaseInstr_;
    std::uint64_t slice_ = 0;
    double writeRatio_;
    std::uint32_t compute_;
};

double
thetaArg(WorkloadSpecArgs &args, double def)
{
    const double theta = args.dbl("theta", def);
    if (theta <= 0.0 || theta >= 1.0) {
        throw std::invalid_argument(
            "workload arg theta must be in (0, 1)");
    }
    return theta;
}

double
ratioArg(WorkloadSpecArgs &args, const std::string &key, double def)
{
    const double ratio = args.dbl(key, def);
    if (ratio < 0.0 || ratio > 1.0) {
        throw std::invalid_argument("workload arg " + key
                                    + " must be in [0, 1]");
    }
    return ratio;
}

std::uint32_t
computeArg(WorkloadSpecArgs &args, std::uint32_t def)
{
    const std::uint64_t v = args.u64("compute", def);
    // A record must fit the 32-bit computeOps field with headroom for
    // the +1 memory slot; a narrowing cast would silently wrap.
    if (v > 0x7fffffffULL) {
        throw std::invalid_argument(
            "workload arg compute out of range: " + std::to_string(v));
    }
    return static_cast<std::uint32_t>(v);
}

/** Registration for a Table I workload (no generator-specific args). */
template <typename W>
WorkloadRegistration
paperEntry(const char *name, const char *summary, WorkloadInfo info)
{
    WorkloadRegistration reg;
    reg.name = name;
    reg.summary = summary;
    reg.paper = true;
    reg.info = std::move(info);
    reg.make = [](WorkloadSpecArgs &, const WorkloadParams &params) {
        return std::make_unique<W>(params);
    };
    return reg;
}

std::mutex &
registryMutex()
{
    // skybyte-lint: allow(shared-static-state) the registry lock itself
    static std::mutex m;
    return m;
}

std::map<std::string, WorkloadRegistration> &
registryLocked()
{
    // skybyte-lint: allow(shared-static-state) guarded by registryMutex()
    static std::map<std::string, WorkloadRegistration> entries;
    return entries;
}

void
insertRegistration(WorkloadRegistration reg)
{
    if (reg.name.empty())
        throw std::invalid_argument("workload name must not be empty");
    if (reg.name == "mix") {
        throw std::invalid_argument(
            "\"mix\" is reserved for the co-location combinator");
    }
    if (!reg.make) {
        throw std::invalid_argument("workload " + reg.name
                                    + " has no factory");
    }
    auto [it, inserted] =
        registryLocked().emplace(reg.name, std::move(reg));
    if (!inserted) {
        throw std::invalid_argument("duplicate workload name: "
                                    + it->first);
    }
}

void
registerBuiltinWorkloads()
{
    insertRegistration(paperEntry<BcWorkload>(
        "bc", "GAP betweenness centrality (zipf vertices + edge bursts)",
        {"GAP", 8.18, 0.11, 39.4}));
    insertRegistration(paperEntry<BfsWorkload>(
        "bfs-dense", "Rodinia BFS, dense graph (lowest compute/access)",
        {"Rodinia", 9.13, 0.25, 122.9}));
    insertRegistration(paperEntry<DlrmWorkload>(
        "dlrm", "embedding gathers alternating with dense MLP phases",
        {"DLRM", 12.35, 0.32, 5.1}));
    insertRegistration(paperEntry<RadixWorkload>(
        "radix", "SPLASH-3 radix sort (sequential reads, scatter writes)",
        {"Splashv3", 9.60, 0.29, 7.1}));
    insertRegistration(paperEntry<SradWorkload>(
        "srad", "Rodinia SRAD stencil (column-strided sparse writes)",
        {"Rodinia", 8.16, 0.24, 7.5}));
    insertRegistration(paperEntry<TpccWorkload>(
        "tpcc", "WHISPER TPC-C (hot tables, highest write ratio)",
        {"WHISPER", 15.77, 0.36, 1.0}));
    insertRegistration(paperEntry<YcsbWorkload>(
        "ycsb", "WHISPER YCSB-B (zipf keys, 1 KB records, 5% updates)",
        {"WHISPER", 9.61, 0.05, 92.2}));

    WorkloadRegistration uniform;
    uniform.name = "uniform";
    uniform.summary = "uniform random single-line microworkload";
    uniform.argHelp = "write_ratio=,compute=";
    uniform.info = {"micro", 0.25, 0.25, 50.0};
    uniform.make = [](WorkloadSpecArgs &args,
                      const WorkloadParams &params) {
        const double wr = ratioArg(args, "write_ratio", 0.25);
        const std::uint32_t compute = computeArg(args, 4);
        return std::make_unique<UniformWorkload>(params, wr, compute);
    };
    insertRegistration(std::move(uniform));

    WorkloadRegistration zipf;
    zipf.name = "zipf";
    zipf.summary = "zipf-skewed hot-set accesses over the footprint";
    zipf.argHelp = "theta=,write_ratio=,compute=";
    zipf.info = {"synthetic", 4.0, 0.20, 60.0};
    zipf.make = [](WorkloadSpecArgs &args, const WorkloadParams &params) {
        const double theta = thetaArg(args, 0.99);
        const double wr = ratioArg(args, "write_ratio", 0.20);
        const std::uint32_t compute = computeArg(args, 4);
        return std::make_unique<ZipfScenarioWorkload>(params, theta, wr,
                                                      compute);
    };
    insertRegistration(std::move(zipf));

    WorkloadRegistration scan;
    scan.name = "scan";
    scan.summary = "per-thread streaming sequential sweep";
    scan.argHelp = "stride=,write_ratio=,compute=";
    scan.info = {"synthetic", 4.0, 0.0, 30.0};
    scan.make = [](WorkloadSpecArgs &args, const WorkloadParams &params) {
        const std::uint64_t stride =
            args.bytes("stride", kCachelineBytes);
        // Fail loudly rather than silently rounding the stride: two
        // sweep points labeled stride=32 and stride=100 must not run
        // the same experiment.
        if (stride == 0 || stride % kCachelineBytes != 0) {
            throw std::invalid_argument(
                "workload arg stride must be a positive multiple of "
                + std::to_string(kCachelineBytes));
        }
        const double wr = ratioArg(args, "write_ratio", 0.0);
        const std::uint32_t compute = computeArg(args, 2);
        return std::make_unique<ScanWorkload>(params, stride, wr,
                                              compute);
    };
    insertRegistration(std::move(scan));

    WorkloadRegistration ptrchase;
    ptrchase.name = "ptrchase";
    ptrchase.summary = "dependent pointer chase (no locality, no MLP)";
    ptrchase.argHelp = "chain=,write_ratio=,compute=";
    ptrchase.info = {"synthetic", 2.0, 0.05,
                     100.0};
    ptrchase.make = [](WorkloadSpecArgs &args,
                       const WorkloadParams &params) {
        const std::uint64_t chain = args.u64("chain", 64);
        if (chain == 0) {
            throw std::invalid_argument(
                "workload arg chain must be >= 1");
        }
        const double wr = ratioArg(args, "write_ratio", 0.05);
        const std::uint32_t compute = computeArg(args, 1);
        return std::make_unique<PtrChaseWorkload>(params, chain, wr,
                                                  compute);
    };
    insertRegistration(std::move(ptrchase));

    WorkloadRegistration phased;
    phased.name = "phased";
    phased.summary = "alternating scan / zipf hot-set phases";
    phased.argHelp = "phase_instr=,theta=,write_ratio=,compute=";
    phased.info = {"synthetic", 4.0, 0.10,
                   45.0};
    phased.make = [](WorkloadSpecArgs &args,
                     const WorkloadParams &params) {
        const std::uint64_t phase_instr =
            args.u64("phase_instr", 20'000);
        if (phase_instr == 0) {
            throw std::invalid_argument(
                "workload arg phase_instr must be >= 1");
        }
        const double theta = thetaArg(args, 0.9);
        const double wr = ratioArg(args, "write_ratio", 0.20);
        const std::uint32_t compute = computeArg(args, 3);
        return std::make_unique<PhasedWorkload>(params, phase_instr,
                                                theta, wr, compute);
    };
    insertRegistration(std::move(phased));

    WorkloadRegistration tracelog;
    tracelog.name = "tracelog";
    tracelog.summary =
        "stream-replay an STRC trace capture";
    tracelog.argHelp = "path=";
    tracelog.replay = true;
    tracelog.info = {"replay", 0.0, 0.0, 0.0};
    tracelog.make = [](WorkloadSpecArgs &args,
                       const WorkloadParams &) {
        const std::string path = args.str("path", "");
        if (path.empty()) {
            throw std::invalid_argument(
                "workload tracelog requires path= (an STRC capture "
                "from skybyte_tracegen)");
        }
        // Thread count, footprint and record streams all come from the
        // capture itself. The common keys were already consumed by the
        // generic layer, so reject them here — silently ignoring
        // threads=4 would run a different experiment than the spec
        // claims.
        for (const char *key : {"threads", "instr", "footprint", "seed"}) {
            if (args.has(key)) {
                throw std::invalid_argument(
                    std::string("workload tracelog does not take ") + key
                    + "= (the capture defines it)");
            }
        }
        return std::make_unique<TraceLogWorkload>(path);
    };
    insertRegistration(std::move(tracelog));
}

void
ensureBuiltins()
{
    // skybyte-lint: allow(shared-static-state) call_once is the sync
    static std::once_flag once;
    std::call_once(once, [] {
        std::lock_guard<std::mutex> lock(registryMutex());
        registerBuiltinWorkloads();
    });
}

} // namespace

void
registerWorkload(WorkloadRegistration reg)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    insertRegistration(std::move(reg));
}

const WorkloadRegistration *
findWorkload(const std::string &name)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    const auto &entries = registryLocked();
    const auto it = entries.find(name);
    return it == entries.end() ? nullptr : &it->second;
}

std::vector<std::string>
registeredWorkloadNames()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> names;
    for (const auto &[name, reg] : registryLocked())
        names.push_back(name);
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec, const WorkloadParams &params)
{
    if (spec.isMix()) {
        // The co-location combinator: args are tenant=child-spec
        // bindings, not generator arguments, so the registry's common
        // key handling below does not apply at the mix level (each
        // child applies its own footprint/threads/instr/seed args).
        return std::make_unique<MixWorkload>(spec, params);
    }
    const WorkloadRegistration *reg = findWorkload(spec.name);
    if (reg == nullptr) {
        std::string known;
        for (const std::string &name : registeredWorkloadNames()) {
            if (!known.empty())
                known += ", ";
            known += name;
        }
        throw std::invalid_argument("unknown workload: " + spec.name
                                    + " (registered: " + known + ")");
    }
    WorkloadSpecArgs args(spec);
    WorkloadParams p = params;
    // Common spec args override the caller's params so a spec string is
    // a self-contained experiment input.
    p.footprintBytes = args.bytes("footprint", p.footprintBytes);
    if (args.has("threads")) {
        const std::uint64_t threads = args.u64("threads", 0);
        // Bound before the cast to int: a huge value must error, not
        // silently wrap to some small thread count.
        if (threads == 0 || threads > 65536) {
            throw std::invalid_argument(
                "workload arg threads must be in [1, 65536], got "
                + std::to_string(threads));
        }
        p.numThreads = static_cast<int>(threads);
    }
    p.instrPerThread = args.u64("instr", p.instrPerThread);
    p.seed = args.u64("seed", p.seed);
    if (p.numThreads <= 0)
        throw std::invalid_argument("workload threads must be >= 1");
    auto workload = reg->make(args, p);
    args.requireAllConsumed(spec.name);
    return workload;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &spec_text, const WorkloadParams &params)
{
    return makeWorkload(parseWorkloadSpec(spec_text), params);
}

const std::vector<std::string> &
paperWorkloadNames()
{
    static const std::vector<std::string> names = {
        "bc", "bfs-dense", "dlrm", "radix", "srad", "tpcc", "ycsb",
    };
    return names;
}

const WorkloadInfo &
workloadInfo(const std::string &name)
{
    const WorkloadRegistration *reg = findWorkload(name);
    if (reg == nullptr)
        throw std::invalid_argument("unknown workload: " + name);
    return reg->info;
}

} // namespace skybyte
