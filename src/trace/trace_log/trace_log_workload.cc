#include "trace/trace_log/trace_log_workload.h"

namespace skybyte {

TraceLogWorkload::TraceLogWorkload(const std::string &path)
{
    // Header + index parse happens here on the caller's thread so a
    // corrupt capture fails at construction; only block decode runs
    // behind the producer.
    reader_ = std::make_unique<TraceLogReader>(path);
    name_ = reader_->name();
    footprint_ = reader_->footprintBytes();
    const auto threads =
        static_cast<std::size_t>(reader_->numThreads());
    rings_ = std::vector<Ring>(threads);
    cur_.resize(threads);
    pos_.assign(threads, 0);
    emitted_.assign(threads, 0);
    producer_ = std::thread([this] { producerLoop(); });
}

TraceLogWorkload::~TraceLogWorkload()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    producerCv_.notify_all();
    consumerCv_.notify_all();
    if (producer_.joinable())
        producer_.join();
}

void
TraceLogWorkload::producerLoop()
{
    // Next block index per simulated thread; advance round-robin so no
    // ring starves while another consumer runs ahead.
    std::vector<std::uint64_t> next(rings_.size(), 0);
    try {
        for (;;) {
            int target = -1;
            {
                std::unique_lock<std::mutex> lock(mu_);
                producerCv_.wait(lock, [&] {
                    if (stop_)
                        return true;
                    for (std::size_t t = 0; t < rings_.size(); ++t) {
                        if (!rings_[t].done
                            && rings_[t].blocks.size() < kRingBlocks)
                            return true;
                    }
                    return false;
                });
                if (stop_)
                    return;
                for (std::size_t t = 0; t < rings_.size(); ++t) {
                    if (!rings_[t].done
                        && rings_[t].blocks.size() < kRingBlocks) {
                        target = static_cast<int>(t);
                        break;
                    }
                }
            }
            if (target < 0)
                return; // every stream delivered

            const auto t = static_cast<std::size_t>(target);
            if (next[t] >= reader_->blockCount(target)) {
                std::lock_guard<std::mutex> lock(mu_);
                rings_[t].done = true;
                consumerCv_.notify_all();
                continue;
            }
            // Decode outside the lock: this is the expensive part and
            // the whole point of the producer thread.
            DecodedBlock block = reader_->readBlock(target, next[t]);
            ++next[t];
            {
                std::lock_guard<std::mutex> lock(mu_);
                rings_[t].blocks.push_back(std::move(block));
                ++blocksDecoded_;
                if (next[t] >= reader_->blockCount(target))
                    rings_[t].done = true;
            }
            consumerCv_.notify_all();
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = std::current_exception();
        for (Ring &r : rings_)
            r.done = true;
        consumerCv_.notify_all();
    }
}

std::uint32_t
TraceLogWorkload::refill(int tid, TraceBatch &batch)
{
    const auto t = static_cast<std::size_t>(tid);
    batch.count = 0;
    batch.cursor = 0;

    if (cur_[t] == nullptr || pos_[t] >= cur_[t]->records.size()) {
        cur_[t].reset(); // drop the drained block before waiting
        std::unique_lock<std::mutex> lock(mu_);
        consumerCv_.wait(lock, [&] {
            return stop_ || error_ != nullptr
                   || !rings_[t].blocks.empty() || rings_[t].done;
        });
        if (error_ != nullptr)
            std::rethrow_exception(error_);
        if (rings_[t].blocks.empty())
            return 0; // stream exhausted (or tearing down)
        cur_[t] = std::make_unique<DecodedBlock>(
            std::move(rings_[t].blocks.front()));
        rings_[t].blocks.pop_front();
        pos_[t] = 0;
        lock.unlock();
        producerCv_.notify_all();
    }

    const DecodedBlock &block = *cur_[t];
    std::uint32_t n = 0;
    while (n < TraceBatch::kCapacity
           && pos_[t] < block.records.size()) {
        const TraceRecord &rec = block.records[pos_[t]++];
        batch.records[n++] = rec;
        emitted_[t] += rec.computeOps + 1;
    }
    batch.count = n;
    return n;
}

std::uint64_t
TraceLogWorkload::blocksDecoded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return blocksDecoded_;
}

} // namespace skybyte
