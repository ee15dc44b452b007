#include "ssd/ftl.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace skybyte {

Ftl::Ftl(const FlashConfig &cfg, EventQueue &eq, std::uint64_t seed,
         bool payload)
    : cfg_(cfg), eq_(eq), payload_(payload), rng_(seed)
{
    channels_.resize(cfg_.channels);
    const auto blocks = static_cast<std::uint32_t>(cfg_.blocksPerChannel());
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        Channel &ch = channels_[c];
        ch.flash = std::make_unique<FlashChannel>(static_cast<int>(c),
                                                  cfg_, eq_);
        ch.flash->setCompletionHook(
            [this, c](Tick done) { maybeStartGc(c, done); });
        ch.blocks.resize(blocks);
        ch.slotLpn = std::make_unique_for_overwrite<std::uint64_t[]>(
            static_cast<std::size_t>(blocks) * cfg_.pagesPerBlock);
        // All blocks initially free except the first, which opens.
        for (std::uint32_t b = blocks; b > 1; --b)
            ch.freeList.push_back(b - 1);
        ch.blocks[0].isFree = false;
        ch.blocks[0].isOpen = true;
        ch.openBlock = 0;
        ch.coldLpnNext = kColdLpnBase + c;
    }
}

std::uint32_t
Ftl::gcThresholdBlocks() const
{
    return static_cast<std::uint32_t>(
        static_cast<double>(cfg_.blocksPerChannel())
        * cfg_.gcFreeBlockThreshold);
}

std::uint32_t
Ftl::freeBlocks(std::uint32_t ch) const
{
    return static_cast<std::uint32_t>(channels_[ch].freeList.size());
}

std::uint64_t
Ftl::totalPrograms() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch.flash->completedPrograms();
    return n;
}

std::uint64_t
Ftl::totalReads() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch.flash->completedReads();
    return n;
}

const FlashChannel &
Ftl::channelOf(std::uint64_t lpn) const
{
    return *channels_[channelIdx(lpn)].flash;
}

void
Ftl::ensureOpenBlock(Channel &ch)
{
    Block &open = ch.blocks[ch.openBlock];
    if (open.isOpen && open.writeCursor < cfg_.pagesPerBlock)
        return;
    if (ch.freeList.empty()) {
        throw std::runtime_error(
            "flash channel " + std::to_string(&ch - channels_.data())
            + " has no free block: host footprint spans "
            + std::to_string(mapping_.size()) + " pages, device holds "
            + std::to_string(cfg_.totalPages()) + " pages");
    }
    open.isOpen = false;
    std::uint32_t next;
    if (cfg_.wearAwareAllocation) {
        // Dynamic wear leveling: open the least-erased free block so
        // hot rewrite streams do not keep cycling the same blocks.
        auto coldest = ch.freeList.begin();
        for (auto it = ch.freeList.begin(); it != ch.freeList.end();
             ++it) {
            if (ch.blocks[*it].eraseCount
                < ch.blocks[*coldest].eraseCount) {
                coldest = it;
            }
        }
        next = *coldest;
        ch.freeList.erase(coldest);
    } else {
        next = ch.freeList.back();
        ch.freeList.pop_back();
    }
    Block &blk = ch.blocks[next];
    blk.isFree = false;
    blk.isOpen = true;
    blk.writeCursor = 0;
    blk.validCount = 0;
    ch.openBlock = next;
}

void
Ftl::requireHostLpn(std::uint64_t lpn)
{
    if (lpn >= kColdLpnBase) {
        throw std::out_of_range("FTL: LPN " + std::to_string(lpn)
                                + " is outside the host range");
    }
}

void
Ftl::invalidate(std::uint64_t lpn)
{
    if (lpn >= mapping_.size() || !mapping_[lpn].valid())
        return;
    Ppa &ppa = mapping_[lpn];
    Channel &ch = channels_[channelIdx(lpn)];
    std::uint64_t &slot = ch.slotLpn[slotIndex(ppa.block, ppa.slot)];
    if (slot == lpn) {
        slot = kInvalidLpn;
        Block &blk = ch.blocks[ppa.block];
        if (blk.validCount > 0)
            blk.validCount--;
    }
    ppa.slot = Ppa::kUnmapped;
}

Ftl::Ppa
Ftl::mapToOpenBlock(Channel &ch, std::uint64_t lpn)
{
    ensureOpenBlock(ch);
    Block &blk = ch.blocks[ch.openBlock];
    if (blk.writeCursor == 0) {
        std::fill_n(ch.slotLpn.get() + slotIndex(ch.openBlock),
                    cfg_.pagesPerBlock, kInvalidLpn);
    }
    const Ppa ppa{ch.openBlock, blk.writeCursor++};
    ch.slotLpn[slotIndex(ppa.block, ppa.slot)] = lpn;
    blk.validCount++;
    if (lpn < kColdLpnBase) {
        if (lpn >= mapping_.size())
            mapping_.resize(lpn + 1);
        mapping_[lpn] = ppa;
    }
    return ppa;
}

void
Ftl::readPage(std::uint64_t lpn, Tick when, FlashDoneFn cb)
{
    requireHostLpn(lpn);
    Channel &ch = channels_[channelIdx(lpn)];
    if (lpn >= mapping_.size() || !mapping_[lpn].valid()) {
        // First touch of a never-written page: map it in place
        // (the paper's simulator warms all data into the SSD first).
        mapToOpenBlock(ch, lpn);
    }
    stats_.hostReads++;
    ch.flash->enqueue(FlashOpKind::Read, when, std::move(cb));
}

void
Ftl::writePage(std::uint64_t lpn, Tick when, const PageData *data,
               FlashDoneFn cb)
{
    requireHostLpn(lpn);
    Channel &ch = channels_[channelIdx(lpn)];
    invalidate(lpn);
    mapToOpenBlock(ch, lpn);
    if (payload_ && data != nullptr)
        pageData(lpn) = *data;
    stats_.hostPrograms++;
    // The channel's completion hook runs maybeStartGc after cb.
    ch.flash->enqueue(FlashOpKind::Program, when, std::move(cb), true);
    // Also evaluate GC eagerly so back-to-back writes cannot outrun it.
    maybeStartGc(channelIdx(lpn), when);
}

Tick
Ftl::estimateReadDelay(std::uint64_t lpn, Tick now) const
{
    return channels_[channelIdx(lpn)].flash->estimateReadDelay(now);
}

bool
Ftl::gcActiveFor(std::uint64_t lpn) const
{
    return channels_[channelIdx(lpn)].flash->gcActive();
}

void
Ftl::maybeStartGc(std::uint32_t ch_idx, Tick when)
{
    Channel &ch = channels_[ch_idx];
    if (ch.gcRunning)
        return;
    if (ch.freeList.size() >= gcThresholdBlocks())
        return;
    ch.gcRunning = true;
    ch.flash->setGcActive(true);
    stats_.gcRuns++;
    gcRound(ch_idx, when);
}

void
Ftl::gcRound(std::uint32_t ch_idx, Tick when)
{
    Channel &ch = channels_[ch_idx];

    // Greedy victim: fewest valid pages among closed, non-free blocks.
    std::uint32_t victim = ~0u;
    std::uint32_t best_valid = ~0u;
    for (std::uint32_t b = 0; b < ch.blocks.size(); ++b) {
        const Block &blk = ch.blocks[b];
        if (blk.isFree || blk.isOpen || blk.writeCursor == 0)
            continue;
        if (blk.validCount < best_valid) {
            best_valid = blk.validCount;
            victim = b;
        }
    }
    // Nothing reclaimable (no victim, or only fully-valid blocks whose
    // relocation would consume as many pages as it frees): stop rather
    // than churn forever.
    if (victim == ~0u || best_valid >= cfg_.pagesPerBlock) {
        ch.gcRunning = false;
        ch.flash->setGcActive(false);
        return;
    }

    // Relocate valid pages: read + program per page, sharing the FIFO.
    Block &blk = ch.blocks[victim];
    std::uint64_t *slots = ch.slotLpn.get() + slotIndex(victim);
    Tick cursor = when;
    for (std::uint32_t s = 0; s < cfg_.pagesPerBlock; ++s) {
        const std::uint64_t lpn = slots[s];
        if (lpn == kInvalidLpn)
            continue;
        ch.flash->enqueue(FlashOpKind::Read, cursor, nullptr);
        // Remap before enqueueing the program so the open block advances.
        slots[s] = kInvalidLpn;
        blk.validCount--;
        mapToOpenBlock(ch, lpn);
        ch.flash->enqueue(FlashOpKind::Program, cursor, nullptr);
        stats_.gcPageMoves++;
    }

    ch.flash->enqueue(FlashOpKind::Erase, cursor,
                      [this, ch_idx, victim](Tick done) {
        Channel &chn = channels_[ch_idx];
        Block &vb = chn.blocks[victim];
        vb.isFree = true;
        vb.isOpen = false;
        vb.validCount = 0;
        vb.writeCursor = 0;
        vb.eraseCount++;
        std::fill_n(chn.slotLpn.get() + slotIndex(victim),
                    cfg_.pagesPerBlock, kInvalidLpn);
        chn.freeList.push_back(victim);
        stats_.gcErases++;
        if (chn.freeList.size()
            < static_cast<std::size_t>(
                  static_cast<double>(cfg_.blocksPerChannel())
                  * cfg_.gcRestoreThreshold)) {
            gcRound(ch_idx, done);
        } else {
            chn.gcRunning = false;
            chn.flash->setGcActive(false);
        }
    });
}

void
Ftl::precondition(std::uint64_t footprint_pages, double rewrite_fraction)
{
    if (footprint_pages > mapping_.size())
        mapping_.resize(footprint_pages);

    // 1. Map every host LPN once (no timing; boot-time state).
    for (std::uint64_t lpn = 0; lpn < footprint_pages; ++lpn)
        mapToOpenBlock(channels_[channelIdx(lpn)], lpn);

    // 2. Rewrite a fraction to scatter dead pages across blocks.
    const auto rewrites = static_cast<std::uint64_t>(
        static_cast<double>(footprint_pages) * rewrite_fraction);
    for (std::uint64_t i = 0; i < rewrites; ++i) {
        const std::uint64_t lpn = rng_.below(footprint_pages);
        invalidate(lpn);
        mapToOpenBlock(channels_[channelIdx(lpn)], lpn);
    }

    // 3. Pad each channel with cold data until free blocks sit just above
    //    the GC threshold, so host writes soon push it into GC. A
    //    quarter of the cold pages are dead (over-written data), leaving
    //    GC victims with reclaimable space — a steady-state device, not
    //    a pathological 100%-valid one. Nothing can have moved a cold
    //    page yet, so its slot is killed directly.
    const std::uint32_t target_free = gcThresholdBlocks() + 2;
    std::vector<Ppa> cold_pages;
    for (auto &ch : channels_) {
        cold_pages.clear();
        while (ch.freeList.size() > target_free) {
            const std::uint64_t cold = ch.coldLpnNext;
            ch.coldLpnNext += cfg_.channels;
            cold_pages.push_back(mapToOpenBlock(ch, cold));
        }
        for (const Ppa &at : cold_pages) {
            if (rng_.chance(0.25)) {
                ch.slotLpn[slotIndex(at.block, at.slot)] = kInvalidLpn;
                ch.blocks[at.block].validCount--;
            }
        }
    }
}

double
Ftl::writeAmplification() const
{
    if (stats_.hostPrograms == 0)
        return 1.0;
    return static_cast<double>(stats_.hostPrograms + stats_.gcPageMoves)
           / static_cast<double>(stats_.hostPrograms);
}

Ftl::WearSummary
Ftl::wearSummary() const
{
    WearSummary summary;
    std::uint64_t total = 0;
    std::uint64_t count = 0;
    bool first = true;
    for (const Channel &ch : channels_) {
        for (const Block &blk : ch.blocks) {
            if (first) {
                summary.minErase = blk.eraseCount;
                summary.maxErase = blk.eraseCount;
                first = false;
            }
            summary.minErase = std::min(summary.minErase,
                                        blk.eraseCount);
            summary.maxErase = std::max(summary.maxErase,
                                        blk.eraseCount);
            total += blk.eraseCount;
            count++;
        }
    }
    if (count > 0)
        summary.meanErase = static_cast<double>(total)
                            / static_cast<double>(count);
    return summary;
}

std::string
Ftl::audit() const
{
    std::ostringstream why;
    std::uint64_t valid_sum = 0;
    std::uint64_t live_cold = 0;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const Channel &ch = channels_[c];
        for (std::uint32_t b = 0; b < ch.blocks.size(); ++b) {
            const Block &blk = ch.blocks[b];
            // Slots are written from a block's first mapped page on
            // (and by every erase); a never-written block has none.
            const bool written = blk.writeCursor > 0 || blk.eraseCount > 0;
            std::uint32_t live = 0;
            for (std::uint32_t s = 0; written && s < cfg_.pagesPerBlock;
                 ++s) {
                const std::uint64_t lpn = ch.slotLpn[slotIndex(b, s)];
                if (lpn == kInvalidLpn)
                    continue;
                live++;
                if (lpn >= kColdLpnBase)
                    live_cold++;
            }
            if (blk.validCount != live || (blk.isFree && live > 0)) {
                why << "channel " << c << " block " << b
                    << (blk.isFree ? " (free)" : "") << " counts "
                    << blk.validCount << " valid pages and holds " << live
                    << " live slots";
                return why.str();
            }
            valid_sum += blk.validCount;
        }
    }
    std::uint64_t mapped = 0;
    for (std::uint64_t lpn = 0; lpn < mapping_.size(); ++lpn) {
        const Ppa &ppa = mapping_[lpn];
        if (!ppa.valid())
            continue;
        mapped++;
        const Channel &ch = channels_[channelIdx(lpn)];
        if (ppa.block >= ch.blocks.size() || ppa.slot >= cfg_.pagesPerBlock
            || ch.slotLpn[slotIndex(ppa.block, ppa.slot)] != lpn) {
            why << "LPN " << lpn << " maps to block " << ppa.block
                << " slot " << ppa.slot << ", which does not hold it";
            return why.str();
        }
    }
    if (mapped + live_cold != valid_sum) {
        why << mapped << " host mappings + " << live_cold
            << " live cold slots != " << valid_sum << " valid pages";
    }
    return why.str();
}

PageData &
Ftl::pageData(std::uint64_t lpn)
{
    requireHostLpn(lpn);
    if (!payload_)
        throw std::logic_error("Ftl::pageData: no payload is kept");
    if (lpn >= data_.size())
        data_.resize(lpn + 1);
    auto &slot = data_[lpn];
    if (!slot)
        slot = std::make_unique<PageData>(PageData{});
    return *slot;
}

LineValue
Ftl::peekLine(Addr line_addr) const
{
    const std::uint64_t lpn = pageNumber(line_addr);
    if (lpn >= data_.size() || !data_[lpn])
        return 0;
    return (*data_[lpn])[lineInPage(line_addr)];
}

} // namespace skybyte
