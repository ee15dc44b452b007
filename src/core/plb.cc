#include "core/plb.h"

#include <algorithm>
#include <bit>

namespace skybyte {

bool
Plb::Entry::lineMigrated(std::uint32_t chunk, std::uint32_t line) const
{
    if (chunk >= regionPages || line >= kLinesPerPage)
        return false;
    if ((chunkBitmap[chunk / 64] >> (chunk % 64)) & 1ULL)
        return true; // whole chunk done (first level, §IV)
    if (chunk != currentChunk)
        return false; // chunks migrate in order; later chunks untouched
    return (lineBitmap >> line) & 1ULL;
}

std::uint32_t
Plb::Entry::chunksDone() const
{
    std::uint32_t done = 0;
    for (std::uint64_t word : chunkBitmap)
        done += static_cast<std::uint32_t>(std::popcount(word));
    return done;
}

std::uint32_t
Plb::Entry::hardwareBytes() const
{
    // 4 KB entry (§III-C): 8 B src + 8 B dst + 8 B line bitmap + valid.
    constexpr std::uint32_t kFlatEntry = 24;
    if (!huge())
        return kFlatEntry;
    // Two-level entry (§IV): 64 B first-level chunk bitmap plus the one
    // 8 B second-level line bitmap shared across the region.
    return kFlatEntry + 64;
}

Plb::Plb(std::uint32_t entries) : slots_(entries)
{
    live_.reserve(entries);
    free_.reserve(entries);
    for (std::uint32_t i = entries; i-- > 0;)
        free_.push_back(&slots_[i]);
}

Plb::Entry *
Plb::allocate(std::uint64_t base_lpn, std::uint32_t region_pages)
{
    if (full()) {
        stats_.rejectedFull++;
        return nullptr;
    }
    if (find(base_lpn) != nullptr)
        return nullptr; // already migrating: caller bug, refuse quietly
    Entry *entry = free_.back();
    free_.pop_back();
    *entry = Entry{};
    entry->baseLpn = base_lpn;
    entry->regionPages = std::max<std::uint32_t>(region_pages, 1);
    live_.push_back(entry);
    stats_.allocations++;
    stats_.peakOccupancy =
        std::max<std::uint64_t>(stats_.peakOccupancy, live_.size());
    return entry;
}

Plb::Entry *
Plb::find(std::uint64_t lpn)
{
    for (Entry *entry : live_) {
        if (entry->covers(lpn))
            return entry;
    }
    return nullptr;
}

bool
Plb::markLine(Entry &entry, std::uint32_t chunk, std::uint32_t line)
{
    if (chunk != entry.currentChunk || line >= kLinesPerPage)
        return false; // out-of-order chunk: ignore (§IV in-order copy)
    entry.lineBitmap |= 1ULL << line;
    stats_.lineCopies++;
    if (entry.lineBitmap != ~0ULL)
        return false;
    // The in-flight chunk is complete: latch it into the first level
    // and point the second-level bitmap at the next chunk.
    entry.chunkBitmap[chunk / 64] |= 1ULL << (chunk % 64);
    entry.lineBitmap = 0;
    entry.currentChunk++;
    stats_.chunkCompletions++;
    return entry.currentChunk >= entry.regionPages;
}

void
Plb::release(std::uint64_t base_lpn)
{
    for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i]->baseLpn != base_lpn)
            continue;
        free_.push_back(live_[i]);
        live_[i] = live_.back();
        live_.pop_back();
        stats_.releases++;
        return;
    }
}

} // namespace skybyte
