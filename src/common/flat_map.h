/**
 * @file
 * Open-addressing hash map for the simulator's hot indices.
 *
 * std::unordered_map costs one heap node per element and a pointer
 * chase per probe; the request-path indices (fetch table, write-log
 * first level, PLB, access counters, functional DRAM store) are probed
 * on every simulated memory access, so those misses dominated the
 * controller profile. FlatMap stores elements directly in a
 * power-of-two slot array with linear probing and backward-shift
 * deletion (no tombstones), mirroring the packed open-addressing
 * layout the paper's hardware index uses (§III-B).
 *
 * Semantics vs std::unordered_map, sized to what the simulator needs:
 *  - pointers/references are invalidated by any actual insertion
 *    (rehash may relocate) and by erase (backward shift); lookups of
 *    existing keys — find/contains and the found branch of
 *    operator[]/tryEmplace — never invalidate. Callers that need
 *    stable records store slab pointers as values
 *  - iteration (forEach) is in slot order: deterministic for a given
 *    insertion/erase history and portable across standard libraries —
 *    but NOT insertion order; order-sensitive consumers must sort
 *    (see SsdController::maybeStartCompaction)
 *  - the hash is a fixed 64-bit mix (splitmix64 finalizer), so layout
 *    and iteration order are identical on every platform
 */

#ifndef SKYBYTE_COMMON_FLAT_MAP_H
#define SKYBYTE_COMMON_FLAT_MAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace skybyte {

/** splitmix64 finalizer: the fixed, platform-independent key mix. */
struct FlatHash
{
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }
};

/**
 * Open-addressing hash map keyed by a 64-bit integer.
 *
 * T must be move-constructible. The table doubles when occupancy would
 * exceed 70%, starting at 16 slots on first insert.
 */
template <typename T, typename Hash = FlatHash>
class FlatMap
{
  public:
    using Key = std::uint64_t;

    FlatMap() = default;

    FlatMap(FlatMap &&other) noexcept { swap(other); }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        if (this != &other) {
            destroyAll();
            slots_.clear();
            states_.clear();
            size_ = 0;
            mask_ = 0;
            swap(other);
        }
        return *this;
    }

    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    ~FlatMap() { destroyAll(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Value for @p key, or nullptr. */
    T *
    find(Key key)
    {
        const std::size_t idx = findSlot(key);
        return idx == kNotFound ? nullptr : &slots_[idx].value();
    }

    const T *
    find(Key key) const
    {
        const std::size_t idx = findSlot(key);
        return idx == kNotFound ? nullptr : &slots_[idx].value();
    }

    bool contains(Key key) const { return findSlot(key) != kNotFound; }

    /**
     * Insert value-initialized T for @p key if absent; return the
     * (possibly pre-existing) mapped value.
     */
    T &operator[](Key key) { return *tryEmplace(key).first; }

    /**
     * Insert T(args...) if @p key is absent. Finding an existing key
     * never grows the table, so pointers to other elements stay valid
     * across pure lookups/updates spelled as operator[]/tryEmplace;
     * only an actual insertion may rehash.
     * @return {pointer to mapped value, inserted?}
     */
    template <typename... Args>
    std::pair<T *, bool>
    tryEmplace(Key key, Args &&...args)
    {
        std::size_t idx = 0;
        if (!states_.empty()) {
            idx = hash_(key) & mask_;
            while (states_[idx] != kEmpty) {
                if (slots_[idx].key == key)
                    return {&slots_[idx].value(), false};
                idx = (idx + 1) & mask_;
            }
        }
        if (needGrow()) {
            grow();
            idx = hash_(key) & mask_;
            while (states_[idx] != kEmpty)
                idx = (idx + 1) & mask_;
        }
        slots_[idx].key = key;
        ::new (slots_[idx].raw) T(std::forward<Args>(args)...);
        states_[idx] = kOccupied;
        ++size_;
        return {&slots_[idx].value(), true};
    }

    /** Remove @p key. @retval true if it was present. */
    bool
    erase(Key key)
    {
        std::size_t idx = findSlot(key);
        if (idx == kNotFound)
            return false;
        slots_[idx].value().~T();
        states_[idx] = kEmpty;
        --size_;
        // Backward-shift: walk the probe chain after idx, moving back
        // any element whose ideal slot does not lie strictly between
        // the freed hole and itself, so later probes never hit a
        // premature empty slot.
        std::size_t hole = idx;
        std::size_t i = (idx + 1) & mask_;
        while (states_[i] == kOccupied) {
            const std::size_t ideal = hash_(slots_[i].key) & mask_;
            // Can slot i reach `hole` by its own probe sequence?
            // Equivalent: ideal is NOT in the circular interval
            // (hole, i].
            const bool movable =
                hole <= i ? (ideal <= hole || ideal > i)
                          : (ideal <= hole && ideal > i);
            if (movable) {
                slots_[hole].key = slots_[i].key;
                ::new (slots_[hole].raw) T(std::move(slots_[i].value()));
                slots_[i].value().~T();
                states_[hole] = kOccupied;
                states_[i] = kEmpty;
                hole = i;
            }
            i = (i + 1) & mask_;
        }
        return true;
    }

    void
    clear()
    {
        destroyAll();
        std::fill(states_.begin(), states_.end(), kEmpty);
        size_ = 0;
    }

    /** Visit every (key, value) in slot order (see file comment). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < states_.size(); ++i) {
            if (states_[i] == kOccupied)
                fn(slots_[i].key, slots_[i].value());
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < states_.size(); ++i) {
            if (states_[i] == kOccupied)
                fn(slots_[i].key, const_cast<const T &>(slots_[i].value()));
        }
    }

    void
    swap(FlatMap &other) noexcept
    {
        slots_.swap(other.slots_);
        states_.swap(other.states_);
        std::swap(size_, other.size_);
        std::swap(mask_, other.mask_);
    }

  private:
    static constexpr std::size_t kNotFound = ~static_cast<std::size_t>(0);
    static constexpr unsigned char kEmpty = 0;
    static constexpr unsigned char kOccupied = 1;

    /** Key + uninitialized value storage; T lives in raw when occupied. */
    struct Slot
    {
        Key key;
        alignas(T) unsigned char raw[sizeof(T)];

        T &value() { return *std::launder(reinterpret_cast<T *>(raw)); }
        const T &
        value() const
        {
            return *std::launder(reinterpret_cast<const T *>(raw));
        }
    };

    std::size_t
    findSlot(Key key) const
    {
        if (states_.empty())
            return kNotFound;
        std::size_t idx = hash_(key) & mask_;
        while (states_[idx] != kEmpty) {
            if (slots_[idx].key == key)
                return idx;
            idx = (idx + 1) & mask_;
        }
        return kNotFound;
    }

    bool
    needGrow() const
    {
        // Grow past 70% occupancy (linear probing degrades above).
        return states_.empty()
               || (size_ + 1) * 10 > states_.size() * 7;
    }

    void
    grow()
    {
        const std::size_t new_cap =
            states_.empty() ? 16 : states_.size() * 2;
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<unsigned char> old_states = std::move(states_);
        slots_ = std::vector<Slot>(new_cap);
        states_.assign(new_cap, kEmpty);
        mask_ = new_cap - 1;
        for (std::size_t i = 0; i < old_states.size(); ++i) {
            if (old_states[i] != kOccupied)
                continue;
            std::size_t idx = hash_(old_slots[i].key) & mask_;
            while (states_[idx] != kEmpty)
                idx = (idx + 1) & mask_;
            slots_[idx].key = old_slots[i].key;
            ::new (slots_[idx].raw) T(std::move(old_slots[i].value()));
            states_[idx] = kOccupied;
            old_slots[i].value().~T();
        }
    }

    void
    destroyAll()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (std::size_t i = 0; i < states_.size(); ++i) {
                if (states_[i] == kOccupied)
                    slots_[i].value().~T();
            }
        }
    }

    std::vector<Slot> slots_;
    std::vector<unsigned char> states_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    [[no_unique_address]] Hash hash_;
};

} // namespace skybyte

#endif // SKYBYTE_COMMON_FLAT_MAP_H
