/**
 * @file
 * Free-list slab allocator for fixed-type simulation records.
 *
 * The request path allocates one record per in-flight fetch plus one
 * per waiting request, and the event kernel one per pending event;
 * their lifetimes are bounded by device latency, so a small recycled
 * pool covers the steady state and alloc/release become a pointer
 * swap. Chunks are never returned to the system until the
 * allocator is destroyed, keeping record addresses stable for the
 * intrusive chains threaded through them.
 */

#ifndef SKYBYTE_COMMON_SLAB_H
#define SKYBYTE_COMMON_SLAB_H

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace skybyte {

/**
 * Typed slab: alloc() placement-constructs a T, release() destroys it
 * and recycles its storage. The caller owns lifetime bookkeeping; any
 * record still live at destruction leaks its T's resources (owners
 * drain their live records first).
 */
template <typename T>
class Slab
{
  public:
    static constexpr std::size_t kChunkRecords = 256;

    explicit Slab(std::size_t chunk_records = kChunkRecords)
        : chunkRecords_(chunk_records == 0 ? 1 : chunk_records)
    {}

    Slab(const Slab &) = delete;
    Slab &operator=(const Slab &) = delete;

    template <typename... Args>
    T *
    alloc(Args &&...args)
    {
        if (free_ == nullptr)
            refill();
        Node *n = free_;
        free_ = n->next;
        return ::new (static_cast<void *>(n->storage))
            T(std::forward<Args>(args)...);
    }

    void
    release(T *ptr)
    {
        ptr->~T();
        Node *n = reinterpret_cast<Node *>(
            reinterpret_cast<unsigned char *>(ptr));
        n->next = free_;
        free_ = n;
    }

  private:
    union Node
    {
        Node *next;
        alignas(T) unsigned char storage[sizeof(T)];
    };

    void
    refill()
    {
        chunks_.push_back(std::make_unique<Node[]>(chunkRecords_));
        Node *chunk = chunks_.back().get();
        for (std::size_t i = chunkRecords_; i-- > 0;) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
    }

    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_ = nullptr;
    std::size_t chunkRecords_;
};

/**
 * Intrusive singly-linked FIFO threaded through the records' own
 * `next` pointers. The request path appends waiters at the tail and
 * replays them head-first, so completion order equals arrival order —
 * an invariant the event-queue seq tie-break depends on; keeping the
 * append in one place keeps it from drifting across record types.
 */
template <typename T>
struct IntrusiveFifo
{
    T *head = nullptr;
    T *tail = nullptr;

    bool empty() const { return head == nullptr; }

    /** Append @p node (its `next` is overwritten). */
    void
    append(T *node)
    {
        node->next = nullptr;
        if (tail != nullptr)
            tail->next = node;
        else
            head = node;
        tail = node;
    }

    /** Release every node back into @p slab (runs destructors). */
    void
    drainTo(Slab<T> &slab)
    {
        for (T *node = head; node != nullptr;) {
            T *next = node->next;
            slab.release(node);
            node = next;
        }
        head = tail = nullptr;
    }
};

} // namespace skybyte

#endif // SKYBYTE_COMMON_SLAB_H
