#include "core/reclaim.h"

#include <iterator>

namespace skybyte {

void
ActiveInactiveLists::insert(std::uint64_t key, Tick now)
{
    if (tracked(key))
        return;
    if (key >= index_.size())
        index_.resize(key + 1);
    active_.push_front(Node{key, false, now});
    index_[key] = Position{Where::Active, active_.begin()};
    rebalance();
}

void
ActiveInactiveLists::touch(std::uint64_t key, Tick now)
{
    if (!tracked(key))
        return;
    Position &pos = index_[key];
    pos.it->lastUse = now;
    if (pos.where == Where::Active) {
        pos.it->referenced = true; // lazy: no list movement on hot path
        return;
    }
    // Inactive page referenced: activate it (mm moves it to the active
    // head and clears the referenced bit).
    Node node = *pos.it;
    inactive_.erase(pos.it);
    node.referenced = false;
    active_.push_front(node);
    pos = Position{Where::Active, active_.begin()};
    stats_.activations++;
    rebalance();
}

void
ActiveInactiveLists::erase(std::uint64_t key)
{
    if (!tracked(key))
        return;
    Position &pos = index_[key];
    (pos.where == Where::Active ? active_ : inactive_).erase(pos.it);
    pos = Position{};
}

void
ActiveInactiveLists::rebalance()
{
    while (active_.size() > 2 * (inactive_.size() + 1)) {
        Node node = active_.back();
        active_.pop_back();
        if (node.referenced) {
            // Second chance: back to the active head, bit cleared.
            node.referenced = false;
            active_.push_front(node);
            index_[node.key] = Position{Where::Active, active_.begin()};
            stats_.secondChances++;
            continue;
        }
        inactive_.push_front(node);
        index_[node.key] = Position{Where::Inactive, inactive_.begin()};
        stats_.deactivations++;
    }
}

bool
ActiveInactiveLists::selectVictim(Tick now, Tick min_idle,
                                  std::uint64_t &victim)
{
    // Bound the scan: each entry is inspected at most once per call.
    std::uint64_t budget = size();
    while (budget-- > 0) {
        if (inactive_.empty())
            rebalance();
        if (inactive_.empty()) {
            // Everything is active: force-age the tail so the scan can
            // make progress (mm's inactive_is_low path).
            if (active_.empty())
                return false;
            Node node = active_.back();
            active_.pop_back();
            if (node.referenced) {
                node.referenced = false;
                active_.push_front(node);
                index_[node.key] = Position{Where::Active, active_.begin()};
                stats_.secondChances++;
                continue;
            }
            inactive_.push_front(node);
            index_[node.key] = Position{Where::Inactive, inactive_.begin()};
            stats_.deactivations++;
        }
        Node node = inactive_.back();
        inactive_.pop_back();
        if (node.referenced) {
            node.referenced = false;
            active_.push_front(node);
            index_[node.key] = Position{Where::Active, active_.begin()};
            stats_.activations++;
            continue;
        }
        if (min_idle > 0 && node.lastUse + min_idle > now) {
            // Even the coldest unreferenced page is recent: refuse to
            // churn. Put it back where it was.
            inactive_.push_back(node);
            index_[node.key] =
                Position{Where::Inactive, std::prev(inactive_.end())};
            return false;
        }
        index_[node.key] = Position{};
        stats_.evictions++;
        victim = node.key;
        return true;
    }
    return false;
}

} // namespace skybyte
