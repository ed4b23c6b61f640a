#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace mcs {

/// Handle to a scheduled event; can be used to cancel it.
struct EventId {
    std::uint64_t seq = 0;
    bool valid() const noexcept { return seq != 0; }
};

/// A pending event as plain data. `kind` is an opaque small integer: the
/// layer that schedules events owns its meaning and its dispatch; `a` and
/// `b` are kind-specific arguments (ids, indices).
struct Event {
    std::uint32_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/// Time-ordered event queue backed by a bucketed calendar (Brown-style
/// calendar queue) instead of a binary heap. Ties break in scheduling order
/// (FIFO at equal timestamps: pop order is ascending (when, seq)), which
/// keeps simulations deterministic. Entries are plain data, so the pending
/// set can be listed as is (the snapshot manifest is that list).
///
/// Layout: events hash into `buckets_` by `(when >> width_shift_) & mask`.
/// The bucket width is a power of two re-derived at every resize from the
/// pending set's time span divided by its population -- i.e. sized to the
/// mean inter-event gap of the epoch-quantized event mix, so one "day"
/// window usually holds O(1) events. The minimum is found by walking
/// consecutive day windows from a floor that lower-bounds every pending
/// timestamp; a full fruitless lap (a sparse far-future tail) falls back to
/// one direct scan. Resizes trigger on population thresholds only, so the
/// structure's shape is a pure function of the pending set and never
/// depends on wall clock or callers' identities.
///
/// Cancellation is eager: cancel() removes the entry from its bucket
/// immediately (the old heap kept cancelled entries until they surfaced),
/// so cancel-heavy workloads no longer grow the backing storage.
/// `cancelled_count()` reports lifetime cancellations for telemetry.
class EventQueue {
public:
    struct Entry {
        SimTime when = 0;
        std::uint64_t seq = 0;
        Event event;
    };

    EventQueue();

    /// Schedules `event` at absolute time `when`. Returns a cancellation
    /// handle.
    EventId schedule(SimTime when, Event event);

    /// Cancels a pending event, reclaiming its slot immediately. Cancelling
    /// an already-fired or already-cancelled event is a no-op. Returns true
    /// if the event was pending.
    bool cancel(EventId id);

    /// True if the given event is still pending (scheduled, not fired, not
    /// cancelled).
    bool is_pending(EventId id) const;

    bool empty() const noexcept { return index_.empty(); }
    std::size_t pending() const noexcept { return index_.size(); }

    /// Time of the earliest pending event. Requires !empty().
    SimTime next_time() const;

    /// Pops the earliest pending event. Requires !empty().
    Entry pop();

    /// Every pending entry, in ascending seq (= scheduling) order.
    std::vector<Entry> pending_entries() const;

    /// Lifetime count of successful cancel() calls.
    std::uint64_t cancelled_count() const noexcept { return cancelled_; }
    /// Overwrites the cancellation count from a checkpoint.
    void restore_cancelled_count(std::uint64_t n) noexcept { cancelled_ = n; }

    /// Entries physically stored across all buckets. Equals pending() --
    /// exposed so tests can assert that cancellation reclaims eagerly.
    std::size_t stored_entries() const noexcept;

    /// Current bucket count (introspection for tests/benches).
    std::size_t bucket_count() const noexcept { return buckets_.size(); }

private:
    std::size_t bucket_of(SimTime when) const noexcept {
        return static_cast<std::size_t>(when >> width_shift_) &
               (buckets_.size() - 1);
    }
    /// Recomputes the cached minimum (lap scan + direct-search fallback).
    void ensure_min() const;
    /// Removes the entry `seq` from bucket `b` (swap-remove) and returns it.
    Entry extract(std::size_t b, std::uint64_t seq);
    /// Rebuilds into `want_buckets` buckets with a width re-derived from the
    /// pending set (span / population, rounded to a power of two).
    void rebuild(std::size_t want_buckets);
    void maybe_grow();
    void maybe_shrink();

    std::vector<std::vector<Entry>> buckets_;
    std::uint32_t width_shift_ = 0;
    // seq -> scheduled time: liveness ground truth and the bucket locator
    // for eager cancellation.
    std::unordered_map<std::uint64_t, SimTime> index_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t cancelled_ = 0;
    /// Lower bound on every pending timestamp (start of the min search).
    SimTime floor_ = 0;
    // Cached minimum: valid until the next mutation that can move it.
    mutable bool min_valid_ = false;
    mutable SimTime min_when_ = 0;
    mutable std::uint64_t min_seq_ = 0;
    mutable std::size_t min_bucket_ = 0;
};

}  // namespace mcs
