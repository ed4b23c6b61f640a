#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/require.hpp"

namespace mcs {

namespace {

constexpr std::size_t kMinBuckets = 16;
constexpr std::uint32_t kMaxWidthShift = 40;  // 2^40 ns ~ 18 minutes

/// Strict (when, seq) order: the pop order contract.
bool earlier(SimTime aw, std::uint64_t as, SimTime bw,
             std::uint64_t bs) noexcept {
    return aw != bw ? aw < bw : as < bs;
}

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets) {}

std::size_t EventQueue::stored_entries() const noexcept {
    std::size_t n = 0;
    for (const auto& b : buckets_) {
        n += b.size();
    }
    return n;
}

EventId EventQueue::schedule(SimTime when, Event event) {
    const std::uint64_t seq = next_seq_++;
    if (index_.empty()) {
        floor_ = when;
    } else if (when < floor_) {
        floor_ = when;
    }
    buckets_[bucket_of(when)].push_back(Entry{when, seq, event});
    index_.emplace(seq, when);
    if (min_valid_) {
        // A fresh seq is larger than every live one, so ties keep the
        // cached minimum (FIFO at equal timestamps).
        if (when < min_when_) {
            min_when_ = when;
            min_seq_ = seq;
            min_bucket_ = bucket_of(when);
        }
    } else if (index_.size() == 1) {
        min_valid_ = true;
        min_when_ = when;
        min_seq_ = seq;
        min_bucket_ = bucket_of(when);
    }
    maybe_grow();
    return EventId{seq};
}

bool EventQueue::cancel(EventId id) {
    if (!id.valid()) {
        return false;
    }
    const auto it = index_.find(id.seq);
    if (it == index_.end()) {
        return false;
    }
    extract(bucket_of(it->second), id.seq);
    index_.erase(it);
    ++cancelled_;
    if (min_valid_ && id.seq == min_seq_) {
        min_valid_ = false;
    }
    maybe_shrink();
    return true;
}

bool EventQueue::is_pending(EventId id) const {
    return id.valid() && index_.count(id.seq) != 0;
}

void EventQueue::ensure_min() const {
    if (min_valid_ || index_.empty()) {
        return;
    }
    // Walk consecutive day windows from the floor: the first window holding
    // any entry holds the global minimum (all entries of an earlier window
    // would live in an earlier-visited bucket, and same-window entries share
    // one bucket).
    const std::size_t nb = buckets_.size();
    const SimTime first_day = floor_ >> width_shift_;
    for (std::size_t lap = 0; lap < nb; ++lap) {
        const SimTime day = first_day + static_cast<SimTime>(lap);
        const std::size_t b = static_cast<std::size_t>(day) & (nb - 1);
        bool found = false;
        SimTime bw = 0;
        std::uint64_t bs = 0;
        for (const Entry& e : buckets_[b]) {
            if ((e.when >> width_shift_) != day) {
                continue;  // a later lap of this bucket
            }
            if (!found || earlier(e.when, e.seq, bw, bs)) {
                found = true;
                bw = e.when;
                bs = e.seq;
            }
        }
        if (found) {
            min_valid_ = true;
            min_when_ = bw;
            min_seq_ = bs;
            min_bucket_ = b;
            return;
        }
    }
    // Sparse tail: everything lives beyond one full calendar year from the
    // floor. One direct scan finds the minimum.
    bool found = false;
    for (std::size_t b = 0; b < nb; ++b) {
        for (const Entry& e : buckets_[b]) {
            if (!found || earlier(e.when, e.seq, min_when_, min_seq_)) {
                found = true;
                min_when_ = e.when;
                min_seq_ = e.seq;
                min_bucket_ = b;
            }
        }
    }
    MCS_REQUIRE(found, "calendar queue lost a pending entry");
    min_valid_ = true;
}

SimTime EventQueue::next_time() const {
    MCS_REQUIRE(!empty(), "next_time on empty event queue");
    ensure_min();
    return min_when_;
}

EventQueue::Entry EventQueue::extract(std::size_t b, std::uint64_t seq) {
    std::vector<Entry>& bucket = buckets_[b];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].seq == seq) {
            const Entry out = bucket[i];
            bucket[i] = bucket.back();
            bucket.pop_back();
            return out;
        }
    }
    MCS_REQUIRE(false, "calendar queue entry missing from its bucket");
    return Entry{};
}

EventQueue::Entry EventQueue::pop() {
    MCS_REQUIRE(!empty(), "pop on empty event queue");
    ensure_min();
    const Entry e = extract(min_bucket_, min_seq_);
    index_.erase(e.seq);
    floor_ = e.when;  // remaining entries are all >= the popped minimum
    min_valid_ = false;
    maybe_shrink();
    return e;
}

std::vector<EventQueue::Entry> EventQueue::pending_entries() const {
    std::vector<Entry> out;
    out.reserve(index_.size());
    for (const auto& bucket : buckets_) {
        out.insert(out.end(), bucket.begin(), bucket.end());
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
        return a.seq < b.seq;
    });
    return out;
}

void EventQueue::maybe_grow() {
    if (index_.size() > 2 * buckets_.size()) {
        rebuild(std::bit_ceil(index_.size()));
    }
}

void EventQueue::maybe_shrink() {
    if (buckets_.size() > kMinBuckets &&
        index_.size() < buckets_.size() / 8) {
        rebuild(std::max(kMinBuckets, std::bit_ceil(index_.size() * 2)));
    }
}

void EventQueue::rebuild(std::size_t want_buckets) {
    std::vector<Entry> all;
    all.reserve(index_.size());
    SimTime lo = std::numeric_limits<SimTime>::max();
    SimTime hi = 0;
    for (auto& bucket : buckets_) {
        for (const Entry& e : bucket) {
            lo = std::min(lo, e.when);
            hi = std::max(hi, e.when);
            all.push_back(e);
        }
        bucket.clear();
    }
    // Bucket width ~ the mean inter-event gap of the pending set (span /
    // population), rounded to a power of two: one day window then holds
    // O(1) events on the epoch-quantized mix. Both inputs are functions of
    // the pending set alone, so the layout is deterministic.
    const SimTime span = all.empty() ? 0 : hi - lo;
    const SimTime gap = span / std::max<std::size_t>(std::size_t{1}, all.size());
    width_shift_ = gap == 0
                       ? 0
                       : std::min<std::uint32_t>(
                             kMaxWidthShift,
                             static_cast<std::uint32_t>(
                                 std::bit_width(static_cast<std::uint64_t>(gap))));
    buckets_.assign(want_buckets, {});
    for (const Entry& e : all) {
        buckets_[bucket_of(e.when)].push_back(e);
    }
    if (min_valid_) {
        min_bucket_ = bucket_of(min_when_);
    }
}

}  // namespace mcs
