#include "sim/event_queue.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace mcs {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<std::uint64_t> order;
    q.schedule(30, Event{0, 3, 0});
    q.schedule(10, Event{0, 1, 0});
    q.schedule(20, Event{0, 2, 0});
    while (!q.empty()) {
        order.push_back(q.pop().event.a);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
    EventQueue q;
    for (std::uint64_t i = 0; i < 10; ++i) {
        q.schedule(5, Event{0, i, 0});
    }
    for (std::uint64_t i = 0; i < 10; ++i) {
        const EventQueue::Entry e = q.pop();
        EXPECT_EQ(e.event.a, i);
        EXPECT_EQ(e.seq, i + 1);
    }
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    const EventId id = q.schedule(10, Event{});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelTwiceIsNoop) {
    EventQueue q;
    const EventId id = q.schedule(10, Event{});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
    EventQueue q;
    const EventId id = q.schedule(10, Event{});
    q.pop();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredWhileOthersPendingKeepsCount) {
    EventQueue q;
    const EventId a = q.schedule(1, Event{});
    q.schedule(2, Event{});
    q.pop();  // fires a
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.cancel(a));  // a already fired
    EXPECT_EQ(q.pending(), 1u);  // count must not be corrupted
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{}));
    EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, IsPendingTracksLifecycle) {
    EventQueue q;
    const EventId id = q.schedule(5, Event{});
    EXPECT_TRUE(q.is_pending(id));
    q.pop();
    EXPECT_FALSE(q.is_pending(id));
    const EventId id2 = q.schedule(5, Event{});
    q.cancel(id2);
    EXPECT_FALSE(q.is_pending(id2));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
    EventQueue q;
    const EventId early = q.schedule(1, Event{});
    q.schedule(10, Event{});
    q.cancel(early);
    EXPECT_EQ(q.next_time(), 10u);
}

TEST(EventQueue, EmptyAccessorsThrow) {
    EventQueue q;
    EXPECT_THROW(q.pop(), RequireError);
    EXPECT_THROW(q.next_time(), RequireError);
}

TEST(EventQueue, PendingCountTracksScheduleAndCancel) {
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(q.schedule(static_cast<SimTime>(i), Event{}));
    }
    EXPECT_EQ(q.pending(), 100u);
    for (int i = 0; i < 50; ++i) {
        q.cancel(ids[static_cast<std::size_t>(2 * i)]);
    }
    EXPECT_EQ(q.pending(), 50u);
    int fired = 0;
    while (!q.empty()) {
        q.pop();
        ++fired;
    }
    EXPECT_EQ(fired, 50);
}

// Property test: random schedule/cancel/pop sequences match a reference
// model (multimap ordered by (time, seq)).
class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
    Rng rng(GetParam());
    EventQueue q;
    // Reference: (time, seq) -> alive.
    std::map<std::pair<SimTime, std::uint64_t>, bool> model;
    std::vector<std::pair<EventId, std::pair<SimTime, std::uint64_t>>> handles;
    std::uint64_t seq = 0;
    SimTime clock = 0;
    for (int step = 0; step < 3000; ++step) {
        const double action = rng.uniform();
        if (action < 0.5) {
            const SimTime t = clock + rng.uniform_int(0, 1000);
            const EventId id = q.schedule(t, Event{});
            model[{t, ++seq}] = true;
            handles.push_back({id, {t, seq}});
        } else if (action < 0.7 && !handles.empty()) {
            const auto& h = handles[rng.index(handles.size())];
            const bool q_did = q.cancel(h.first);
            auto it = model.find(h.second);
            const bool model_did = it != model.end() && it->second;
            EXPECT_EQ(q_did, model_did);
            if (model_did) {
                it->second = false;
            }
        } else if (!q.empty()) {
            // Pop the earliest; reference must agree on the timestamp.
            auto alive = model.begin();
            while (alive != model.end() && !alive->second) {
                ++alive;
            }
            ASSERT_NE(alive, model.end());
            const SimTime t = q.pop().when;
            EXPECT_EQ(t, alive->first.first);
            EXPECT_GE(t, clock);
            clock = t;
            alive->second = false;
        }
        // Erase dead prefix from the model to mirror q's ground truth size.
        std::size_t model_alive = 0;
        for (const auto& [k, alive_flag] : model) {
            model_alive += alive_flag ? 1 : 0;
        }
        ASSERT_EQ(q.pending(), model_alive);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(EventQueue, CancelReclaimsStorageEagerly) {
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 2000; ++i) {
        ids.push_back(q.schedule(static_cast<SimTime>(100 + i % 7), Event{}));
    }
    for (int i = 0; i < 2000; i += 2) {
        q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    // The old heap kept cancelled entries until they surfaced; the calendar
    // queue reclaims the slot inside cancel() itself.
    EXPECT_EQ(q.stored_entries(), q.pending());
    EXPECT_EQ(q.pending(), 1000u);
    EXPECT_EQ(q.cancelled_count(), 1000u);
    while (!q.empty()) {
        q.pop();
        EXPECT_EQ(q.stored_entries(), q.pending());
    }
}

TEST(EventQueue, CancelledCountRestores) {
    EventQueue q;
    q.cancel(q.schedule(5, Event{}));
    EXPECT_EQ(q.cancelled_count(), 1u);
    q.restore_cancelled_count(42);
    EXPECT_EQ(q.cancelled_count(), 42u);
    q.cancel(q.schedule(6, Event{}));
    EXPECT_EQ(q.cancelled_count(), 43u);
}

// Determinism property test: randomized schedule/cancel interleavings at
// epoch-quantized timestamps (many equal-time ties), then the FULL pop
// order -- including FIFO order within a timestamp, witnessed by payload
// identity -- must match a reference heap model ordered by (when, seq).
class EventQueueDeterminism
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDeterminism, PopOrderMatchesReferenceHeap) {
    Rng rng(GetParam());
    constexpr SimTime kEpoch = 1000;  // quantum: forces heavy tie-breaking
    EventQueue q;
    // Reference model: (when, seq) -> payload, std::map iteration order is
    // exactly the strict (when, seq) pop order the queue promises.
    std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> model;
    std::vector<std::pair<EventId, std::pair<SimTime, std::uint64_t>>> live;
    SimTime clock = 0;
    std::uint64_t payload = 0;
    for (int step = 0; step < 4000; ++step) {
        const double action = rng.uniform();
        if (action < 0.55) {
            // Epoch-quantized: land on one of the next few epoch marks.
            const SimTime t =
                (clock / kEpoch + 1 + rng.uniform_int(0, 4)) * kEpoch;
            const std::uint64_t p = payload++;
            const EventId id = q.schedule(t, Event{0, p, 0});
            model[{t, id.seq}] = p;
            live.push_back({id, {t, id.seq}});
        } else if (action < 0.75 && !live.empty()) {
            const std::size_t pick = rng.index(live.size());
            const auto [id, key] = live[pick];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
            EXPECT_TRUE(q.cancel(id));
            model.erase(key);
        } else if (!q.empty()) {
            auto ref = model.begin();
            const EventQueue::Entry e = q.pop();
            ASSERT_EQ(e.when, ref->first.first);
            // Payload identity proves FIFO within the shared timestamp.
            ASSERT_EQ(e.event.a, ref->second);
            clock = e.when;
            model.erase(ref);
            std::erase_if(live, [&](const auto& h) {
                return !q.is_pending(h.first);
            });
        }
        ASSERT_EQ(q.pending(), model.size());
        ASSERT_EQ(q.stored_entries(), model.size());
    }
    // Drain: the remaining pop order must equal the model's key order.
    while (!q.empty()) {
        auto ref = model.begin();
        const EventQueue::Entry e = q.pop();
        ASSERT_EQ(e.when, ref->first.first);
        ASSERT_EQ(e.event.a, ref->second);
        model.erase(ref);
    }
    EXPECT_TRUE(model.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDeterminism,
                         ::testing::Values(7u, 99u, 2026u, 31337u));

// Snapshot-style rebuild: the pending entries, listed in ascending seq
// order and scheduled into a fresh queue (fresh seqs), keep their payloads
// and the pop order, and the fresh seqs are contiguous -- the contract the
// snapshot capture and restore paths (core/snapshot.cpp) rely on.
TEST(EventQueue, ManifestReplayPreservesOrderAndSeqContinuity) {
    Rng rng(77);
    EventQueue q;
    std::vector<EventId> handles;
    for (std::uint64_t p = 0; p < 500; ++p) {
        const SimTime t = (1 + rng.uniform_int(0, 19)) * 1000;
        handles.push_back(q.schedule(t, Event{0, p, 0}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) {
        q.cancel(handles[i]);
    }
    for (int i = 0; i < 100 && !q.empty(); ++i) {
        q.pop();
    }
    const std::vector<EventQueue::Entry> manifest = q.pending_entries();
    ASSERT_EQ(manifest.size(), q.pending());
    for (std::size_t i = 1; i < manifest.size(); ++i) {
        ASSERT_LT(manifest[i - 1].seq, manifest[i].seq);
    }
    for (const EventQueue::Entry& e : manifest) {
        // Payload p was scheduled as seq p + 1.
        ASSERT_EQ(e.seq, e.event.a + 1);
        ASSERT_TRUE(q.is_pending(EventId{e.seq}));
    }
    EventQueue restored;
    std::uint64_t expect_seq = 1;
    for (const EventQueue::Entry& e : manifest) {
        const EventId id = restored.schedule(e.when, e.event);
        EXPECT_EQ(id.seq, expect_seq);  // contiguous assignment
        ++expect_seq;
    }
    EXPECT_EQ(restored.pending(), manifest.size());
    // Both queues drain in the same (when, original capture order).
    while (!q.empty()) {
        const EventQueue::Entry old_e = q.pop();
        const EventQueue::Entry new_e = restored.pop();
        ASSERT_EQ(old_e.when, new_e.when);
        ASSERT_EQ(old_e.event.a, new_e.event.a);
    }
    EXPECT_TRUE(restored.empty());
}

// Threshold stress: drive the population across grow/shrink boundaries and
// verify pop order stays strict (when, seq) throughout.
TEST(EventQueue, ResizeThresholdsPreserveOrder) {
    Rng rng(5150);
    EventQueue q;
    std::map<std::pair<SimTime, std::uint64_t>, bool> model;
    const std::size_t boot_buckets = q.bucket_count();
    // Grow phase: push far past the boot capacity.
    for (int i = 0; i < 5000; ++i) {
        const SimTime t = (1 + rng.uniform_int(0, 99)) * 500;
        const EventId id = q.schedule(t, Event{});
        model[{t, id.seq}] = true;
    }
    EXPECT_GT(q.bucket_count(), boot_buckets);
    // Shrink phase: drain most of it back down.
    SimTime last = 0;
    std::uint64_t last_seq = 0;
    for (int i = 0; i < 4900; ++i) {
        auto ref = model.begin();
        const SimTime t = q.pop().when;
        ASSERT_EQ(t, ref->first.first);
        ASSERT_TRUE(t > last || (t == last && ref->first.second > last_seq));
        last = t;
        last_seq = ref->first.second;
        model.erase(ref);
    }
    EXPECT_LT(q.bucket_count(), 5000u);
    while (!q.empty()) {
        auto ref = model.begin();
        ASSERT_EQ(q.pop().when, ref->first.first);
        model.erase(ref);
    }
}

}  // namespace
}  // namespace mcs
