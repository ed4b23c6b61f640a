#include "sim/simulator.hpp"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace mcs {
namespace {

/// Dispatcher that records (time, payload a) of every executed event.
struct Recorder {
    explicit Recorder(Simulator& sim) : sim(sim) {
        sim.set_dispatcher([this](const Event& e) {
            seen.push_back({this->sim.now(), e.a});
        });
    }
    Simulator& sim;
    std::vector<std::pair<SimTime, std::uint64_t>> seen;
};

TEST(Simulator, StartsAtZero) {
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInOrderAndAdvancesClock) {
    Simulator sim;
    Recorder rec(sim);
    sim.schedule_at(50, Event{0, 50, 0});
    sim.schedule_at(10, Event{0, 10, 0});
    sim.schedule_in(30, Event{0, 30, 0});
    const auto ran = sim.run_until(100);
    EXPECT_EQ(ran, 3u);
    const std::vector<std::pair<SimTime, std::uint64_t>> want = {
        {10, 10}, {30, 30}, {50, 50}};
    EXPECT_EQ(rec.seen, want);
    EXPECT_EQ(sim.now(), 100u);  // clock parked at horizon
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
    Simulator sim;
    Recorder rec(sim);
    sim.schedule_at(200, Event{});
    sim.run_until(100);
    EXPECT_TRUE(rec.seen.empty());
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run_until(300);
    EXPECT_EQ(rec.seen.size(), 1u);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
    Simulator sim;
    int chain = 0;
    sim.set_dispatcher([&](const Event& e) {
        ++chain;
        if (chain < 5) {
            sim.schedule_in(10, Event{e.kind, e.a + 1, 0});
        }
    });
    sim.schedule_at(0, Event{});
    sim.run_until(1000);
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, EventAtHorizonRuns) {
    Simulator sim;
    Recorder rec(sim);
    sim.schedule_at(100, Event{});
    sim.run_until(100);
    EXPECT_EQ(rec.seen.size(), 1u);
}

TEST(Simulator, SchedulingIntoPastThrows) {
    Simulator sim;
    Recorder rec(sim);
    sim.schedule_at(10, Event{});
    sim.run_until(50);
    EXPECT_THROW(sim.schedule_at(20, Event{}), RequireError);
}

TEST(Simulator, CancelWorks) {
    Simulator sim;
    Recorder rec(sim);
    const EventId id = sim.schedule_at(10, Event{});
    EXPECT_TRUE(sim.is_pending(id));
    EXPECT_TRUE(sim.cancel(id));
    sim.run_until(100);
    EXPECT_TRUE(rec.seen.empty());
}

TEST(Simulator, StepExecutesSingleEvent) {
    Simulator sim;
    Recorder rec(sim);
    sim.schedule_at(5, Event{});
    sim.schedule_at(10, Event{});
    EXPECT_TRUE(sim.step(100));
    EXPECT_EQ(rec.seen.size(), 1u);
    EXPECT_EQ(sim.now(), 5u);
    EXPECT_TRUE(sim.step(100));
    EXPECT_FALSE(sim.step(100));
    EXPECT_EQ(rec.seen.size(), 2u);
}

TEST(Simulator, DispatcherIsSetOnceAndMustBeCallable) {
    Simulator sim;
    EXPECT_THROW(sim.set_dispatcher(Simulator::Dispatcher{}), RequireError);
    sim.set_dispatcher([](const Event&) {});
    EXPECT_THROW(sim.set_dispatcher([](const Event&) {}), RequireError);
}

// The event payload reaches the dispatcher unchanged, and ties at one
// timestamp run in scheduling order.
TEST(Simulator, DispatchesPayloadInFifoOrder) {
    Simulator sim;
    std::vector<Event> got;
    sim.set_dispatcher([&](const Event& e) { got.push_back(e); });
    for (std::uint32_t i = 0; i < 8; ++i) {
        sim.schedule_at(7, Event{i % 3, i, 100 + i});
    }
    sim.run_until(7);
    ASSERT_EQ(got.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(got[i].kind, i % 3);
        EXPECT_EQ(got[i].a, i);
        EXPECT_EQ(got[i].b, 100u + i);
    }
}

}  // namespace
}  // namespace mcs
