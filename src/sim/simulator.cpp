#include "sim/simulator.hpp"

#include <utility>

#include "util/require.hpp"

namespace mcs {

void Simulator::set_dispatcher(Dispatcher dispatch) {
    MCS_REQUIRE(static_cast<bool>(dispatch), "dispatcher must be callable");
    MCS_REQUIRE(!dispatch_, "the dispatcher is set once");
    dispatch_ = std::move(dispatch);
}

EventId Simulator::schedule_at(SimTime when, Event event) {
    MCS_REQUIRE(when >= now_, "cannot schedule into the past");
    return queue_.schedule(when, event);
}

EventId Simulator::schedule_in(SimDuration delay, Event event) {
    return queue_.schedule(now_ + delay, event);
}

void Simulator::set_tracer(telemetry::Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) {
        tracer_->set_clock([this] { return now_; });
    }
}

std::uint64_t Simulator::run_until(SimTime until) {
    if (tracer_ != nullptr) {
        tracer_->record(now_, telemetry::TraceCategory::Sim,
                        telemetry::TracePhase::Instant, "run_until_begin", 0,
                        static_cast<std::int64_t>(until));
    }
    const std::uint64_t ran = advance_until(until);
    if (tracer_ != nullptr) {
        tracer_->record(now_, telemetry::TraceCategory::Sim,
                        telemetry::TracePhase::Instant, "run_until_end", 0,
                        static_cast<std::int64_t>(ran));
    }
    return ran;
}

std::uint64_t Simulator::advance_until(SimTime until) {
    std::uint64_t ran = 0;
    while (step(until)) {
        ++ran;
    }
    if (now_ < until) {
        now_ = until;
    }
    return ran;
}

void Simulator::restore_clock(SimTime now, std::uint64_t executed) {
    MCS_REQUIRE(queue_.empty() && now_ == 0 && executed_ == 0,
                "restore_clock requires a pristine simulator");
    now_ = now;
    executed_ = executed;
}

bool Simulator::step(SimTime until) {
    if (queue_.empty() || queue_.next_time() > until) {
        return false;
    }
    const EventQueue::Entry e = queue_.pop();
    MCS_REQUIRE(e.when >= now_, "event queue produced a past event");
    now_ = e.when;
    ++executed_;
    dispatch_(e.event);
    return true;
}

}  // namespace mcs
