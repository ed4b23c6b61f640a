#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "telemetry/tracer.hpp"

namespace mcs {

/// Discrete-event simulator: a clock plus an event queue of plain-data
/// events. Each popped event goes to one dispatcher, set once by the owner
/// of the event kinds. Single-threaded by design; all model state is
/// advanced from the dispatcher.
class Simulator {
public:
    using Dispatcher = std::function<void(const Event&)>;

    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Installs the handler every executed event is passed to. May be set
    /// only once.
    void set_dispatcher(Dispatcher dispatch);

    SimTime now() const noexcept { return now_; }

    /// Schedules `event` at absolute simulated time `when >= now()`.
    EventId schedule_at(SimTime when, Event event);

    /// Schedules `event` after `delay` from now.
    EventId schedule_in(SimDuration delay, Event event);

    bool cancel(EventId id) { return queue_.cancel(id); }
    bool is_pending(EventId id) const { return queue_.is_pending(id); }

    /// Runs events until the queue is empty or the clock would pass `until`.
    /// The clock is left at min(until, last event time). Returns the number
    /// of events executed.
    std::uint64_t run_until(SimTime until);

    /// run_until without the run_until_begin/run_until_end trace markers.
    /// ManycoreSystem::run advances in segments (checkpoint boundaries) but
    /// must emit exactly one marker pair per logical run, so the markers
    /// live with the caller there.
    std::uint64_t advance_until(SimTime until);

    /// Executes the single next event if there is one and it is at or before
    /// `until`. Returns whether an event ran.
    bool step(SimTime until);

    bool idle() const noexcept { return queue_.empty(); }
    std::size_t pending_events() const noexcept { return queue_.pending(); }
    std::uint64_t events_executed() const noexcept { return executed_; }
    /// Lifetime count of cancelled events (exported to the metrics
    /// registry as `sim.events_cancelled` at finalize).
    std::uint64_t events_cancelled() const noexcept {
        return queue_.cancelled_count();
    }

    // ---- snapshot support -------------------------------------------------
    // Capture lists the pending events; restore schedules them again in the
    // captured order, then fast-forwards the clock.

    /// Every pending event, in ascending seq (= scheduling) order.
    std::vector<EventQueue::Entry> pending_entries() const {
        return queue_.pending_entries();
    }

    /// Fast-forwards a freshly constructed simulator to a checkpointed
    /// clock. Requires that nothing has been scheduled or executed yet.
    void restore_clock(SimTime now, std::uint64_t executed);

    /// Restores the lifetime cancellation count from a checkpoint (kept
    /// separate from restore_clock: older snapshots lack the field).
    void restore_cancelled(std::uint64_t cancelled) {
        queue_.restore_cancelled_count(cancelled);
    }

    /// Attaches an (optional, non-owning) event tracer: its clock is bound
    /// to this simulator's `now()` and run_until() marks its span. Pass
    /// nullptr to detach.
    void set_tracer(telemetry::Tracer* tracer);
    telemetry::Tracer* tracer() const noexcept { return tracer_; }

private:
    EventQueue queue_;
    Dispatcher dispatch_;
    telemetry::Tracer* tracer_ = nullptr;
    SimTime now_ = 0;
    std::uint64_t executed_ = 0;
};

}  // namespace mcs
