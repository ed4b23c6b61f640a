#pragma once

// The simulator's event kinds. Below core/ a kind is an opaque integer
// (sim/event_queue.hpp); this header fixes what each value means, what its
// two arguments carry, and its name in the snapshot manifest ("events" of
// mcs.snapshot.v1). ManycoreSystem::dispatch runs every kind.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/event_queue.hpp"
#include "util/require.hpp"

namespace mcs {

/// The five epoch kinds are contiguous and in their canonical scheduling
/// order (power, thermal, test, wear, trace): at a shared timestamp the
/// queue breaks ties by scheduling order, so this order is part of the
/// behavioural contract.
enum class EventKind : std::uint32_t {
    Arrival,              ///< a = application index
    TaskComplete,         ///< a = core
    Edge,                 ///< a = application index, b = destination task
    TestSessionComplete,  ///< a = core (one routine, or the whole suite)
    LinkTestComplete,     ///< a = link
    Scenario,             ///< a = directive index
    PowerEpoch,
    ThermalEpoch,
    TestEpoch,
    WearEpoch,
    TraceEpoch,
};

inline constexpr std::size_t kEventKindCount = 11;
inline constexpr EventKind kFirstEpochKind = EventKind::PowerEpoch;
inline constexpr std::size_t kEpochKindCount = 5;

/// Snapshot manifest names, indexed by kind.
inline constexpr std::array<std::string_view, kEventKindCount>
    kEventKindNames = {"arrival",
                       "task_complete",
                       "edge",
                       "test_session_complete",
                       "link_test_complete",
                       "scenario",
                       "power_epoch",
                       "thermal_epoch",
                       "test_epoch",
                       "wear_epoch",
                       "trace_epoch"};

inline Event make_event(EventKind kind, std::uint64_t a = 0,
                        std::uint64_t b = 0) {
    return Event{static_cast<std::uint32_t>(kind), a, b};
}

inline std::string_view event_kind_name(std::uint32_t kind) {
    MCS_REQUIRE(kind < kEventKindCount, "unknown event kind");
    return kEventKindNames[kind];
}

/// The kind named `name`, or nullopt for an unknown name.
inline std::optional<EventKind> event_kind_from_name(std::string_view name) {
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
        if (kEventKindNames[k] == name) {
            return static_cast<EventKind>(k);
        }
    }
    return std::nullopt;
}

}  // namespace mcs
