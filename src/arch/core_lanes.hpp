#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mcs {

enum class CoreState;

/// Struct-of-arrays storage for all mutable per-core state, owned by Chip.
/// Slot i belongs to the row-major core id i. `Core` is a thin indexed
/// view over these lanes (its checked transitions are the only writers of
/// the state-machine lanes), so the hot per-epoch loops -- thermal step,
/// wear integration, criticality, power fills, energy/trace folds, the
/// test-candidate scan -- iterate flat contiguous arrays instead of chasing
/// per-object fields.
///
/// The epoch lanes at the bottom (temperature, damage, criticality, power)
/// are the same buffers the substrate models read and write: ThermalModel
/// and AgingTracker bind `temp_c` / `damage` as their backing storage, and
/// PlatformEngine fills `criticality` / `power_w` in place, so an epoch's
/// producer and its consumers share one allocation with no scratch copy.
class CoreLanes {
public:
    CoreLanes() = default;
    /// Sizes every lane for `n` cores (boot values: Idle, unreserved,
    /// zeroed accounting; Core's constructor sets the boot V/F level).
    void reset(std::size_t n);

    std::size_t size() const noexcept { return state.size(); }

    // --- state machine + accounting lanes (written via Core only) ---
    std::vector<CoreState> state;
    std::vector<int> vf_level;
    std::vector<std::uint8_t> reserved;
    std::vector<SimTime> last_checkpoint;
    std::vector<std::uint64_t> busy_cycles_since_test;
    std::vector<std::uint64_t> total_busy_cycles;
    std::vector<SimDuration> total_busy_time;
    std::vector<SimDuration> total_test_time;
    std::vector<SimTime> birth;
    std::vector<SimTime> last_state_change;
    std::vector<SimTime> last_test_end;
    std::vector<std::uint64_t> tests_completed;
    std::vector<std::uint64_t> tests_aborted;
    std::vector<std::uint64_t> tasks_executed;

    // --- epoch lanes (substrate-owned values, lanes-owned storage) ---
    std::vector<double> temp_c;       ///< ThermalModel's live node temps
    std::vector<double> damage;       ///< AgingTracker's accumulated wear
    std::vector<double> criticality;  ///< last refresh_criticality() result
    std::vector<double> power_w;      ///< this power epoch's core power
};

}  // namespace mcs
