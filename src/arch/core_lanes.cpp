#include "arch/core_lanes.hpp"

#include "arch/core.hpp"
#include "util/require.hpp"

namespace mcs {

void CoreLanes::reset(std::size_t n) {
    MCS_REQUIRE(n > 0, "core lanes need at least one core");
    state.assign(n, CoreState::Idle);
    vf_level.assign(n, 0);
    reserved.assign(n, 0);
    last_checkpoint.assign(n, 0);
    busy_cycles_since_test.assign(n, 0);
    total_busy_cycles.assign(n, 0);
    total_busy_time.assign(n, 0);
    total_test_time.assign(n, 0);
    birth.assign(n, 0);
    last_state_change.assign(n, 0);
    last_test_end.assign(n, 0);
    tests_completed.assign(n, 0);
    tests_aborted.assign(n, 0);
    tasks_executed.assign(n, 0);
    temp_c.assign(n, 0.0);
    damage.assign(n, 0.0);
    criticality.assign(n, 0.0);
    power_w.assign(n, 0.0);
}

}  // namespace mcs
