#include "arch/core.hpp"

#include <string>

#include "util/require.hpp"

namespace mcs {

const char* to_string(CoreState state) {
    switch (state) {
        case CoreState::Idle: return "Idle";
        case CoreState::Busy: return "Busy";
        case CoreState::Testing: return "Testing";
        case CoreState::Dark: return "Dark";
        case CoreState::Faulty: return "Faulty";
    }
    return "?";
}

Core::Core(CoreId id, int x, int y, const std::vector<VfLevel>* vf_table,
           CoreLanes* lanes)
    : id_(id), x_(x), y_(y), vf_table_(vf_table), lanes_(lanes) {
    MCS_REQUIRE(vf_table_ != nullptr && !vf_table_->empty(),
                "core needs a non-empty VF table");
    MCS_REQUIRE(lanes_ != nullptr && id_ < lanes_->size(),
                "core needs a lanes slot");
    // Boot at max V/F.
    lanes_->vf_level[id_] = static_cast<int>(vf_table_->size()) - 1;
}

double Core::freq_hz() const {
    return (*vf_table_)[static_cast<std::size_t>(vf_level())].freq_hz;
}

double Core::voltage_v() const {
    return (*vf_table_)[static_cast<std::size_t>(vf_level())].voltage_v;
}

void Core::checkpoint(SimTime now) {
    MCS_REQUIRE(now >= lanes_->last_checkpoint[id_],
                "core checkpoint going backwards");
    const SimDuration span = now - lanes_->last_checkpoint[id_];
    lanes_->last_checkpoint[id_] = now;
    if (span == 0) {
        return;
    }
    if (state() == CoreState::Busy) {
        const auto cycles = cycles_in(span, freq_hz());
        lanes_->busy_cycles_since_test[id_] += cycles;
        lanes_->total_busy_cycles[id_] += cycles;
        lanes_->total_busy_time[id_] += span;
    } else if (state() == CoreState::Testing) {
        lanes_->total_test_time[id_] += span;
    }
}

void Core::transition(SimTime now, CoreState to) {
    checkpoint(now);
    lanes_->state[id_] = to;
    lanes_->last_state_change[id_] = now;
}

void Core::start_task(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Idle,
                std::string("start_task from state ") + to_string(state()));
    transition(now, CoreState::Busy);
}

void Core::finish_task(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Busy,
                std::string("finish_task from state ") + to_string(state()));
    transition(now, CoreState::Idle);
    ++lanes_->tasks_executed[id_];
}

void Core::start_test(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Idle,
                std::string("start_test from state ") + to_string(state()));
    transition(now, CoreState::Testing);
}

void Core::finish_test(SimTime now, bool completed) {
    MCS_REQUIRE(state() == CoreState::Testing,
                std::string("finish_test from state ") + to_string(state()));
    transition(now, CoreState::Idle);
    if (completed) {
        ++lanes_->tests_completed[id_];
        lanes_->last_test_end[id_] = now;
        lanes_->busy_cycles_since_test[id_] = 0;
    } else {
        ++lanes_->tests_aborted[id_];
    }
}

void Core::mark_faulty(SimTime now) {
    MCS_REQUIRE(state() != CoreState::Faulty, "core is already faulty");
    transition(now, CoreState::Faulty);
    lanes_->reserved[id_] = 0;
}

void Core::power_gate(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Idle,
                std::string("power_gate from state ") + to_string(state()));
    MCS_REQUIRE(!reserved(), "cannot power-gate a reserved core");
    transition(now, CoreState::Dark);
}

void Core::wake(SimTime now) {
    MCS_REQUIRE(state() == CoreState::Dark,
                std::string("wake from state ") + to_string(state()));
    transition(now, CoreState::Idle);
}

void Core::set_vf_level(SimTime now, int level) {
    MCS_REQUIRE(level >= 0 &&
                    level < static_cast<int>(vf_table_->size()),
                "VF level out of range");
    checkpoint(now);  // integrate at the old frequency first
    lanes_->vf_level[id_] = level;
}

void Core::set_reserved(bool reserved) {
    lanes_->reserved[id_] = reserved ? 1 : 0;
}

double Core::busy_fraction(SimTime now) const {
    if (now <= lanes_->birth[id_]) {
        return 0.0;
    }
    // Include the in-flight interval since the last checkpoint.
    SimDuration busy = lanes_->total_busy_time[id_];
    if (state() == CoreState::Busy && now > lanes_->last_checkpoint[id_]) {
        busy += now - lanes_->last_checkpoint[id_];
    }
    return static_cast<double>(busy) /
           static_cast<double>(now - lanes_->birth[id_]);
}

void Core::load_state(const PersistedState& s) {
    lanes_->state[id_] = s.state;
    lanes_->vf_level[id_] = s.vf_level;
    lanes_->reserved[id_] = s.reserved ? 1 : 0;
    lanes_->last_checkpoint[id_] = s.last_checkpoint;
    lanes_->busy_cycles_since_test[id_] = s.busy_cycles_since_test;
    lanes_->total_busy_cycles[id_] = s.total_busy_cycles;
    lanes_->total_busy_time[id_] = s.total_busy_time;
    lanes_->total_test_time[id_] = s.total_test_time;
    lanes_->birth[id_] = s.birth;
    lanes_->last_state_change[id_] = s.last_state_change;
    lanes_->last_test_end[id_] = s.last_test_end;
    lanes_->tests_completed[id_] = s.tests_completed;
    lanes_->tests_aborted[id_] = s.tests_aborted;
    lanes_->tasks_executed[id_] = s.tasks_executed;
}

}  // namespace mcs
