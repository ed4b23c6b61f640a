#include "core/event_kind.hpp"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/system_factory.hpp"
#include "scenario/scenario_player.hpp"
#include "support/differential.hpp"
#include "telemetry/json.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

using testsupport::RunArtifacts;
using testsupport::TempFile;

TEST(EventKinds, NamesRoundTrip) {
    std::set<std::string_view> names;
    for (std::uint32_t k = 0; k < kEventKindCount; ++k) {
        const std::string_view name = event_kind_name(k);
        EXPECT_EQ(event_kind_from_name(name), static_cast<EventKind>(k));
        names.insert(name);
    }
    EXPECT_EQ(names.size(), kEventKindCount);
    EXPECT_FALSE(event_kind_from_name("epoch").has_value());
    EXPECT_THROW(event_kind_name(kEventKindCount), RequireError);
}

/// 4x4 chip under moderate load (the snapshot tests' baseline).
SystemConfig small_config() {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks = 6;
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.5, cfg.workload.graphs, capacity);
    return cfg;
}

// Each epoch fires at every multiple of its period from t = 0, so after the
// events at 10 ms have run, its next firing is the first multiple past it.
TEST(EventKinds, EpochsFireAtTheirPeriods) {
    SystemConfig cfg = small_config();
    cfg.thermal_epoch = 300 * kMicrosecond;
    TempFile file("event_kinds_epochs");
    testsupport::run_reference(cfg, 20 * kMillisecond,
                               {{10 * kMillisecond, file.path()}});
    const telemetry::JsonValue doc = load_snapshot_file(file.path());
    std::map<std::string, SimTime> due;
    for (const telemetry::JsonValue& e : doc.at("events").array) {
        if (e.at("kind").string.ends_with("_epoch")) {
            EXPECT_TRUE(due.emplace(e.at("kind").string, e.at("when").u64())
                            .second)
                << "two pending " << e.at("kind").string;
        }
    }
    const std::map<std::string, SimTime> want = {
        {"power_epoch", 10'100 * kMicrosecond},
        {"thermal_epoch", 10'200 * kMicrosecond},
        {"test_epoch", 10'500 * kMicrosecond},
        {"wear_epoch", 11 * kMillisecond},
        {"trace_epoch", 15 * kMillisecond}};
    EXPECT_EQ(due, want);
}

TEST(EventKinds, ZeroEpochPeriodRejected) {
    SystemConfig cfg = small_config();
    cfg.wear_epoch = 0;
    ManycoreSystem sys(cfg);
    EXPECT_THROW(sys.run(10 * kMillisecond), RequireError);
}

/// Feature-loaded 8x8 run in which every event kind is pending at the
/// capture point: fault injection, NoC testing with a link-test target
/// short enough that links are always due, segmented sessions under the
/// periodic scheduler, NoC edges large enough to stay in flight for
/// hundreds of microseconds, and the corpus's combined-stress scenario
/// (last directive at 1.45 s) attached.
SystemConfig loaded_config() {
    SystemConfig cfg;
    cfg.seed = 7;
    cfg.enable_fault_injection = true;
    cfg.enable_noc_testing = true;
    cfg.noc_test.test_period_target = 5 * kMillisecond;
    cfg.segmented_tests = true;
    cfg.scheduler = SchedulerKind::Periodic;
    cfg.periodic_test_period = 100 * kMillisecond;
    cfg.workload.graphs.min_edge_bytes = 256 << 10;
    cfg.workload.graphs.max_edge_bytes = 1 << 20;
    const double capacity = 64.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.6, cfg.workload.graphs, capacity);
    return cfg;
}

constexpr SimDuration kLoadedHorizon = 1600 * kMillisecond;
constexpr SimTime kLoadedCapture = 1300 * kMillisecond;

std::unique_ptr<ScenarioPlayer> corpus_player() {
    return make_scenario_player(std::string(MCS_SOURCE_DIR) +
                                "/examples/scenarios/combined_stress.json");
}

class LoadedSnapshot : public ::testing::Test {
protected:
    void SetUp() override {
        ManycoreSystem sys(cfg_);
        telemetry::Tracer tracer(testsupport::kTraceCapacity);
        sys.set_tracer(&tracer);
        sys.attach_scenario(corpus_player());
        sys.checkpoint_at(kLoadedCapture, file_.path());
        fresh_ = testsupport::capture(sys, tracer, kLoadedHorizon);
        doc_ = load_snapshot_file(file_.path());
    }

    /// Restores `doc` into a fresh system with the scenario attached.
    void restore(const telemetry::JsonValue& doc, ManycoreSystem& sys) const {
        sys.attach_scenario(corpus_player());
        sys.restore(doc);
    }

    SystemConfig cfg_ = loaded_config();
    TempFile file_{"event_kinds_loaded"};
    RunArtifacts fresh_;
    telemetry::JsonValue doc_;
};

// The restored continuation dispatches every kind, so the byte-identity
// check below covers every case of ManycoreSystem::dispatch.
TEST_F(LoadedSnapshot, ManifestHoldsEveryKindAndRestoresIdentically) {
    std::set<std::string> kinds;
    for (const telemetry::JsonValue& e : doc_.at("events").array) {
        kinds.insert(e.at("kind").string);
    }
    for (const std::string_view name : kEventKindNames) {
        EXPECT_TRUE(kinds.count(std::string(name)) == 1)
            << "no pending " << name << " event at the capture point";
    }
    EXPECT_EQ(kinds.size(), kEventKindCount);

    ManycoreSystem sys(cfg_);
    telemetry::Tracer tracer(testsupport::kTraceCapacity);
    sys.set_tracer(&tracer);
    restore(doc_, sys);
    const RunArtifacts restored =
        testsupport::capture(sys, tracer, sys.restored_horizon());
    EXPECT_EQ(restored.report, fresh_.report);
    EXPECT_EQ(restored.trace, fresh_.trace);
    EXPECT_EQ(restored.registry, fresh_.registry);
}

// `a` is an application, core, link or directive id, or must be 0 for an
// epoch; 2^20 lies past every id space of this run but inside 32 bits, so
// each rejection comes from the kind's own guard.
TEST_F(LoadedSnapshot, OutOfRangeArgumentRejected) {
    for (const std::string_view name : kEventKindNames) {
        telemetry::JsonValue doc = doc_;
        bool patched = false;
        for (telemetry::JsonValue& e : doc.object.at("events").array) {
            if (e.at("kind").string == name) {
                e.object.at("a").raw = std::to_string(1 << 20);
                patched = true;
                break;
            }
        }
        ASSERT_TRUE(patched) << "no " << name << " event to patch";
        ManycoreSystem sys(cfg_);
        EXPECT_THROW(restore(doc, sys), RequireError) << name;
    }
}

}  // namespace
}  // namespace mcs
