#pragma once

// Transparent decorators on the simulator's public seams. Each delegates
// to the same built-in object or function the untraced run uses and adds
// a span and/or a count around the call:
//
//   mapping  SystemConfig::mapper_factory      -> TracedMapper
//   test     SystemConfig::scheduler_factory   -> TracedScheduler
//   power    PowerManager::set_priority_lookup / set_vf_change_listener
//
// A traced run must reproduce the untraced run's statistics exactly; the
// sim workload checks that through the run's stats hash.

#include <cstdint>
#include <memory>

#include "core/system.hpp"
#include "core/test_scheduler.hpp"
#include "mapping/mapper.hpp"
#include "span_recorder.hpp"

namespace perfbench {

/// Calls counted by the decorators of one traced run.
struct SeamCounts {
    std::uint64_t map_calls = 0;
    std::uint64_t map_ok = 0;
    std::uint64_t priority_lookups = 0;
    std::uint64_t vf_changes = 0;
    std::uint64_t test_epochs = 0;
    std::uint64_t candidates_offered = 0;
    std::uint64_t power_queries = 0;
    std::uint64_t sessions_started = 0;
};

/// Span "mapping.map" around every Mapper::map call.
class TracedMapper : public mcs::Mapper {
public:
    TracedMapper(std::unique_ptr<mcs::Mapper> inner, SpanRecorder& rec,
                 SeamCounts& counts)
        : inner_(std::move(inner)), rec_(rec), counts_(counts) {}

    std::optional<mcs::MappingResult> map(const mcs::MapRequest& request,
                                          const mcs::PlatformView& view,
                                          mcs::Rng& rng) override;
    std::string_view name() const override { return inner_->name(); }

private:
    std::unique_ptr<mcs::Mapper> inner_;
    SpanRecorder& rec_;
    SeamCounts& counts_;
};

/// Span "test.epoch" around every scheduling epoch; inside it, a span
/// "test.start" around each session the policy starts and a count of its
/// test-power queries.
class TracedScheduler : public mcs::TestScheduler {
public:
    TracedScheduler(std::unique_ptr<mcs::TestScheduler> inner,
                    SpanRecorder& rec, SeamCounts& counts)
        : inner_(std::move(inner)), rec_(rec), counts_(counts) {}

    void epoch(mcs::SchedulerContext& ctx) override;
    std::string_view name() const override { return inner_->name(); }
    void export_telemetry(
        mcs::telemetry::MetricsRegistry& registry) const override {
        inner_->export_telemetry(registry);
    }
    void save_state(mcs::telemetry::JsonWriter& w) const override {
        inner_->save_state(w);
    }
    void load_state(const mcs::telemetry::JsonValue& doc) override {
        inner_->load_state(doc);
    }

private:
    std::unique_ptr<mcs::TestScheduler> inner_;
    SpanRecorder& rec_;
    SeamCounts& counts_;
};

/// Points the mapper and scheduler factories of `cfg` at decorated copies
/// of the built-ins it selects. Requires the test-aware mapper and the
/// power-aware scheduler (the configurations the sim workloads run).
void install_policy_decorators(mcs::SystemConfig& cfg, SpanRecorder& rec,
                               SeamCounts& counts);

/// Re-hooks the power manager's priority lookup (counted) and V/F change
/// listener (span "power.vf_change") through delegates to the workload
/// engine's own handlers. Call after construction, before run().
void install_power_decorators(mcs::ManycoreSystem& sys, SpanRecorder& rec,
                              SeamCounts& counts);

}  // namespace perfbench
