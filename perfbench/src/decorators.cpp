#include "decorators.hpp"

#include "core/platform_engine.hpp"
#include "core/schedulers.hpp"
#include "core/workload_engine.hpp"
#include "mapping/contiguous_mapper.hpp"
#include "power/power_manager.hpp"
#include "util/require.hpp"

namespace perfbench {

std::optional<mcs::MappingResult> TracedMapper::map(
    const mcs::MapRequest& request, const mcs::PlatformView& view,
    mcs::Rng& rng) {
    SpanRecorder::Scope span(rec_, "mapping.map");
    ++counts_.map_calls;
    std::optional<mcs::MappingResult> result =
        inner_->map(request, view, rng);
    if (result) {
        ++counts_.map_ok;
    }
    return result;
}

void TracedScheduler::epoch(mcs::SchedulerContext& ctx) {
    SpanRecorder::Scope span(rec_, "test.epoch");
    ++counts_.test_epochs;
    counts_.candidates_offered += ctx.candidates.size();
    // Delegates to the engine's own callbacks, which are put back before
    // returning so the context is left as it was handed over.
    auto start_test = std::move(ctx.start_test);
    auto test_power_w = std::move(ctx.test_power_w);
    ctx.start_test = [&](mcs::CoreId core, int vf_level) {
        SpanRecorder::Scope start(rec_, "test.start");
        ++counts_.sessions_started;
        start_test(core, vf_level);
    };
    ctx.test_power_w = [&](mcs::CoreId core, int vf_level) {
        ++counts_.power_queries;
        return test_power_w(core, vf_level);
    };
    inner_->epoch(ctx);
    ctx.start_test = std::move(start_test);
    ctx.test_power_w = std::move(test_power_w);
}

void install_policy_decorators(mcs::SystemConfig& cfg, SpanRecorder& rec,
                               SeamCounts& counts) {
    MCS_REQUIRE(cfg.mapper == mcs::MapperKind::TestAware &&
                    !cfg.mapper_factory,
                "traced runs decorate the built-in test-aware mapper");
    MCS_REQUIRE(cfg.scheduler == mcs::SchedulerKind::PowerAware &&
                    !cfg.scheduler_factory,
                "traced runs decorate the built-in power-aware scheduler");
    cfg.mapper_factory = [&rec, &counts] {
        return std::make_unique<TracedMapper>(
            std::make_unique<mcs::ContiguousMapper>(
                mcs::ContiguousMapper::test_aware()),
            rec, counts);
    };
    cfg.scheduler_factory = [&rec, &counts, params = cfg.power_aware] {
        return std::make_unique<TracedScheduler>(
            std::make_unique<mcs::PowerAwareTestScheduler>(params), rec,
            counts);
    };
}

void install_power_decorators(mcs::ManycoreSystem& sys, SpanRecorder& rec,
                              SeamCounts& counts) {
    mcs::PowerManager& pm = sys.platform_engine().power_manager();
    mcs::WorkloadEngine& workload = sys.workload_engine();
    pm.set_priority_lookup([&workload, &counts](mcs::CoreId core) {
        ++counts.priority_lookups;
        return workload.priority_of(core);
    });
    pm.set_vf_change_listener(
        [&workload, &rec, &counts](mcs::CoreId core, int old_level,
                                   int new_level) {
            SpanRecorder::Scope span(rec, "power.vf_change");
            ++counts.vf_changes;
            workload.on_vf_change(core, old_level, new_level);
        });
}

}  // namespace perfbench
