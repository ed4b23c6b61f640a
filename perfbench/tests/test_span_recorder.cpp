#include <gtest/gtest.h>

#include <sstream>

#include "core/config_bridge.hpp"
#include "core/system.hpp"
#include "decorators.hpp"
#include "host_gauge.hpp"
#include "report.hpp"
#include "span_recorder.hpp"
#include "telemetry/json.hpp"
#include "util/require.hpp"
#include "util/config.hpp"

namespace perfbench {
namespace {

Span make(std::uint32_t id, std::uint32_t parent, std::int64_t b,
          std::int64_t e) {
    Span s;
    s.name = "x";
    s.id = id;
    s.parent = parent;
    s.start_ns = b;
    s.end_ns = e;
    return s;
}

TEST(SelfTimes, SubtractsTheUnionOfOverlappingChildren) {
    const std::vector<Span> spans = {
        make(1, 0, 0, 100), make(2, 1, 10, 30), make(3, 1, 20, 50),
        make(4, 1, 60, 70)};
    const std::vector<std::int64_t> self = self_times_ns(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 10);
}

TEST(SelfTimes, BackToBackChildrenCoverTheParent) {
    const std::vector<Span> spans = {make(2, 1, 0, 50), make(3, 1, 50, 100),
                                     make(1, 0, 0, 100)};
    const std::vector<std::int64_t> self = self_times_ns(spans);
    EXPECT_EQ(self[2], 0);
    EXPECT_EQ(self[0], 50);
    EXPECT_EQ(self[1], 50);
}

TEST(SelfTimes, OnlyDirectChildrenAreSubtractedAndTheSumIsTheRoot) {
    const std::vector<Span> spans = {make(1, 0, 0, 100), make(2, 1, 10, 90),
                                     make(3, 2, 20, 80)};
    const std::vector<std::int64_t> self = self_times_ns(spans);
    EXPECT_EQ(self[0], 20);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 60);
    EXPECT_EQ(self[0] + self[1] + self[2], 100);
}

TEST(SpanRecorder, ScopesNestPerThreadAndShareTheRunId) {
    SpanRecorder rec(7);
    {
        SpanRecorder::Scope outer(rec, "outer");
        { SpanRecorder::Scope a(rec, "inner"); }
        { SpanRecorder::Scope b(rec, "inner"); }
    }
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), 3u);
    const Span& outer = spans[2];
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_EQ(spans[0].parent, outer.id);
    EXPECT_EQ(spans[1].parent, outer.id);
    EXPECT_LE(outer.start_ns, spans[0].start_ns);
    EXPECT_LE(spans[0].end_ns, spans[1].start_ns);
    EXPECT_GE(outer.end_ns, spans[1].end_ns);

    const auto totals = totals_by_name(spans);
    EXPECT_EQ(totals.at("inner").count, 2u);
    EXPECT_EQ(totals.at("outer").self_ns + totals.at("inner").self_ns,
              outer.end_ns - outer.start_ns);

    std::ostringstream os;
    rec.write_chrome_trace(os);
    const auto doc = mcs::telemetry::parse_json(os.str());
    const auto& events = doc.at("traceEvents").array;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("ph").string, "X");
    EXPECT_EQ(events[0].at("args").at("run").number, 7.0);
}

TEST(Decorators, LeaveTheStatsHashOfATinyRunUnchanged) {
    // A low criticality threshold makes the tiny chip start test sessions
    // within the short horizon.
    mcs::Config keys;
    keys.set("width", "4");
    keys.set("height", "4");
    keys.set("seed", "11");
    keys.set("occupancy", "0.5");
    keys.set("criticality_threshold", "0.05");
    keys.set("faults", "true");
    const mcs::SystemConfig cfg = mcs::system_config_from(keys);
    const mcs::SimDuration horizon = 500 * mcs::kMillisecond;

    mcs::ManycoreSystem plain(cfg);
    const mcs::RunMetrics m0 = plain.run(horizon);

    SpanRecorder rec(1);
    SeamCounts counts;
    mcs::SystemConfig traced_cfg = cfg;
    install_policy_decorators(traced_cfg, rec, counts);
    mcs::ManycoreSystem traced(traced_cfg);
    install_power_decorators(traced, rec, counts);
    const mcs::RunMetrics m1 = traced.run(horizon);

    EXPECT_EQ(stats_hash(m1, &traced.registry()),
              stats_hash(m0, &plain.registry()));
    EXPECT_GT(counts.map_calls, 0u);
    EXPECT_GT(counts.test_epochs, 0u);
    EXPECT_GT(counts.sessions_started, 0u);
    EXPECT_GT(counts.priority_lookups, 0u);
    EXPECT_EQ(rec.spans().size(),
              counts.map_calls + counts.test_epochs +
                  counts.sessions_started + counts.vf_changes);
}

TEST(HostGauge, ScalesByTheFasterOfTheLastTwoSamples) {
    HostGauge gauge;
    gauge.sample();
    EXPECT_THROW((void)gauge.slowdown(), mcs::RequireError);
    gauge.sample();
    const double slowdown = gauge.slowdown();
    EXPECT_GT(slowdown, 0.0);
    // Both samples time the same kernel, so neither is faster than the
    // one the slowdown reads.
    EXPECT_LE(slowdown * HostGauge::kReferenceMs, gauge.median_ms() * 1.0001);
}

}  // namespace
}  // namespace perfbench
