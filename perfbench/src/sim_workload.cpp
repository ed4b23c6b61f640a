// Single-run workloads: one config, simulated to its horizon again and
// again for the measuring window. The untraced reps give the end-to-end
// metrics; the traced reps run the same config through the seam
// decorators and must reproduce the untraced stats hash exactly.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/config_bridge.hpp"
#include "core/system.hpp"
#include "core/test_engine.hpp"
#include "core/workload_engine.hpp"
#include "decorators.hpp"
#include "host_gauge.hpp"
#include "power/power_manager.hpp"
#include "core/platform_engine.hpp"
#include "sim/simulator.hpp"
#include "util/config.hpp"
#include "util/require.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupBatch = 11;
constexpr int kMinReps = 3;
constexpr int kMaxTracedReps = 3;
/// Largest share of the traced wall that the root span's own open and
/// close may take.
constexpr double kSelfSumTolerance = 0.01;

struct TracedRep {
    explicit TracedRep(std::uint64_t run_id) : rec(run_id) {}

    SpanRecorder rec;
    SeamCounts counts;
    AccessorCounts accessors;
    std::uint64_t tests_completed = 0;
    std::int64_t wall_ns = 0;
};

}  // namespace

std::uint64_t counter_value(const mcs::telemetry::MetricsRegistry& registry,
                            std::string_view name) {
    const mcs::telemetry::Counter* c = registry.find_counter(name);
    return c == nullptr ? 0 : c->value();
}

AccessorCounts AccessorCounts::read(mcs::ManycoreSystem& sys) {
    AccessorCounts a;
    a.events = sys.simulator().events_executed();
    a.events_cancelled = sys.simulator().events_cancelled();
    a.power_epochs = counter_value(sys.registry(), "power.capping_actuations");
    const mcs::PowerManager& pm = sys.platform_engine().power_manager();
    a.boost_steps = pm.boost_steps();
    a.throttle_steps = pm.throttle_steps();
    a.cores_gated = pm.cores_gated();
    a.mapping_rounds = sys.workload_engine().mapping_rounds();
    a.chip_scans = sys.workload_engine().chip_scans();
    a.candidacy_patches = sys.test_engine().candidacy_patches();
    a.candidacy_rescans = sys.test_engine().candidacy_rescans();
    return a;
}

AccessorCounts& AccessorCounts::operator+=(const AccessorCounts& o) {
    events += o.events;
    events_cancelled += o.events_cancelled;
    power_epochs += o.power_epochs;
    boost_steps += o.boost_steps;
    throttle_steps += o.throttle_steps;
    cores_gated += o.cores_gated;
    mapping_rounds += o.mapping_rounds;
    chip_scans += o.chip_scans;
    candidacy_patches += o.candidacy_patches;
    candidacy_rescans += o.candidacy_rescans;
    return *this;
}

void AccessorCounts::report_into(Report& report) const {
    auto set = [&](const char* name, std::uint64_t v) {
        report.set(name, static_cast<double>(v));
    };
    set("sim.events", events);
    set("sim.events_cancelled", events_cancelled);
    set("power.epochs", power_epochs);
    set("power.boost_steps", boost_steps);
    set("power.throttle_steps", throttle_steps);
    set("power.cores_gated", cores_gated);
    set("mapping.rounds", mapping_rounds);
    set("mapping.chip_scans", chip_scans);
    set("test.candidacy_patches", candidacy_patches);
    set("test.candidacy_rescans", candidacy_rescans);
}

std::string check_run(const mcs::RunMetrics& m,
                      const mcs::telemetry::MetricsRegistry* registry,
                      mcs::SimDuration horizon, bool power_capped) {
    if (power_capped &&
        (m.tdp_violation_rate != 0.0 || m.max_power_w > m.tdp_w)) {
        return "power above TDP";
    }
    if (m.apps_completed + m.apps_rejected > m.apps_arrived) {
        return "more apps completed or queued than arrived";
    }
    if (registry != nullptr &&
        m.tests_completed + m.tests_aborted >
            counter_value(*registry, "system.test_sessions_started")) {
        return "more test sessions ended than started";
    }
    if (m.sim_time != horizon) {
        return "simulated time differs from the horizon";
    }
    return {};
}

void run_sim_workload(const Options& opt, Report& report) {
    const mcs::Config cfg = mcs::Config::from_file(opt.input);
    const mcs::SimDuration horizon =
        mcs::from_seconds(cfg.get_double("seconds", 10.0));
    const double horizon_s = mcs::to_seconds(horizon);
    const mcs::SystemConfig scfg = mcs::system_config_from(cfg);

    // --- untraced: end-to-end metrics ---
    std::vector<double> run_s;
    std::vector<double> op_s;
    std::uint32_t hash = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::vector<double> setup_s;
    // The same times scaled to the reference host speed, rep by rep.
    std::vector<double> run_ref_s;
    std::vector<double> op_ref_s;
    HostGauge gauge;
    gauge.sample();
    while (static_cast<int>(run_s.size()) < kMinReps || now_ns() < deadline) {
        // Set-up: construction alone, a batch before every rep, so that
        // the median spans the host's state over the whole window.
        double batch_s[kSetupBatch];
        for (double& s : batch_s) {
            const std::int64_t t0 = now_ns();
            const mcs::ManycoreSystem sys(scfg);
            s = static_cast<double>(now_ns() - t0) * 1e-9;
        }
        const std::int64_t t0 = now_ns();
        auto sys = std::make_unique<mcs::ManycoreSystem>(scfg);
        const std::int64_t t1 = now_ns();
        const mcs::RunMetrics m = sys->run(horizon);
        const std::int64_t t2 = now_ns();
        run_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
        op_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
        gauge.sample();
        const double slowdown = gauge.slowdown();
        run_ref_s.push_back(run_s.back() / slowdown);
        op_ref_s.push_back(op_s.back() / slowdown);
        for (const double s : batch_s) {
            setup_s.push_back(s / slowdown);
        }
        std::fprintf(stderr, "rep %zu: setup %.6f s, run %.6f s\n",
                     run_s.size(), static_cast<double>(t1 - t0) * 1e-9,
                     run_s.back());

        const std::uint32_t h = stats_hash(m, &sys->registry());
        std::string why = check_run(m, &sys->registry(), horizon, true);
        if (run_s.size() == 1) {
            hash = h;
        } else if (h != hash) {
            why = "stats hash differs between reps of one input";
        }
        report.op(why.empty(), why);
    }
    // Timings are medians over the reps of the window, at the reference
    // host speed (host_gauge.hpp).
    const double run_med = median(run_s);
    std::fprintf(stderr, "host gauge median %.3f ms\n", gauge.median_ms());
    report.set("sim_s_per_wall_s", horizon_s / median(run_ref_s));
    report.set("setup_s", median(setup_s));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("campaign_runs_per_s", 1.0 / median(op_ref_s));
    report.set("host.gauge_ms", gauge.median_ms());
    if (!opt.trace) {
        return;
    }

    // --- traced: per-layer metrics ---
    std::vector<std::unique_ptr<TracedRep>> reps;
    const std::int64_t traced_deadline =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 0.5e9);
    while (reps.empty() || (static_cast<int>(reps.size()) < kMaxTracedReps &&
                            now_ns() < traced_deadline)) {
        auto rep = std::make_unique<TracedRep>(opt.run_id);
        mcs::SystemConfig tcfg = scfg;
        install_policy_decorators(tcfg, rep->rec, rep->counts);
        mcs::ManycoreSystem sys(tcfg);
        install_power_decorators(sys, rep->rec, rep->counts);
        mcs::RunMetrics m;
        const std::int64_t t0 = now_ns();
        {
            SpanRecorder::Scope root(rep->rec, "sim.run");
            m = sys.run(horizon);
        }
        rep->wall_ns = now_ns() - t0;
        rep->accessors = AccessorCounts::read(sys);
        rep->tests_completed = m.tests_completed;
        report.op(stats_hash(m, &sys.registry()) == hash,
                  "traced run changed the stats hash");
        reps.push_back(std::move(rep));
    }
    std::sort(reps.begin(), reps.end(), [](const auto& a, const auto& b) {
        return a->wall_ns < b->wall_ns;
    });
    const TracedRep& rep = *reps[reps.size() / 2];
    const std::vector<Span> spans = rep.rec.spans();
    const auto totals = totals_by_name(spans);
    auto self_s = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0
                                  : static_cast<double>(it->second.self_ns) *
                                        1e-9;
    };
    // The reported layer self times plus the residual must add up to the
    // wall time measured outside the root span. They differ only by the
    // root Scope's own open and close (clock reads and one append to the
    // span list, which may grow it), so a gap outside kSelfSumTolerance
    // means a span whose time the report leaves out, or time that no
    // span covers.
    const double residual = self_s("sim.run");
    const double reported_s = self_s("mapping.map") + self_s("test.epoch") +
                              self_s("test.start") +
                              self_s("power.vf_change") + residual;
    const double wall_s = static_cast<double>(rep.wall_ns) * 1e-9;
    const double gap_s = wall_s - reported_s;
    std::fprintf(stderr, "traced wall %.6f s, reported self times %.6f s\n",
                 wall_s, reported_s);
    report.op(gap_s >= 0.0 && gap_s <= kSelfSumTolerance * wall_s,
              "layer self times do not add up to the traced wall");
    const AccessorCounts& a = rep.accessors;
    const SeamCounts& c = rep.counts;
    a.report_into(report);
    report.set("sim.host_ns_per_event",
               run_med * 1e9 / static_cast<double>(a.events));
    report.set("power.priority_lookups", static_cast<double>(c.priority_lookups));
    report.set("power.vf_changes", static_cast<double>(c.vf_changes));
    report.set("power.vf_change_s", self_s("power.vf_change"));
    report.set("mapping.map_calls", static_cast<double>(c.map_calls));
    report.set("mapping.map_ok", static_cast<double>(c.map_ok));
    report.set("mapping.map_ok_ratio",
               c.map_calls == 0 ? 0.0
                                : static_cast<double>(c.map_ok) /
                                      static_cast<double>(c.map_calls));
    report.set("mapping.map_s", self_s("mapping.map"));
    report.set("mapping.map_share", self_s("mapping.map") / wall_s);
    report.set("test.epochs", static_cast<double>(c.test_epochs));
    report.set("test.epoch_s", self_s("test.epoch"));
    report.set("test.candidates_offered",
               static_cast<double>(c.candidates_offered));
    report.set("test.power_queries", static_cast<double>(c.power_queries));
    report.set("test.sessions_started",
               static_cast<double>(c.sessions_started));
    report.set("test.start_s", self_s("test.start"));
    report.set("test.session_complete_ratio",
               c.sessions_started == 0
                   ? 0.0
                   : static_cast<double>(rep.tests_completed) /
                         static_cast<double>(c.sessions_started));
    report.set("core.unattributed_s", residual);
    report.set("core.unattributed_share", residual / wall_s);
    report.set("core.unattributed_us_per_power_epoch",
               a.power_epochs == 0
                   ? 0.0
                   : residual * 1e6 / static_cast<double>(a.power_epochs));
    report.set("trace_overhead", wall_s / run_med);
    report.set("sim.stats_hash", static_cast<double>(hash));
    if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        rep.rec.write_chrome_trace(out);
        MCS_REQUIRE(static_cast<bool>(out),
                    "cannot write trace " + opt.trace_out);
    }
}

}  // namespace perfbench
