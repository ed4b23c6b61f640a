// e1_campaign: the E1 sweep spec through CampaignRunner, repeated for the
// measuring window. It is the one workload where many simulations share a
// process, so it carries runner load balance and per-replica set-up.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "core/system_factory.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"
#include "util/require.hpp"
#include "host_gauge.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupBatch = 21;
constexpr int kMinCampaigns = 2;

/// Checks every replica of a finished campaign; returns its stats hash
/// (FNV-1a over the replicas' run reports, in grid order).
std::uint32_t check_campaign(const mcs::CampaignResult& result,
                             Report& report) {
    const mcs::SimDuration horizon = mcs::from_seconds(result.spec.seconds);
    std::uint32_t hash = 2166136261u;
    for (const mcs::ReplicaResult& r : result.replicas) {
        std::string why = r.ok ? check_run(r.metrics, nullptr, horizon, false)
                               : "replica failed: " + r.error;
        report.op(why.empty(), why);
        hash = fnv1a(std::to_string(stats_hash(r.metrics, nullptr)), hash);
    }
    return hash;
}

}  // namespace

void run_campaign_workload(const Options& opt, Report& report) {
    // Set-up: spec parse plus runner construction, a batch before every
    // campaign, so that the median spans the host's state over the whole
    // window.
    std::vector<double> setup_s;
    double batch_s[kSetupBatch];
    auto time_setups = [&] {
        for (double& s : batch_s) {
            const std::int64_t t0 = now_ns();
            const mcs::CampaignRunner r(
                mcs::CampaignSpec::from_file(opt.input));
            s = static_cast<double>(now_ns() - t0) * 1e-9;
        }
    };
    mcs::CampaignRunner runner(mcs::CampaignSpec::from_file(opt.input));
    const mcs::CampaignSpec& spec = runner.spec();
    const int jobs = std::max(
        1, std::min(spec.default_jobs,
                    static_cast<int>(std::thread::hardware_concurrency())));
    const double replicas = static_cast<double>(spec.replica_count());

    // --- untraced: end-to-end metrics. The replica fn is the runner's
    // default (run_system) timed from outside. Each worker thread samples
    // its own host gauge between its replicas, since the speed of the
    // CPUs the workers run on is not the speed of the one this thread
    // runs on, and each replica is scaled to the reference host speed by
    // the samples around it (host_gauge.hpp). ---
    std::mutex mutex;
    std::vector<double> replica_s;  // every replica of every campaign
    // The running campaign's scaled replica time, per worker thread.
    std::map<std::thread::id, double> worker_ref_s;
    runner.set_replica_fn([&](const mcs::Config& cfg, double seconds) {
        thread_local HostGauge worker_gauge(1);
        if (worker_gauge.empty()) {
            worker_gauge.sample();
        }
        const std::int64_t t0 = now_ns();
        mcs::RunMetrics m = mcs::run_system(cfg, mcs::from_seconds(seconds));
        const double s = static_cast<double>(now_ns() - t0) * 1e-9;
        worker_gauge.sample();
        const double ref_s = s / worker_gauge.slowdown();
        std::lock_guard<std::mutex> lock(mutex);
        replica_s.push_back(s);
        worker_ref_s[std::this_thread::get_id()] += ref_s;
        return m;
    });
    // Per campaign, at the reference host speed: the busiest worker's
    // scaled replica time stands for the campaign's wall time, since each
    // worker runs its share of the replicas back to back.
    std::vector<double> campaign_s;
    std::vector<double> sim_speed;  // sim s per scaled replica s
    std::vector<double> campaign_raw_s;  // as measured, for trace_overhead
    HostGauge gauge;  // this thread's, for the set-up batches
    std::uint32_t hash = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    while (static_cast<int>(campaign_s.size()) < kMinCampaigns ||
           now_ns() < deadline) {
        gauge.sample();
        time_setups();
        gauge.sample();
        for (const double s : batch_s) {
            setup_s.push_back(s / gauge.slowdown());
        }
        worker_ref_s.clear();
        const std::int64_t t0 = now_ns();
        const mcs::CampaignResult result = runner.run(jobs);
        campaign_raw_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        double busiest_s = 0.0;
        double replica_ref_s = 0.0;
        for (const auto& [thread, s] : worker_ref_s) {
            busiest_s = std::max(busiest_s, s);
            replica_ref_s += s;
        }
        campaign_s.push_back(busiest_s);
        sim_speed.push_back(replicas * spec.seconds / replica_ref_s);
        const std::uint32_t h = check_campaign(result, report);
        if (campaign_s.size() == 1) {
            hash = h;
        }
        report.op(h == hash, "campaign results differ between repeats");
    }
    const double wall = median(campaign_s);
    std::fprintf(stderr, "host gauge median %.3f ms\n", gauge.median_ms());
    report.set("sim_s_per_wall_s", median(sim_speed));
    report.set("setup_s", median(setup_s));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("campaign_runs_per_s", replicas / wall);
    report.set("host.gauge_ms", gauge.median_ms());
    if (!opt.trace) {
        return;
    }

    // --- traced: one campaign through the replica-fn decorator ---
    SpanRecorder rec(opt.run_id);
    AccessorCounts accessors;
    runner.set_replica_fn([&](const mcs::Config& cfg, double seconds) {
        SpanRecorder::Scope replica(rec, "runner.replica");
        std::unique_ptr<mcs::ManycoreSystem> sys;
        {
            SpanRecorder::Scope setup(rec, "runner.replica_setup");
            sys = mcs::make_system(cfg);
        }
        mcs::RunMetrics m;
        {
            SpanRecorder::Scope run(rec, "runner.replica_run");
            m = sys->run(mcs::from_seconds(seconds));
        }
        const AccessorCounts a = AccessorCounts::read(*sys);
        std::lock_guard<std::mutex> lock(mutex);
        accessors += a;
        return m;
    });
    const std::int64_t t0 = now_ns();
    const mcs::CampaignResult result = runner.run(jobs);
    const std::int64_t t1 = now_ns();
    report.op(check_campaign(result, report) == hash,
              "traced campaign changed the results");

    const std::vector<Span> spans = rec.spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    std::vector<double> replica_wall;
    double busy_s = 0.0;
    double setup_sum = 0.0;
    std::map<std::uint32_t, std::int64_t> last_end;  // per worker thread
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        if (std::string_view(s.name) == "runner.replica") {
            replica_wall.push_back(d);
            busy_s += d;
            std::int64_t& end = last_end[s.thread];
            end = std::max(end, s.end_ns);
        } else if (std::string_view(s.name) == "runner.replica_setup") {
            setup_sum += static_cast<double>(self[i]) * 1e-9;
        }
    }
    std::int64_t first_idle = t1;
    for (const auto& [thread, end] : last_end) {
        first_idle = std::min(first_idle, end);
    }
    const double campaign_wall = static_cast<double>(t1 - t0) * 1e-9;
    accessors.report_into(report);
    // Replica host time (set-up included) per event, per campaign.
    double replica_total_s = 0.0;
    for (const double s : replica_s) {
        replica_total_s += s;
    }
    report.set("sim.host_ns_per_event",
               replica_total_s / static_cast<double>(campaign_s.size()) *
                   1e9 / static_cast<double>(accessors.events));
    report.set("runner.replicas", static_cast<double>(replica_wall.size()));
    report.set("runner.replica_setup_s", setup_sum);
    report.set("runner.replica_s_p50", median(replica_wall));
    report.set("runner.replica_s_max",
               *std::max_element(replica_wall.begin(), replica_wall.end()));
    report.set("runner.parallel_efficiency",
               busy_s / (static_cast<double>(jobs) * campaign_wall));
    report.set("runner.tail_idle_s",
               static_cast<double>(t1 - first_idle) * 1e-9);
    report.set("trace_overhead", campaign_wall / median(campaign_raw_s));
    report.set("sim.stats_hash", static_cast<double>(hash));
    if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        rec.write_chrome_trace(out);
        MCS_REQUIRE(static_cast<bool>(out),
                    "cannot write trace " + opt.trace_out);
    }
}

}  // namespace perfbench
