#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "util/require.hpp"

namespace perfbench {

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (names and units).
constexpr MetricDef kEndToEnd[] = {
    {"sim_s_per_wall_s", "s/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"campaign_runs_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"power.epochs", "count"},
    {"power.priority_lookups", "count"},
    {"power.vf_changes", "count"},
    {"power.vf_change_s", "s"},
    {"power.boost_steps", "count"},
    {"power.throttle_steps", "count"},
    {"power.cores_gated", "count"},
    {"mapping.map_calls", "count"},
    {"mapping.map_ok", "count"},
    {"mapping.map_ok_ratio", "ratio"},
    {"mapping.map_s", "s"},
    {"mapping.map_share", "ratio"},
    {"mapping.rounds", "count"},
    {"mapping.chip_scans", "count"},
    {"test.epochs", "count"},
    {"test.epoch_s", "s"},
    {"test.candidates_offered", "count"},
    {"test.power_queries", "count"},
    {"test.sessions_started", "count"},
    {"test.start_s", "s"},
    {"test.candidacy_patches", "count"},
    {"test.candidacy_rescans", "count"},
    {"test.session_complete_ratio", "ratio"},
    {"core.unattributed_s", "s"},
    {"core.unattributed_share", "ratio"},
    {"core.unattributed_us_per_power_epoch", "us"},
    {"runner.replicas", "count"},
    {"runner.replica_setup_s", "s"},
    {"runner.replica_s_p50", "s"},
    {"runner.replica_s_max", "s"},
    {"runner.parallel_efficiency", "ratio"},
    {"runner.tail_idle_s", "s"},
    {"serve.parse_us", "us"},
    {"serve.key_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.compute_ms", "ms"},
    {"serve.handle_hit_us", "us"},
    {"serve.handle_miss_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.shed", "count"},
    {"load.late_p99_ms", "ms"},
    {"trace_overhead", "ratio"},
    {"sim.stats_hash", "fnv1a32"},
    {"host.gauge_ms", "ms"},
    {"whatif_p50_ms", "ms"},
    {"whatif_p99_ms", "ms"},
    {"whatif_max_rps", "1/s"},
};

bool known(const std::string& name) {
    return std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd),
                       [&](const MetricDef& d) { return name == d.name; }) ||
           std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                       [&](const MetricDef& d) { return name == d.name; });
}

}  // namespace

void Report::op(bool ok, std::string_view what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failed_ <= 20) {
            std::fprintf(stderr, "check failed: %.*s\n",
                         static_cast<int>(what.size()), what.data());
        }
    }
}

void Report::set(const std::string& name, double value) {
    MCS_REQUIRE(known(name), "unknown benchmark metric " + name);
    values_[name] = value;
}

void Report::print(std::ostream& out, bool trace) const {
    std::ostringstream os;
    mcs::telemetry::JsonWriter w(os);
    w.begin_object();
    w.field("correct", attempted_ > 0 && failed_ == 0);
    w.field("attempted", attempted_);
    w.field("failed", failed_);
    w.key("metrics");
    w.begin_object();
    auto emit = [&](const MetricDef& d, double value) {
        w.key(d.name);
        w.begin_object();
        w.field("value", value);
        w.field("unit", d.unit);
        w.end_object();
    };
    if (trace) {
        for (const MetricDef& d : kPerLayer) {
            const auto it = values_.find(d.name);
            emit(d, it == values_.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricDef& d : kEndToEnd) {
            const auto it = values_.find(d.name);
            MCS_REQUIRE(it != values_.end(),
                        std::string("end-to-end metric not measured: ") +
                            d.name);
            emit(d, it->second);
        }
    }
    w.end_object();
    w.end_object();
    out << os.str() << '\n';
}

double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5);
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::uint32_t fnv1a(std::string_view bytes, std::uint32_t hash) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 16777619u;
    }
    return hash;
}

std::uint32_t stats_hash(const mcs::RunMetrics& m,
                         const mcs::telemetry::MetricsRegistry* registry) {
    std::ostringstream os;
    mcs::telemetry::write_run_report(m, registry, os);
    return fnv1a(os.str());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
