#pragma once

// Result of one benchmark invocation: the output checks (attempted and
// failed operations) and the metrics, printed as the one-line JSON object
// run.py relays. Every workload prints the full end-to-end set (tracing
// off) or the full per-layer set (tracing on); a per-layer metric a
// workload does not exercise reads 0.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "telemetry/metrics_registry.hpp"

namespace perfbench {

class Report {
public:
    /// Records one checked operation (a run, a replica, a request); a
    /// failed one is also described on stderr.
    void op(bool ok, std::string_view what = {});
    std::uint64_t attempted() const noexcept { return attempted_; }
    std::uint64_t failed() const noexcept { return failed_; }

    /// Sets a metric; the name must be one of the benchmark's metrics.
    void set(const std::string& name, double value);

    /// Prints {"correct","attempted","failed","metrics"} on one line.
    /// With `trace` the per-layer set, otherwise the end-to-end set (all
    /// of which must have been set).
    void print(std::ostream& out, bool trace) const;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, double> values_;
};

double median(std::vector<double> samples);
/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> samples, double p);

/// 32-bit FNV-1a.
std::uint32_t fnv1a(std::string_view bytes,
                    std::uint32_t hash = 2166136261u);

/// FNV-1a over the run's mcs.run_report.v1 bytes: every RunMetrics field
/// and, when given, every registry counter, gauge and histogram.
std::uint32_t stats_hash(const mcs::RunMetrics& m,
                         const mcs::telemetry::MetricsRegistry* registry);

/// Peak resident set size of this process.
double peak_rss_mb();

}  // namespace perfbench
