#pragma once

// The benchmark's workload runners. Each reads the inputs run.py generated
// from the seed, measures for `seconds` of host time with tracing off, and
// with `trace` adds a separate traced pass for the per-layer metrics.

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "report.hpp"
#include "span_recorder.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::string input;      ///< generated input (config, spec or stream)
    std::string config;     ///< whatif_serve: base run config
    std::string snapshot;   ///< whatif_serve: warmed snapshot document
    double seconds = 10.0;  ///< host seconds to measure
    bool trace = false;
    std::string trace_out;  ///< Chrome trace path for the traced pass
    std::uint64_t run_id = 0;
};

/// Counts read from a finished system's own accessors (no decorator).
struct AccessorCounts {
    std::uint64_t events = 0;
    std::uint64_t events_cancelled = 0;
    std::uint64_t power_epochs = 0;  ///< power.capping_actuations
    std::uint64_t boost_steps = 0;
    std::uint64_t throttle_steps = 0;
    std::uint64_t cores_gated = 0;
    std::uint64_t mapping_rounds = 0;
    std::uint64_t chip_scans = 0;
    std::uint64_t candidacy_patches = 0;
    std::uint64_t candidacy_rescans = 0;

    static AccessorCounts read(mcs::ManycoreSystem& sys);
    AccessorCounts& operator+=(const AccessorCounts& other);
    void report_into(Report& report) const;
};

std::uint64_t counter_value(const mcs::telemetry::MetricsRegistry& registry,
                            std::string_view name);

/// Output checks on one finished run; returns the first violation, or ""
/// when the run is correct. `power_capped` adds the TDP checks.
std::string check_run(const mcs::RunMetrics& m,
                      const mcs::telemetry::MetricsRegistry* registry,
                      mcs::SimDuration horizon, bool power_capped);

/// saturated_8x8, saturated_16x16, light_8x8: repeated runs of one config.
void run_sim_workload(const Options& opt, Report& report);
/// e1_campaign: repeated sweeps through CampaignRunner.
void run_campaign_workload(const Options& opt, Report& report);
/// whatif_serve: open-loop what-if traffic against an in-process server.
void run_serve_workload(const Options& opt, Report& report);
/// Benchmark prep for whatif_serve: runs the base config with a
/// checkpoint and writes the snapshot document the server will load.
void warm_snapshot(const std::string& config_path,
                   const std::string& snapshot_path);

}  // namespace perfbench
