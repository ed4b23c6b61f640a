#include "core/config_bridge.hpp"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "app/graph_io.hpp"
#include "core/report.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

TEST(ConfigBridge, DefaultsMatchSystemConfig) {
    const SystemConfig sys = system_config_from(Config{});
    const SystemConfig ref;
    EXPECT_EQ(sys.width, ref.width);
    EXPECT_EQ(sys.height, ref.height);
    EXPECT_EQ(sys.node, ref.node);
    EXPECT_EQ(sys.scheduler, ref.scheduler);
    EXPECT_EQ(sys.mapper, ref.mapper);
    EXPECT_GT(sys.workload.arrival_rate_hz, 0.0);  // derived from occupancy
}

TEST(ConfigBridge, ParsesEveryEnum) {
    Config c;
    c.set("node", "22nm");
    c.set("scheduler", "periodic");
    c.set("mapper", "random");
    c.set("vf_policy", "min-only");
    c.set("criticality_mode", "hybrid");
    c.set("capping", "bang-bang");
    const SystemConfig sys = system_config_from(c);
    EXPECT_EQ(sys.node, TechNode::nm22);
    EXPECT_EQ(sys.scheduler, SchedulerKind::Periodic);
    EXPECT_EQ(sys.mapper, MapperKind::Random);
    EXPECT_EQ(sys.power_aware.vf_policy, TestVfPolicy::MinOnly);
    EXPECT_EQ(sys.criticality.mode, CriticalityMode::Hybrid);
    EXPECT_EQ(sys.power.mode, CappingMode::BangBang);
}

TEST(ConfigBridge, NumericKeys) {
    Config c;
    c.set("width", "4");
    c.set("height", "6");
    c.set("seed", "123");
    c.set("tdp_scale", "0.8");
    c.set("guard_band", "0.1");
    c.set("fault_rate", "0.5");
    c.set("faults", "true");
    c.set("gate_delay_ms", "5");
    c.set("test_period_ms", "250");
    const SystemConfig sys = system_config_from(c);
    EXPECT_EQ(sys.width, 4);
    EXPECT_EQ(sys.height, 6);
    EXPECT_EQ(sys.seed, 123u);
    EXPECT_DOUBLE_EQ(sys.tdp_scale, 0.8);
    EXPECT_DOUBLE_EQ(sys.power_aware.guard_band_fraction, 0.1);
    EXPECT_TRUE(sys.enable_fault_injection);
    EXPECT_DOUBLE_EQ(sys.faults.base_rate_per_core_s, 0.5);
    EXPECT_EQ(sys.power.gate_delay, 5 * kMillisecond);
    EXPECT_EQ(sys.periodic_test_period, 250 * kMillisecond);
}

TEST(ConfigBridge, ExplicitArrivalRateOverridesOccupancy) {
    Config c;
    c.set("arrival_rate_hz", "77.5");
    c.set("occupancy", "0.9");
    const SystemConfig sys = system_config_from(c);
    EXPECT_DOUBLE_EQ(sys.workload.arrival_rate_hz, 77.5);
}

TEST(ConfigBridge, OccupancyScalesRate) {
    Config lo, hi;
    lo.set("occupancy", "0.3");
    hi.set("occupancy", "0.6");
    EXPECT_NEAR(system_config_from(hi).workload.arrival_rate_hz /
                    system_config_from(lo).workload.arrival_rate_hz,
                2.0, 1e-9);
}

TEST(ConfigBridge, UnknownKeyRejected) {
    Config c;
    c.set("shceduler", "power-aware");  // typo must fail loudly
    EXPECT_THROW(system_config_from(c), RequireError);
}

TEST(ConfigBridge, BadEnumValuesRejected) {
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"node", "7nm"},
             {"scheduler", "magic"},
             {"mapper", "teleport"},
             {"vf_policy", "sometimes"},
             {"criticality_mode", "vibes"},
             {"capping", "duct-tape"}}) {
        Config c;
        c.set(key, value);
        EXPECT_THROW(system_config_from(c), RequireError) << key;
    }
}

TEST(ConfigBridge, DurationsMustBeInRange) {
    // Millisecond keys become unsigned nanoseconds: a negative value used
    // to wrap to ~1.8e19 ns (test_period_ms=-5 meant "almost never test",
    // gate_delay_ms=-1 meant "never gate") instead of failing.
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"test_period_ms", "-5"},
             {"test_period_ms", "0"},
             {"gate_delay_ms", "-1"},
             {"test_period_ms", "9223372036854775807"},
             {"gate_delay_ms", "18446744073709"}}) {
        Config c;
        c.set(key, value);
        try {
            system_config_from(c);
            ADD_FAILURE() << key << "=" << value << " accepted";
        } catch (const RequireError& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    Config zero_gate;
    zero_gate.set("gate_delay_ms", "0");
    EXPECT_EQ(system_config_from(zero_gate).power.gate_delay, 0u);
    Config year;
    year.set("test_period_ms", "31536000000");
    EXPECT_EQ(system_config_from(year).periodic_test_period,
              31'536'000'000 * kMillisecond);
}

/// Expects `key=value` to be rejected with an error naming the key.
void expect_rejected(const std::string& key, const std::string& value) {
    Config c;
    c.set(key, value);
    try {
        system_config_from(c);
        ADD_FAILURE() << key << "=" << value << " accepted";
    } catch (const RequireError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
    }
}

TEST(ConfigBridge, NonFiniteDoublesRejected) {
    // std::stod parses "inf" and "nan"; tdp_scale=inf used to run and
    // report "tdp_w":null, criticality_threshold=nan ran silently.
    for (const char* value : {"inf", "-inf", "nan", "INFINITY"}) {
        expect_rejected("tdp_scale", value);
        expect_rejected("criticality_threshold", value);
    }
    Config finite;
    finite.set("tdp_scale", "1.5");
    EXPECT_DOUBLE_EQ(system_config_from(finite).tdp_scale, 1.5);
}

TEST(ConfigBridge, IntegerKeysRangeCheckedBeforeNarrowing) {
    // max_cycles=-1 used to wrap to 2^64-1 and finish "0/0 apps" with
    // exit 0; an int key past INT_MAX used to truncate silently.
    for (const char* key : {"min_cycles", "max_cycles"}) {
        expect_rejected(key, "-1");
        expect_rejected(key, "0");
    }
    for (const char* key : {"width", "height", "min_tasks", "max_tasks"}) {
        expect_rejected(key, "4294967304");  // 2^32 + 8 truncates to 8
        expect_rejected(key, "-2147483649");
    }
    expect_rejected("side", "4294967300");
    Config c;
    c.set("min_cycles", "1");
    c.set("max_cycles", "9000000000");
    const SystemConfig sys = system_config_from(c);
    EXPECT_EQ(sys.workload.graphs.min_cycles, 1u);
    EXPECT_EQ(sys.workload.graphs.max_cycles, 9'000'000'000u);
}

TEST(ConfigBridge, RetiredEpochWorkersKeyIsIgnored) {
    Config c;
    c.set("epoch_workers", "4");
    EXPECT_NO_THROW(system_config_from(c));
}

TEST(ConfigBridge, GraphFileFeedsLibrary) {
    const std::string path = ::testing::TempDir() + "/bridge_graph.tg";
    {
        std::ofstream out(path);
        out << "tasks 2\ntask 0 1000\ntask 1 1000\nedge 0 1 32\n";
    }
    Config c;
    c.set("graph_file", path);
    const SystemConfig sys = system_config_from(c);
    ASSERT_EQ(sys.workload.graph_library.size(), 1u);
    EXPECT_EQ(sys.workload.graph_library[0].size(), 2u);
    EXPECT_GT(sys.workload.arrival_rate_hz, 0.0);
    std::remove(path.c_str());
}

TEST(ConfigBridge, EndToEndRunFromConfig) {
    Config c;
    c.set("width", "4");
    c.set("height", "4");
    c.set("occupancy", "0.5");
    c.set("min_tasks", "2");
    c.set("max_tasks", "5");
    ManycoreSystem sys(system_config_from(c));
    const RunMetrics m = sys.run(kSecond);
    EXPECT_GT(m.apps_completed, 0u);
}

TEST(ConfigFile, ParsesAndMerges) {
    const std::string path = ::testing::TempDir() + "/mcs_cfg_test.cfg";
    {
        std::ofstream out(path);
        out << "# comment\nwidth = 6\n  height=2  \nseed=9 # inline\n\n";
    }
    Config file = Config::from_file(path);
    EXPECT_EQ(file.get_int("width", 0), 6);
    EXPECT_EQ(file.get_int("height", 0), 2);
    EXPECT_EQ(file.get_int("seed", 0), 9);
    Config overrides;
    overrides.set("seed", "42");
    file.merge(overrides);
    EXPECT_EQ(file.get_int("seed", 0), 42);
    EXPECT_EQ(file.get_int("width", 0), 6);
    std::remove(path.c_str());
    EXPECT_THROW(Config::from_file("/no/such/file.cfg"), RequireError);
}

TEST(Report, FormatMentionsKeyNumbers) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.workload.arrival_rate_hz = 200.0;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    const std::string text = format_metrics(m);
    EXPECT_NE(text.find("TDP"), std::string::npos);
    EXPECT_NE(text.find("tasks/s"), std::string::npos);
    EXPECT_NE(text.find("sessions"), std::string::npos);
}

TEST(Report, CsvHasAllMetrics) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.workload.arrival_rate_hz = 200.0;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    const std::string path = ::testing::TempDir() + "/mcs_report_test.csv";
    write_metrics_csv(m, path);
    std::ifstream in(path);
    std::string line;
    int rows = 0;
    bool has_violation_rate = false;
    while (std::getline(in, line)) {
        ++rows;
        if (line.rfind("tdp_violation_rate,", 0) == 0) {
            has_violation_rate = true;
        }
    }
    EXPECT_GT(rows, 45);
    EXPECT_TRUE(has_violation_rate);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mcs
