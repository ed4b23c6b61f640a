#pragma once

// In-memory span recorder for the benchmark's traced passes. A span is one
// timed call into a layer's public seam, made from the benchmark's own
// code: name, start, end, the span open on the same thread when it began
// (its parent) and the run id every span of one workload run shares.
// Spans are written out once at the end as a Chrome trace; per-layer self
// times are computed from them.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name = "";  ///< static string: the layer seam
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;      ///< 1-based, unique within the recorder
    std::uint32_t parent = 0;  ///< id of the enclosing span, 0 = none
    std::uint32_t thread = 0;  ///< small per-process thread index
};

/// Thread-safe recorder. A span's parent is the innermost span the same
/// thread has open, so spans nest per thread and never across threads.
class SpanRecorder {
public:
    explicit SpanRecorder(std::uint64_t run_id) : run_id_(run_id) {}
    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /// RAII span: begins at construction, ends at destruction.
    class Scope {
    public:
        Scope(SpanRecorder& rec, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& rec_;
        Span span_;
    };

    /// Adds a finished span (tests, and spans timed by other means).
    void add(const Span& span);
    std::uint32_t next_id();

    std::uint64_t run_id() const noexcept { return run_id_; }
    /// Completed spans in completion order.
    std::vector<Span> spans() const;

    /// Chrome trace-event JSON ("X" events, microseconds), one document.
    void write_chrome_trace(std::ostream& out) const;

private:
    std::uint64_t run_id_;
    mutable std::mutex mutex_;
    std::atomic<std::uint32_t> next_id_{1};
    std::vector<Span> spans_;
};

/// Self time of each span in nanoseconds, indexed like `spans`: its
/// duration minus the part of its interval that its direct children
/// cover (overlapping children are counted once).
std::vector<std::int64_t> self_times_ns(std::span<const Span> spans);

struct LayerTotals {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
};

/// Per-name totals: span count, summed self time and summed duration.
std::map<std::string, LayerTotals> totals_by_name(std::span<const Span> spans);

}  // namespace perfbench
