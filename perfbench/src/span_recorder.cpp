#include "span_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "telemetry/json.hpp"

namespace perfbench {

namespace {

std::uint32_t this_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

/// Ids of the spans this thread has open, innermost last.
std::vector<std::uint32_t>& open_stack() {
    thread_local std::vector<std::uint32_t> stack;
    return stack;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
    std::vector<std::uint32_t>& stack = open_stack();
    span_.name = name;
    span_.id = rec_.next_id();
    span_.parent = stack.empty() ? 0 : stack.back();
    span_.thread = this_thread_index();
    stack.push_back(span_.id);
    span_.start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
    span_.end_ns = now_ns();
    open_stack().pop_back();
    rec_.add(span_);
}

std::uint32_t SpanRecorder::next_id() { return next_id_.fetch_add(1); }

void SpanRecorder::add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    if (!all.empty()) {
        origin = std::min_element(all.begin(), all.end(),
                                  [](const Span& a, const Span& b) {
                                      return a.start_ns < b.start_ns;
                                  })
                     ->start_ns;
    }
    mcs::telemetry::JsonWriter w(out);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (const Span& s : all) {
        w.begin_object();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("ts", static_cast<double>(s.start_ns - origin) / 1e3);
        w.field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        w.field("pid", run_id_);
        w.field("tid", static_cast<std::uint64_t>(s.thread));
        w.key("args");
        w.begin_object();
        w.field("id", static_cast<std::uint64_t>(s.id));
        w.field("parent", static_cast<std::uint64_t>(s.parent));
        w.field("run", run_id_);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.field("displayTimeUnit", "ms");
    w.end_object();
    out << '\n';
}

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
    std::unordered_map<std::uint32_t, std::size_t> index_of;
    index_of.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        index_of.emplace(spans[i].id, i);
    }
    // Child intervals grouped under their parent's index.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
        const auto it = index_of.find(s.parent);
        if (s.parent != 0 && it != index_of.end()) {
            children[it->second].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;  // end of the covered prefix
        for (const auto& [b, e] : kids) {
            const std::int64_t lo = std::max(b, reach);
            const std::int64_t hi = std::min(e, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::map<std::string, LayerTotals> totals_by_name(
    std::span<const Span> spans) {
    const std::vector<std::int64_t> self = self_times_ns(spans);
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTotals& t = out[spans[i].name];
        ++t.count;
        t.self_ns += self[i];
        t.total_ns += spans[i].end_ns - spans[i].start_ns;
    }
    return out;
}

}  // namespace perfbench
