#include "host_gauge.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "report.hpp"
#include "span_recorder.hpp"
#include "util/require.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLanes = 4096;
constexpr std::size_t kPending = 8192;
/// A sample is the median of its chunks' times, so that a host hiccup of
/// a few ms lands in one chunk and is dropped.
constexpr int kChunkEvents = 20'000;

std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

HostGauge::HostGauge(int chunks) : lanes_(kLanes), chunks_(chunks) {
    MCS_REQUIRE(chunks >= 1, "host gauge needs a chunk per sample");
    heap_.reserve(kPending + 1);
}

void HostGauge::reset() {
    std::fill(lanes_.begin(), lanes_.end(), Lane{});
    heap_.clear();
    const std::greater<Event> later;
    std::uint64_t rng = 12345;
    for (std::size_t i = 0; i < kPending; ++i) {
        heap_.emplace_back(
            static_cast<double>(splitmix(rng) % 1'000'000) * 1e-6,
            static_cast<std::uint32_t>(i % kLanes));
        std::push_heap(heap_.begin(), heap_.end(), later);
    }
    rng_ = rng;
}

double HostGauge::run_chunk() {
    // A min-heap of timed events, each updating one lane's power and
    // temperature and scheduling a follow-up on another lane. The buffers
    // are the gauge's own, allocated once, so the program's heap state
    // does not reach the kernel.
    const std::greater<Event> later;
    std::uint64_t rng = rng_;
    double sum = 0.0;
    for (int e = 0; e < kChunkEvents; ++e) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const auto [when, lane] = heap_.back();
        heap_.pop_back();
        Lane& l = lanes_[lane];
        l.power = 0.5 + 0.5 * l.power + 1e-3 * static_cast<double>(l.state);
        l.temp += 0.01 * (l.power - 0.02 * (l.temp - 45.0));
        l.state = (l.state * 7 + 3) & 15;
        sum += l.temp;
        const std::uint64_t r = splitmix(rng);
        heap_.emplace_back(
            when + static_cast<double>(r % 4096) * 1e-6,
            static_cast<std::uint32_t>((lane + (r >> 20)) % kLanes));
        std::push_heap(heap_.begin(), heap_.end(), later);
    }
    rng_ = rng;
    return sum;
}

void HostGauge::sample() {
    reset();
    std::vector<double> chunk_ms;
    for (int c = 0; c < chunks_; ++c) {
        const std::int64_t t0 = now_ns();
        volatile double sink = run_chunk();
        (void)sink;
        chunk_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    samples_ms_.push_back(median(chunk_ms) * kChunks);
}

double HostGauge::slowdown() const {
    const std::size_t n = samples_ms_.size();
    MCS_REQUIRE(n >= 2, "host gauge needs a sample on each side");
    // The faster side: a host stall of tens of ms, which a seconds-long
    // operation averages out, can fill one whole sample, and only ever
    // makes it slower.
    return std::min(samples_ms_[n - 2], samples_ms_[n - 1]) / kReferenceMs;
}

double HostGauge::median_ms() const { return median(samples_ms_); }

}  // namespace perfbench
