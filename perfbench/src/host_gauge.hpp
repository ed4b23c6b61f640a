#pragma once

// Host speed gauge. A shared VM's speed drifts by tens of percent over
// minutes, which moves every timing of the program with it. The gauge is
// a fixed CPU kernel of the benchmark's own (an event heap driving
// per-lane floating-point updates, the shape of the simulator's hot loop)
// timed right before and right after each timed operation. The operation
// is scaled by the faster of those two samples against kReferenceMs, the
// gauge's median on a quiet host, so the metrics read as if the host ran
// at that speed. The gauge is compiled here and never calls the
// repository's libraries, so a change to the program cannot move it.

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class HostGauge {
public:
    /// Median gauge time, in ms, on the host the reference figures in
    /// README.md were measured on.
    static constexpr double kReferenceMs = 16.0;

    /// `chunks` kernel chunks of about 3 ms make one sample; the sample is
    /// their median times kChunks, so a sample of any size reads about
    /// kReferenceMs on the reference host.
    static constexpr int kChunks = 5;
    explicit HostGauge(int chunks = kChunks);

    /// Times the kernel once (about kReferenceMs) on the calling thread.
    void sample();
    /// How many times slower than the reference host the host ran between
    /// the last two samples (the faster of them): divide a time taken
    /// between them by it, multiply a rate by it. Needs two samples.
    double slowdown() const;
    /// Median of all samples, ms.
    double median_ms() const;
    bool empty() const { return samples_ms_.empty(); }

private:
    struct Lane {
        double temp = 45.0;
        double power = 1.0;
        std::uint32_t state = 0;
    };
    using Event = std::pair<double, std::uint32_t>;

    void reset();
    double run_chunk();

    std::vector<Lane> lanes_;
    std::vector<Event> heap_;
    int chunks_;
    std::uint64_t rng_ = 0;
    std::vector<double> samples_ms_;
};

}  // namespace perfbench
