#include "revng/threshold.hh"

#include <vector>

#include "common/stats.hh"

namespace rho
{

std::optional<double>
robustSeparatingThreshold(TimingProbe &probe, const PhysPool &pool,
                          Rng &rng, unsigned total_pairs, unsigned rounds,
                          unsigned chunks, Ns chunk_gap_ns)
{
    if (pool.empty())
        return std::nullopt;
    chunks = std::max(1u, chunks);
    unsigned per_chunk = std::max(1u, total_pairs / chunks);

    std::vector<double> thresholds;
    thresholds.reserve(chunks);
    for (unsigned c = 0; c < chunks; ++c) {
        if (c > 0)
            probe.system().advance(chunk_gap_ns);
        Histogram hist(20.0, 140.0, 240);
        for (unsigned i = 0; i < per_chunk; ++i) {
            hist.add(probe.measurePair(pool.randomAddr(rng),
                                       pool.randomAddr(rng), rounds));
        }
        thresholds.push_back(hist.separatingThreshold(0.005, 0.004));
    }
    return median(std::move(thresholds));
}

} // namespace rho
