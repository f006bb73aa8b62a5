/**
 * @file
 * Burst-robust SBDR threshold discovery shared by all
 * reverse-engineering tools.
 *
 * A single latency histogram cannot separate the (sparse, ~1/#banks)
 * SBDR mode from a gap sprinkled with burst-jittered samples: any
 * per-bin emptiness criterion either rejects the sprinkled gap or
 * swallows the sparse mode. Temporal diversification solves what bin
 * statistics cannot: the pairs are measured in several chunks spread
 * over simulated time, each chunk computes its own separating
 * threshold, and the median of the per-chunk thresholds wins. An
 * interference burst contaminates at most one or two chunks wholesale;
 * the clean majority carries the median. Fault-free, every chunk sees
 * the same bimodal shape and the median equals the single-shot value.
 */

#ifndef RHO_REVNG_THRESHOLD_HH
#define RHO_REVNG_THRESHOLD_HH

#include <optional>

#include "common/rng.hh"
#include "memsys/timing_probe.hh"
#include "os/pagemap.hh"

namespace rho
{

/**
 * Measure `total_pairs` random pool pairs in `chunks` time-separated
 * chunks (`chunk_gap_ns` of simulated time apart — longer than a
 * co-running workload burst) and return the median of the per-chunk
 * separating thresholds; nullopt, without measuring, when the pool is
 * empty.
 */
std::optional<double> robustSeparatingThreshold(TimingProbe &probe, const PhysPool &pool,
                                 Rng &rng, unsigned total_pairs,
                                 unsigned rounds = 8, unsigned chunks = 6,
                                 Ns chunk_gap_ns = 12.5e6);

} // namespace rho

#endif // RHO_REVNG_THRESHOLD_HH
