/**
 * @file
 * The SBDR (same-bank different-row) timing side channel.
 *
 * Reverse engineering measures the average access latency of address
 * pairs: same-row and different-bank pairs are served by open row
 * buffers (fast), while same-bank different-row pairs force a
 * precharge + activate on every access (slow). The probe models the
 * rdtscp-based measurement loop, including timer noise.
 */

#ifndef RHO_MEMSYS_TIMING_PROBE_HH
#define RHO_MEMSYS_TIMING_PROBE_HH

#include "common/rng.hh"
#include "common/stats.hh"
#include "memsys/memory_system.hh"

namespace rho
{

/** Measurement front end for the row-conflict side channel. */
class TimingProbe
{
  public:
    /**
     * Every averaged measurement carries gaussian jitter modelling
     * rdtscp and system noise, and every access pays the instruction
     * overhead of the flush+access+fence loop (constants in the .cc).
     */
    TimingProbe(MemorySystem &sys, std::uint64_t seed);

    /**
     * Average per-access latency (ns) of alternately accessing a and
     * b, each address accessed `rounds` times, flushed in between.
     * Panics on rounds == 0 (an empty train has no average).
     *
     * Accesses slower than the train's fastest by more than
     * refSpikeCutoffNs are excluded from the average: on platforms
     * with exposed REF blocking a few accesses per train absorb a
     * tRFC-sized refresh stall, and attackers discard those
     * REF-crossing rounds. Both latency modes of the side channel sit
     * within ~30 ns of each other, so the cutoff never fires on
     * spike-free platforms and the mean is exactly the historical one.
     */
    double measurePair(PhysAddr a, PhysAddr b, unsigned rounds = 50);

    /** Spike-rejection window above the fastest access of a train. */
    static constexpr Ns refSpikeCutoffNs = 100.0;

    /**
     * Outlier-resilient pair measurement: splits `rounds` across
     * `base_samples` independent sub-measurements and returns their
     * median. If the sub-measurements disagree (a MAD above 3 ns — a
     * co-running workload burst), waits out the interference with
     * bounded exponential backoff in simulated time and re-measures,
     * up to four times. Retry accounting lands in `retry` when given.
     */
    double measurePairRobust(PhysAddr a, PhysAddr b, unsigned rounds,
                             unsigned base_samples,
                             RetryStats *retry = nullptr);

    /** Total timed accesses so far (cost accounting for Table 5). */
    std::uint64_t accessCount() const { return accesses; }

    MemorySystem &system() { return sys; }

  private:
    MemorySystem &sys;
    Rng rng;
    std::uint64_t accesses = 0;
    std::vector<Ns> latBuf; //!< per-train scratch (avoids realloc)
};

} // namespace rho

#endif // RHO_MEMSYS_TIMING_PROBE_HH
