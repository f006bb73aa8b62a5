/**
 * @file
 * Lightweight statistics helpers: running moments, histograms, and a
 * two-mode (bimodal) threshold finder used by the SBDR side channel.
 */

#ifndef RHO_COMMON_STATS_HH
#define RHO_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace rho
{

/** Online mean / variance / min / max accumulator (Welford). */
class RunningStat
{
  public:
    void add(double x);

    std::uint64_t count() const { return n; }
    double mean() const { return n ? m : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double sum() const { return total; }

    void clear() { *this = RunningStat(); }

  private:
    std::uint64_t n = 0;
    double m = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
};

/** Fixed-width histogram over [lo, hi). Out-of-range samples clamp. */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned num_bins);

    void add(double x);

    unsigned numBins() const { return bins.size(); }
    std::uint64_t binCount(unsigned i) const { return bins[i]; }
    double binCenter(unsigned i) const;
    std::uint64_t totalCount() const { return total; }

    /** Fraction of samples at or above x. */
    double fractionAbove(double x) const;

    /**
     * Find a separating threshold for a bimodal distribution: the
     * midpoint of the widest empty (or near-empty) gap between the two
     * densest regions. Used to split SBDR from non-SBDR latencies.
     *
     * @param min_upper_frac minimum fraction of samples expected in the
     *        upper (slow) mode; the search only considers thresholds
     *        leaving at least this fraction above.
     * @param near_empty_frac bins holding at most this fraction of all
     *        samples still count as part of a gap. Zero (the default)
     *        requires strictly empty bins; a small tolerance keeps the
     *        gap findable when interference sprinkles samples into it.
     */
    double separatingThreshold(double min_upper_frac = 0.005,
                               double near_empty_frac = 0.0) const;

  private:
    double lo, hi, width;
    std::vector<std::uint64_t> bins;
    std::uint64_t total = 0;
};

/** Percentile of a (copied, sorted) sample vector; p in [0, 100]. */
double percentile(std::vector<double> samples, double p);

/** Median of a (copied, sorted) sample vector; 0 when empty. */
double median(std::vector<double> samples);

/** Median absolute deviation around a given center. */
double medianAbsDeviation(const std::vector<double> &samples,
                          double center);

/**
 * MAD-based outlier rejection: keep samples within k * max(MAD,
 * mad_floor) of the median. The floor prevents a degenerate zero-MAD
 * (many identical samples) from rejecting everything else. Returns the
 * inliers in input order; never empties a non-empty input (the median
 * sample always survives).
 */
std::vector<double> madFilter(const std::vector<double> &samples,
                              double k, double mad_floor);

/**
 * Retry / backoff accounting for one resilient phase (robust timing,
 * templating, re-hammering, ...). Aggregates like ParallelStats:
 * surfaced by benches so robustness overhead is visible.
 */
struct RetryStats
{
    std::uint64_t attempts = 0;   //!< total attempts, first tries included
    std::uint64_t retries = 0;    //!< attempts beyond the first
    std::uint64_t backoffs = 0;   //!< backoff sleeps taken
    double backoffNs = 0.0;       //!< total simulated backoff time

    void
    recordAttempt()
    {
        ++attempts;
    }

    void
    recordRetry(double backoff_ns)
    {
        ++attempts;
        ++retries;
        if (backoff_ns > 0.0) {
            ++backoffs;
            backoffNs += backoff_ns;
        }
    }

    RetryStats &
    operator+=(const RetryStats &o)
    {
        attempts += o.attempts;
        retries += o.retries;
        backoffs += o.backoffs;
        backoffNs += o.backoffNs;
        return *this;
    }

    /** One-line "attempts=... retries=..." summary for bench output. */
    std::string summary() const;
};

/**
 * Execution counters of one parallel campaign (sweep / fuzz fan-out):
 * how the work was scheduled and how wall-clock time relates to the
 * simulated time the tasks covered. Filled by the campaign runner
 * (hammer/campaign.hh) through parallelMapOrdered().
 */
struct ParallelStats
{
    unsigned jobs = 1;            //!< worker threads used
    std::uint64_t tasksRun = 0;   //!< tasks executed (not restored)
    std::uint64_t tasksRestored = 0; //!< tasks restored from a checkpoint
    std::uint64_t steals = 0;     //!< tasks migrated between workers
    double wallNs = 0.0;          //!< host wall-clock for the fan-out
    double simNs = 0.0;           //!< simulated ns covered (caller-set)
    RunningStat taskWallMs;       //!< per-task host wall-clock, ms

    /** One-line human-readable summary for bench output. */
    std::string summary() const;
};

} // namespace rho

#endif // RHO_COMMON_STATS_HH
