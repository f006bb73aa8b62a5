#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/table.hh"

namespace rho
{

void
RunningStat::add(double x)
{
    ++n;
    total += x;
    double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
}

double
RunningStat::variance() const
{
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo_, double hi_, unsigned num_bins)
    : lo(lo_), hi(hi_), width((hi_ - lo_) / num_bins),
      bins(num_bins, 0)
{
    if (num_bins == 0 || hi_ <= lo_)
        panic("Histogram: invalid range [%f, %f) x %u", lo_, hi_, num_bins);
}

void
Histogram::add(double x)
{
    long i = static_cast<long>((x - lo) / width);
    i = std::clamp<long>(i, 0, static_cast<long>(bins.size()) - 1);
    ++bins[i];
    ++total;
}

double
Histogram::binCenter(unsigned i) const
{
    return lo + (i + 0.5) * width;
}

double
Histogram::fractionAbove(double x) const
{
    if (total == 0)
        return 0.0;
    std::uint64_t above = 0;
    for (unsigned i = 0; i < bins.size(); ++i) {
        if (binCenter(i) >= x)
            above += bins[i];
    }
    return static_cast<double>(above) / static_cast<double>(total);
}

double
Histogram::separatingThreshold(double min_upper_frac,
                               double near_empty_frac) const
{
    // Scan for the longest run of (near-)empty bins that still leaves
    // at least min_upper_frac of the samples above it. Latency
    // distributions from the row-conflict side channel are strongly
    // bimodal, so this simple rule is robust.
    std::uint64_t needed_above =
        static_cast<std::uint64_t>(min_upper_frac * total);
    std::uint64_t near_limit =
        static_cast<std::uint64_t>(near_empty_frac * total);

    long best_start = -1, best_len = 0;
    long cur_start = -1, cur_len = 0;
    // Suffix counts to check the upper-mode mass quickly.
    std::vector<std::uint64_t> suffix(bins.size() + 1, 0);
    for (long i = bins.size() - 1; i >= 0; --i)
        suffix[i] = suffix[i + 1] + bins[i];

    for (long i = 0; i < static_cast<long>(bins.size()); ++i) {
        if (bins[i] <= near_limit) {
            if (cur_start < 0)
                cur_start = i;
            ++cur_len;
            bool enough_above = suffix[i + 1] >= std::max<std::uint64_t>(
                needed_above, 1);
            bool some_below = suffix[0] - suffix[cur_start] > 0;
            if (cur_len > best_len && enough_above && some_below) {
                best_len = cur_len;
                best_start = cur_start;
            }
        } else {
            cur_start = -1;
            cur_len = 0;
        }
    }

    if (best_start < 0) {
        // No empty gap; fall back to the midpoint between the global
        // mean and the max.
        double weighted = 0;
        for (unsigned i = 0; i < bins.size(); ++i)
            weighted += binCenter(i) * bins[i];
        double mean = total ? weighted / total : (lo + hi) / 2;
        return (mean + hi) / 2;
    }
    return lo + (best_start + best_len / 2.0) * width;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double idx = (p / 100.0) * (samples.size() - 1);
    std::size_t i0 = static_cast<std::size_t>(idx);
    std::size_t i1 = std::min(i0 + 1, samples.size() - 1);
    double frac = idx - i0;
    return samples[i0] * (1 - frac) + samples[i1] * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
medianAbsDeviation(const std::vector<double> &samples, double center)
{
    std::vector<double> dev;
    dev.reserve(samples.size());
    for (double x : samples)
        dev.push_back(std::abs(x - center));
    return median(std::move(dev));
}

std::vector<double>
madFilter(const std::vector<double> &samples, double k, double mad_floor)
{
    if (samples.size() < 3)
        return samples;
    double med = median(samples);
    double mad = std::max(medianAbsDeviation(samples, med), mad_floor);
    std::vector<double> inliers;
    inliers.reserve(samples.size());
    for (double x : samples) {
        if (std::abs(x - med) <= k * mad)
            inliers.push_back(x);
    }
    return inliers;
}

std::string
RetryStats::summary() const
{
    return strFormat(
        "attempts=%llu retries=%llu backoffs=%llu backoff=%.2f ms",
        (unsigned long long)attempts, (unsigned long long)retries,
        (unsigned long long)backoffs, backoffNs / 1e6);
}

std::string
ParallelStats::summary() const
{
    std::string s = strFormat(
        "jobs=%u tasks=%llu wall=%.0f ms sim=%.0f ms (avg task %.1f ms)",
        jobs, (unsigned long long)tasksRun,
        wallNs / 1e6, simNs / 1e6, taskWallMs.mean());
    if (tasksRestored > 0) {
        s += strFormat(" restored=%llu",
                       (unsigned long long)tasksRestored);
    }
    return s;
}

} // namespace rho
