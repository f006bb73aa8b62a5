#include "memsys/timing_probe.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"

namespace rho
{

namespace
{

/** Gaussian jitter (ns) on every averaged measurement. */
constexpr Ns kNoiseSigmaNs = 1.2;
/** Per-access overhead of the flush+access+fence loop. */
constexpr Ns kLoopOverheadNs = 12.0;

// measurePairRobust(): re-measurement rounds when unstable, the
// sub-sample spread that triggers one, and the backoff curve in
// simulated time.
constexpr unsigned kMaxExtraRounds = 4;
constexpr double kMadGateNs = 3.0;
constexpr Ns kBackoffNs = 20e3;
constexpr double kBackoffFactor = 2.0;
constexpr Ns kMaxBackoffNs = 320e3;

} // namespace

TimingProbe::TimingProbe(MemorySystem &sys_, std::uint64_t seed)
    : sys(sys_), rng(seed)
{
}

double
TimingProbe::measurePair(PhysAddr a, PhysAddr b, unsigned rounds)
{
    if (rounds == 0)
        panic("TimingProbe::measurePair: rounds must be positive");
    latBuf.clear();
    Ns fastest = 1e18;
    for (unsigned r = 0; r < rounds; ++r) {
        for (PhysAddr pa : {a, b}) {
            // clflush + access + fence measurement iteration.
            sys.advance(kLoopOverheadNs);
            Ns lat = sys.dramAccess(pa, sys.now());
            sys.advance(lat);
            latBuf.push_back(lat);
            fastest = std::min(fastest, lat);
        }
    }
    accesses += latBuf.size();
    // Reject REF-stall spikes (see header); summation order is the
    // access order, so a spike-free train averages bit-identically to
    // the plain mean.
    double total = 0.0;
    std::uint64_t n = 0;
    for (Ns lat : latBuf) {
        if (lat <= fastest + refSpikeCutoffNs) {
            total += lat;
            ++n;
        }
    }
    double avg = total / static_cast<double>(n);
    double sample = avg + rng.normal(0.0, kNoiseSigmaNs);
    // Environmental interference (co-running workloads) on top of the
    // intrinsic rdtscp jitter, when a fault injector is attached.
    if (FaultInjector *inj = sys.faultInjector())
        sample += inj->timingPerturbation();
    return sample;
}

double
TimingProbe::measurePairRobust(PhysAddr a, PhysAddr b, unsigned rounds,
                               unsigned base_samples,
                               RetryStats *retry)
{
    unsigned base = std::max(1u, base_samples);
    unsigned sub_rounds = std::max(1u, rounds / base);

    std::vector<double> samples;
    samples.reserve(base + kMaxExtraRounds);
    for (unsigned s = 0; s < base; ++s)
        samples.push_back(measurePair(a, b, sub_rounds));
    if (retry)
        retry->recordAttempt();

    Ns backoff = kBackoffNs;
    for (unsigned extra = 0; extra < kMaxExtraRounds; ++extra) {
        double med = median(samples);
        if (medianAbsDeviation(samples, med) <= kMadGateNs)
            break;
        // Unstable: wait out the interference in simulated time, then
        // take one more independent sub-measurement.
        sys.advance(backoff);
        if (retry)
            retry->recordRetry(backoff);
        RHO_TRACE(sys.tracer(), sys.now(), EventKind::Retry, 0,
                  static_cast<std::uint32_t>(SimPhase::Measure), 0,
                  traceBits(backoff));
        backoff = std::min(backoff * kBackoffFactor, kMaxBackoffNs);
        samples.push_back(measurePair(a, b, sub_rounds));
    }

    // The median of the (possibly grown) sample set rejects burst
    // outliers that a mean would absorb.
    return median(samples);
}

} // namespace rho
