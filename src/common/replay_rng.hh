/**
 * @file
 * Bit-exact batched replica of the simulator's std-library RNG stack,
 * used on the two hot per-access draw paths: the blocked CPU replay
 * engine and the TRR sampler.
 *
 * Rng draws through std::mt19937_64 + std::bernoulli_distribution /
 * std::uniform_int_distribution. Those draws are *semantic*: the
 * flush-jitter coin and the obfuscated-branch direction/target feed
 * timing and the branch predictor, and the TRR coins decide which
 * ACTs are sampled and which rows get a pTRR refresh, so a replica
 * must consume the identical value stream or the simulation stops
 * being bit-identical to its oracle. They are also a dominant cost of
 * the hot loops (a std::bernoulli_distribution draw is ~5x the price
 * of the whole dispatch + queue machinery around it in the replay
 * loop), almost all of it spent in per-call distribution-object and
 * generate_canonical boilerplate rather than in the Mersenne twister
 * itself.
 *
 * ReplayRng removes the boilerplate, not the semantics. It holds a
 * mersenne_twister_engine state with the mt19937_64 parameters and
 * re-implements, against the installed libstdc++:
 *
 *  - the seeding constructor: the standard's initialization recurrence,
 *    so ReplayRng(s) starts where std::mt19937_64(s) (and Rng(s)) does;
 *  - operator(): lazy block twist + tempering, word-for-word the
 *    standard algorithm (the output sequence is fixed by the C++
 *    standard, not an implementation detail);
 *  - generate_canonical<double, 53>: for a 64-bit engine the generic
 *    loop collapses to one draw, double(x) / 2^64, clamped to
 *    nextafter(1, 0) when the conversion rounds up to 1.0;
 *  - bernoulli_distribution: canonical < p (the standard's
 *    `(c - min) < p * (max - min)` with min 0 and max 1);
 *  - uniform_int_distribution<uint64_t>: Lemire's nearly divisionless
 *    downscaling over __uint128_t, exactly the libstdc++ _S_nd path
 *    taken whenever the engine range is 2^64.
 *
 * chance() additionally mirrors Rng::chance's p <= 0 / p >= 1
 * short-circuits, which consume no engine output.
 *
 * The TRR sampler owns its stream outright and seeds it directly. The
 * CPU replay engine shares its stream with the reference engine's Rng:
 * state moves between them through the engine's standard text
 * serialization at run boundaries (313 integers, once per SimCpu::run,
 * amortized over every draw in the run), so reference and blocked runs
 * of the same SimCpu consume one continuous stream. tests/test_rng.cc
 * pins the seeding, raw-stream equality against std::mt19937_64 and
 * the state round trip both ways; the golden traces pin the composed
 * behavior end to end.
 */

#ifndef RHO_COMMON_REPLAY_RNG_HH
#define RHO_COMMON_REPLAY_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace rho
{

class Rng;

/** Batched mt19937_64 + exact libstdc++ distribution replicas. */
class ReplayRng
{
  public:
    /** Unseeded; importFrom() must set the state before any draw. */
    ReplayRng() = default;

    /** The stream of std::mt19937_64(seed), i.e. of Rng(seed). */
    explicit ReplayRng(std::uint64_t seed);

    /** Copy the engine state out of an Rng (its next draw is ours). */
    void importFrom(const Rng &src);

    /** Write the engine state back into an Rng (our next draw is its). */
    void exportTo(Rng &dst) const;

    /** Raw engine output; the std::mt19937_64 sequence. */
    std::uint64_t
    next()
    {
        if (idx >= kN)
            twist();
        std::uint64_t z = state[idx++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

    /** Exact replica of Rng::chance (incl. its draw-free edges). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return canonical() < p;
    }

    /**
     * The next raw draw, without consuming it. Pair with consumeIf():
     * a caller whose draw is gated on a random condition (the
     * obfuscated branch draws a target only when taken) can compute
     * the would-be value unconditionally and advance the stream by 0
     * or 1 — no host branch on random data. consumeIf(true) followed
     * by nothing is exactly next(); consumeIf(false) leaves the
     * stream untouched.
     */
    std::uint64_t
    peek()
    {
        if (idx >= kN)
            twist();
        std::uint64_t z = state[idx];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

    void consumeIf(bool take) { idx += take; }

    /** Exact replica of Rng::uniformInt: uniform in [lo, hi]. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uint64_t urange = hi - lo;
        if (urange == ~0ULL)
            return next(); // whole engine range: raw draw
        std::uint64_t uerange = urange + 1;
        unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * uerange;
        std::uint64_t low = static_cast<std::uint64_t>(product);
        if (low < uerange) {
            std::uint64_t threshold = (0 - uerange) % uerange;
            while (low < threshold) {
                product = static_cast<unsigned __int128>(next()) * uerange;
                low = static_cast<std::uint64_t>(product);
            }
        }
        return lo + static_cast<std::uint64_t>(product >> 64);
    }

  private:
    /**
     * Round-to-nearest uint64 -> double without the compiler's
     * sign-test branch. x86-64 has no unsigned conversion before
     * AVX-512, so `double(x)` compiles to a branch on bit 63 — which
     * is random engine output here and mispredicts half the time,
     * costing more than the rest of the draw combined. Splitting into
     * two exactly-representable halves (hi * 2^32 is exact, lo is
     * exact) sums to mathematical x and rounds exactly once, so the
     * result is bit-identical to the direct conversion.
     */
    static double
    toDouble(std::uint64_t x)
    {
        double hi = static_cast<double>(
            static_cast<std::int64_t>(x >> 32));
        double lo = static_cast<double>(
            static_cast<std::int64_t>(x & 0xffffffffULL));
        return hi * 0x1p32 + lo;
    }

    /** std::generate_canonical<double, 53, mt19937_64>. */
    double
    canonical()
    {
        double ret = toDouble(next()) * 0x1p-64;
        // double(x) rounds up to 2^64 for the top ~2^10 inputs; the
        // standard clamps the quotient below 1.0.
        if (ret >= 1.0) [[unlikely]]
            ret = std::nextafter(1.0, 0.0);
        return ret;
    }

    void twist();

    static constexpr std::size_t kN = 312;

    std::uint64_t state[kN] = {};
    std::size_t idx = kN;
};

} // namespace rho

#endif // RHO_COMMON_REPLAY_RNG_HH
