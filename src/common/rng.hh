/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicitly
 * seeded Rng so that all experiments are exactly reproducible. The
 * splitMix64 hash is also exposed for "stateless" randomness, e.g. the
 * per-row weak-cell profiles that must be recomputable from (seed, row).
 *
 * The hot coins (flush jitter, the obfuscated branch, the TRR and pTRR
 * samplers) cost one load and one integer compare each: each twist
 * tempers its whole block ahead of the draws, and a fixed-probability
 * coin is a precomputed threshold on the raw word (Rng::Coin), exact
 * against the std::bernoulli_distribution it replaces.
 */

#ifndef RHO_COMMON_RNG_HH
#define RHO_COMMON_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace rho
{

/** Mix a 64-bit value into a well-distributed 64-bit hash (splitmix64). */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine hash values (order-sensitive). */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/**
 * Seeded pseudo-random source with the distribution helpers the
 * simulator needs: a block-refilled mt19937_64 whose every draw equals
 * the standard library's.
 *
 * The draws are semantic. The flush-jitter coin and the obfuscated
 * branch feed timing and the branch predictor, the TRR coins decide
 * which ACTs are sampled, so the stream must stay the mt19937_64
 * sequence, consumed exactly as the std distribution objects consume
 * it. The per-access draws (raw(), peek()/consumeIf(), flip(),
 * chance(), uniformInt()) are the replay loop's and the TRR sampler's
 * hot path, so they are written out against the installed libstdc++
 * rather than paying for a distribution object per call:
 *
 *  - the seeding constructor and the twist are the standard's
 *    mersenne_twister_engine recurrences (the output sequence is fixed
 *    by the C++ standard, not an implementation detail). The twist
 *    also tempers the whole new block into `out`, one vectorizable
 *    loop, so a draw is one load;
 *  - generate_canonical<double, 53>: for a 64-bit engine the generic
 *    loop collapses to one draw, double(x) / 2^64, clamped to
 *    nextafter(1, 0) when the conversion rounds up to 1.0;
 *  - bernoulli_distribution: canonical < p. chance(p) evaluates that
 *    per call; a Coin built once from p holds the least word whose
 *    canonical value reaches p, and flip() compares the raw word
 *    against it (same draws, same results, one integer compare);
 *  - uniform_int_distribution<uint64_t>: Lemire's nearly divisionless
 *    downscaling over __uint128_t, exactly the libstdc++ path taken
 *    whenever the engine range is 2^64.
 *
 * The rarer draws (uniformReal, normal, logNormal, poisson) use the
 * std distribution objects directly: Rng is a UniformRandomBitGenerator
 * with the mt19937_64 range. tests/test_rng.cc pins every draw against
 * the std engine and distributions; the golden traces pin the composed
 * behaviour end to end.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** The stream of a mt19937_64 seeded with `seed`. */
    explicit Rng(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Raw 64-bit draw; the mt19937_64 sequence. */
    std::uint64_t
    raw()
    {
        std::uint64_t z = peek();
        ++idx;
        return z;
    }

    result_type operator()() { return raw(); }

    /**
     * The next raw draw, without consuming it. Pair with consumeIf():
     * a caller whose draw is gated on a random condition (the
     * obfuscated branch draws a target only when taken) can compute
     * the would-be value unconditionally and advance the stream by 0
     * or 1 — no host branch on random data. consumeIf(true) after
     * peek() is exactly raw(); consumeIf(false) leaves the stream
     * untouched.
     */
    std::uint64_t
    peek()
    {
        if (idx >= kN)
            twist();
        return out[idx];
    }

    void consumeIf(bool take) { idx += take; }

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uint64_t urange = hi - lo;
        if (urange == ~0ULL)
            return raw(); // whole engine range: raw draw
        std::uint64_t uerange = urange + 1;
        unsigned __int128 product =
            static_cast<unsigned __int128>(raw()) * uerange;
        std::uint64_t low = static_cast<std::uint64_t>(product);
        if (low < uerange) {
            std::uint64_t threshold = (0 - uerange) % uerange;
            while (low < threshold) {
                product = static_cast<unsigned __int128>(raw()) * uerange;
                low = static_cast<std::uint64_t>(product);
            }
        }
        return lo + static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(*this);
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return canonical(raw()) < p;
    }

    /**
     * A Bernoulli trial with a fixed probability, decided ahead of
     * time: flip(Coin(p)) draws what chance(p) draws and returns what
     * it returns. canonical(x) is non-decreasing in the raw word x, so
     * `canonical(x) < p` is `x < below` for the least x whose
     * canonical value reaches p; the constructor finds it by binary
     * search, once. The edges keep chance()'s draws: p <= 0 (and -0.0)
     * is false and p >= 1 true without a draw, and NaN, which fails
     * every compare, draws one word and is false.
     */
    struct Coin
    {
        explicit Coin(double p);

        std::uint64_t below = 0; //!< a drawn x is heads iff x < below
        bool draws = true;       //!< false: p <= 0 or p >= 1
        bool heads = false;      //!< the result when nothing is drawn
    };

    /** chance(p) for the coin's p: one draw and one integer compare. */
    bool
    flip(const Coin &c)
    {
        if (!c.draws) [[unlikely]]
            return c.heads;
        return raw() < c.below;
    }

    /** Normal distribution sample. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(*this);
    }

    /** Log-normal distribution sample (of the underlying normal). */
    double
    logNormal(double logMean, double logSigma)
    {
        return std::lognormal_distribution<double>(logMean, logSigma)(*this);
    }

    /** Poisson distribution sample. */
    std::uint64_t
    poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return std::poisson_distribution<std::uint64_t>(mean)(*this);
    }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[uniformInt(0, v.size() - 1)];
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(0, i - 1);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for sub-components). */
    Rng fork() { return Rng(raw()); }

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

    /** std::generate_canonical<double, 53> of the raw draw x. */
    static double
    canonical(std::uint64_t x)
    {
        double ret = toDouble(x) * 0x1p-64;
        // double(x) rounds up to 2^64 for the top ~2^10 inputs; the
        // standard clamps the quotient below 1.0.
        if (ret >= 1.0) [[unlikely]]
            ret = std::nextafter(1.0, 0.0);
        return ret;
    }

    void twist();

    static constexpr std::size_t kN = 312;

    std::uint64_t state[kN]; //!< untempered; the twist recurrence
    std::uint64_t out[kN];   //!< the tempered block the draws read
    std::size_t idx = kN;
};

} // namespace rho

#endif // RHO_COMMON_RNG_HH
