/**
 * @file
 * Determinism and distribution sanity tests for Rng, and Rng pinned
 * draw by draw against the std library objects it stands for: a
 * std::mt19937_64 seeded the same way, the bernoulli, uniform-int,
 * uniform-real, normal, log-normal and Poisson distributions on it,
 * fork(), and the precomputed Bernoulli thresholds (Rng::Coin).
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cpu/arch_params.hh"
#include "mapping/mapping_presets.hh"

using namespace rho;

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.raw(), b.raw());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.raw() == b.raw();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(7);
    for (int i = 0; i < 32; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, PoissonMean)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 5000; ++i)
        sum += r.poisson(2.5);
    EXPECT_NEAR(sum / 5000.0, 2.5, 0.15);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(17);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependence)
{
    Rng a(5);
    Rng child = a.fork();
    // Child stream differs from parent's continued stream.
    EXPECT_NE(child.raw(), a.raw());
}

TEST(SplitMix, StableHashes)
{
    // splitMix64 is used for weak-cell fields; its values must be
    // stable across runs and platforms.
    EXPECT_EQ(splitMix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

// ---------------------------------------------------------------------
// Rng vs the std library. The suite is named for the batched replay
// draws (raw, peek/consumeIf, chance, uniformInt) it pins.
// ---------------------------------------------------------------------

namespace
{

/** Advance both engines by `n` raw draws (land mid-block). */
void
skipBoth(Rng &r, std::mt19937_64 &eng, int n)
{
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(r.raw(), eng());
}

/** The next raw draws of both engines agree: the streams are in step. */
void
expectInStep(Rng &r, std::mt19937_64 &eng)
{
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(r.raw(), eng()) << "in-step draw " << i;
}

/** Rng::chance as the std objects draw it, short-circuits included. */
bool
stdChance(std::mt19937_64 &eng, double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return std::bernoulli_distribution(p)(eng);
}

} // namespace

TEST(ReplayRng, RawStreamMatchesStdEngine)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
        // Start mid-block too: skip the same draws on both engines.
        for (int skip : {0, 3, 311, 312, 500}) {
            Rng r(seed);
            std::mt19937_64 eng(seed);
            skipBoth(r, eng, skip);
            // > 2 full twist blocks (312 words each).
            for (int i = 0; i < 1000; ++i) {
                ASSERT_EQ(r.raw(), eng())
                    << "seed " << seed << " skip " << skip << " draw " << i;
            }
        }
    }
}

TEST(ReplayRng, ChanceMatchesRngAndStaysInSync)
{
    const double probs[] = {-0.5, 0.0, 1e-18, 0.02, 0.1, 0.25, 0.5,
                            0.6,  0.7, 0.999, 1.0,  1.5};
    Rng r(77);
    std::mt19937_64 eng(77);
    skipBoth(r, eng, 5);
    for (int round = 0; round < 400; ++round) {
        for (double p : probs) {
            ASSERT_EQ(r.chance(p), stdChance(eng, p))
                << "p " << p << " round " << round;
        }
    }
    // Rng consumed exactly the same number of engine words.
    expectInStep(r, eng);
}

TEST(ReplayRng, UniformIntMatchesRngAndStaysInSync)
{
    struct Range
    {
        std::uint64_t lo, hi;
    };
    // Power-of-two span (no rejection), degenerate, offset, a span
    // with a nonzero Lemire threshold (rejection possible), and the
    // full 2^64 span (raw-draw path).
    const Range ranges[] = {{0, 7},
                            {3, 3},
                            {1, 8},
                            {0, 0xfffffffffffffffdULL},
                            {5, ~0ULL - 1},
                            {0, ~0ULL}};
    Rng r(123);
    std::mt19937_64 eng(123);
    skipBoth(r, eng, 7);
    for (int round = 0; round < 500; ++round) {
        for (const Range &rg : ranges) {
            ASSERT_EQ(r.uniformInt(rg.lo, rg.hi),
                      std::uniform_int_distribution<std::uint64_t>(
                          rg.lo, rg.hi)(eng))
                << "[" << rg.lo << ", " << rg.hi << "] round " << round;
        }
    }
    expectInStep(r, eng);
}

TEST(ReplayRng, PeekConsumeIfAdvancesByZeroOrOne)
{
    Rng r(9);
    std::mt19937_64 eng(9);
    for (int i = 0; i < 700; ++i) {
        std::uint64_t expect = eng();
        ASSERT_EQ(r.peek(), expect);
        ASSERT_EQ(r.peek(), expect); // peek does not advance
        if (i % 3 == 0) {
            r.consumeIf(false); // still not advanced
            ASSERT_EQ(r.peek(), expect);
        }
        r.consumeIf(true);
    }
    expectInStep(r, eng);
}

TEST(ReplayRng, SeedConstructorMatchesStdEngine)
{
    for (std::uint64_t seed : {0ULL, 1ULL, 0x7272ULL, ~0ULL}) {
        Rng r(seed);
        std::mt19937_64 eng(seed);
        // > 2 full twist blocks (312 words each).
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(r(), eng()) << "seed " << seed << " draw " << i;
    }
}

TEST(ReplayRng, SeedConstructorChanceMatchesRng)
{
    // The TRR sampler's two coins: the sampling probability and pTRR.
    for (std::uint64_t seed : {0ULL, 1ULL, 0x7272ULL, ~0ULL}) {
        for (double p : {0.25, 4e-3}) {
            Rng r(seed);
            std::mt19937_64 eng(seed);
            for (int i = 0; i < 2000; ++i) {
                ASSERT_EQ(r.chance(p), stdChance(eng, p))
                    << "seed " << seed << " p " << p << " draw " << i;
            }
            expectInStep(r, eng);
        }
    }
}

TEST(Rng, StdDistributionDrawsMatchStdEngine)
{
    // The draws Rng leaves to the std distribution objects, interleaved
    // with the batched ones, so every draw starts at a different
    // engine position (mid-block and across twists) and a miscounted
    // word anywhere shows up in every later draw.
    for (std::uint64_t seed : {0ULL, 1ULL, 0x5eedULL, 0xdeadbeefULL, ~0ULL}) {
        Rng r(seed);
        std::mt19937_64 eng(seed);
        for (int i = 0; i < 3000; ++i) {
            std::string at = "seed " + std::to_string(seed) + " round "
                + std::to_string(i);
            double lo = -1.0 - i % 7, hi = 2.0 + i % 5;
            ASSERT_EQ(r.uniformReal(lo, hi),
                      std::uniform_real_distribution<double>(lo, hi)(eng))
                << at;
            double mean = 0.5 * (i % 9), sd = 0.1 + 0.3 * (i % 4);
            ASSERT_EQ(r.normal(mean, sd),
                      std::normal_distribution<double>(mean, sd)(eng))
                << at;
            ASSERT_EQ(r.logNormal(mean, sd),
                      std::lognormal_distribution<double>(mean, sd)(eng))
                << at;
            // Small means (inversion) and large ones (rejection).
            double pm = i % 3 == 0 ? 0.7 : i % 3 == 1 ? 4.5 : 35.0;
            ASSERT_EQ(r.poisson(pm),
                      std::poisson_distribution<std::uint64_t>(pm)(eng))
                << at;
            ASSERT_EQ(r.poisson(0.0), 0u) << at; // draws nothing
            ASSERT_EQ(r.chance(0.3), stdChance(eng, 0.3)) << at;
            ASSERT_EQ(r.uniformInt(2, 11 + i % 13),
                      std::uniform_int_distribution<std::uint64_t>(
                          2, 11 + i % 13)(eng))
                << at;
            if (i % 100 == 0) {
                // A fork is seeded with the parent's next raw draw.
                Rng child = r.fork();
                std::mt19937_64 std_child(eng());
                for (int k = 0; k < 400; ++k)
                    ASSERT_EQ(child.raw(), std_child()) << at << " fork";
            }
        }
        expectInStep(r, eng);
    }
}

// ---------------------------------------------------------------------
// Rng::Coin: the precomputed threshold equals chance(p) word for word.
// ---------------------------------------------------------------------

namespace
{

/** A UniformRandomBitGenerator that returns one fixed word. */
struct FixedWord
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }
    result_type operator()() { return word; }
    result_type word;
};

/** std::bernoulli_distribution(p) on the single draw x. */
bool
stdBernoulliAt(double p, std::uint64_t x)
{
    FixedWord w{x};
    return std::bernoulli_distribution(p)(w);
}

} // namespace

/**
 * A coin's threshold is exactly the std boundary: the word below it is
 * heads and the word at it is tails, both for bernoulli_distribution
 * and for the generate_canonical value it compares. Monotonicity then
 * fixes every other word.
 */
TEST(RngCoin, ThresholdIsTheStdBoundary)
{
    std::vector<double> probs = {0.5,    0.25,    4e-3,      0.3,
                                 1e-18,  1e-300,  4.9e-324,
                                 std::nextafter(1.0, 0.0)};
    for (Arch a : allArchs) {
        double p = ArchParams::forArch(a).flushJitterProb;
        if (p > 0.0)
            probs.push_back(p);
    }
    for (double p : probs) {
        Rng::Coin c(p);
        ASSERT_TRUE(c.draws) << "p " << p;
        ASSERT_GT(c.below, 0u) << "p " << p;
        FixedWord at{c.below}, before{c.below - 1};
        EXPECT_GE((std::generate_canonical<double, 53>(at)), p) << "p " << p;
        EXPECT_LT((std::generate_canonical<double, 53>(before)), p)
            << "p " << p;
        EXPECT_TRUE(stdBernoulliAt(p, c.below - 1)) << "p " << p;
        EXPECT_FALSE(stdBernoulliAt(p, c.below)) << "p " << p;
    }
}

/**
 * The edges draw what chance() draws: nothing for p <= 0 (-0.0 too)
 * and p >= 1, one word for NaN, which is tails.
 */
TEST(RngCoin, EdgesConsumeWhatChanceConsumes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Edge
    {
        double p;
        bool heads;
        int draws;
    };
    const Edge edges[] = {{0.0, false, 0}, {-0.0, false, 0},
                          {-1.0, false, 0}, {1.0, true, 0},
                          {1.5, true, 0},   {nan, false, 1}};
    for (const Edge &e : edges) {
        Rng coin(31), chance(31);
        std::mt19937_64 eng(31);
        skipBoth(coin, eng, 311); // the NaN coin's draws twist
        for (int i = 0; i < 311; ++i)
            chance.raw();
        Rng::Coin c(e.p);
        for (int round = 0; round < 5; ++round) {
            ASSERT_EQ(coin.flip(c), e.heads) << "p " << e.p;
            ASSERT_EQ(chance.chance(e.p), e.heads) << "p " << e.p;
            for (int k = 0; k < e.draws; ++k)
                eng();
        }
        std::uint64_t next = eng();
        EXPECT_EQ(coin.raw(), next) << "p " << e.p;
        EXPECT_EQ(chance.raw(), next) << "p " << e.p;
    }
}

/**
 * Coins interleaved with chance(), uniformInt() and peek()/consumeIf()
 * across more than three twist blocks give the std draws and leave
 * the stream in step.
 */
TEST(RngCoin, InterleavedStreamStaysInStepWithStdEngine)
{
    const double probs[] = {0.5, 0.25, 4e-3, 0.3, 0.0, 1.0, 0.999};
    std::vector<Rng::Coin> coins;
    for (double p : probs)
        coins.emplace_back(p);
    for (std::uint64_t seed : {0ULL, 0x7272ULL, 0xdeadbeefULL}) {
        Rng r(seed);
        std::mt19937_64 eng(seed);
        // ~3 words a round: ~1900 words, six twist blocks.
        for (int i = 0; i < 600; ++i) {
            std::size_t k = i % coins.size();
            ASSERT_EQ(r.flip(coins[k]), stdChance(eng, probs[k]))
                << "seed " << seed << " round " << i;
            ASSERT_EQ(r.chance(probs[(k + 3) % coins.size()]),
                      stdChance(eng, probs[(k + 3) % coins.size()]))
                << "seed " << seed << " round " << i;
            ASSERT_EQ(r.uniformInt(0, 7),
                      std::uniform_int_distribution<std::uint64_t>(0, 7)(eng))
                << "seed " << seed << " round " << i;
            // The obfuscated branch's gated target draw.
            bool take = i % 3 != 0;
            std::uint64_t peeked = r.peek();
            r.consumeIf(take);
            if (take) {
                ASSERT_EQ(peeked, eng()) << "seed " << seed << " round " << i;
            }
        }
        expectInStep(r, eng);
    }
}
