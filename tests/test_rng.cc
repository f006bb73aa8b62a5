/**
 * @file
 * Determinism and distribution sanity tests for the Rng wrapper, and
 * the ReplayRng replica (common/replay_rng.hh) pinned against the std
 * library objects it replaces: seeding, raw engine stream, bernoulli
 * and uniform-int draws, and the state handoff both ways.
 */

#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/replay_rng.hh"
#include "common/rng.hh"

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

namespace
{

// ---------------------------------------------------------------------
// ReplayRng vs the std library
// ---------------------------------------------------------------------

/** std::mt19937_64 positioned at the same state as `r`. */
std::mt19937_64
stdEngineAt(const Rng &r)
{
    std::mt19937_64 eng;
    std::istringstream in(r.saveEngineState());
    in >> eng;
    EXPECT_TRUE(static_cast<bool>(in));
    return eng;
}

} // namespace

TEST(ReplayRng, RawStreamMatchesStdEngine)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
        Rng src(seed);
        // Start mid-block too: a partially consumed engine state must
        // import at the right read position.
        for (int skip = 0; skip < 3; ++skip)
            src.raw();
        ReplayRng rr;
        rr.importFrom(src);
        std::mt19937_64 eng = stdEngineAt(src);
        // > 2 full twist blocks (312 words each).
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(rr.next(), eng()) << "seed " << seed << " draw " << i;
    }
}

TEST(ReplayRng, ChanceMatchesRngAndStaysInSync)
{
    const double probs[] = {-0.5, 0.0, 1e-18, 0.02, 0.1, 0.25, 0.5,
                            0.6,  0.7, 0.999, 1.0,  1.5};
    Rng ref(77);
    Rng shadow(77);
    ReplayRng rr;
    rr.importFrom(shadow);
    for (int round = 0; round < 400; ++round) {
        for (double p : probs) {
            ASSERT_EQ(rr.chance(p), ref.chance(p))
                << "p " << p << " round " << round;
        }
    }
    // The replica consumed exactly the same number of engine words.
    rr.exportTo(shadow);
    EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
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
    Rng ref(123);
    Rng shadow(123);
    ReplayRng rr;
    rr.importFrom(shadow);
    for (int round = 0; round < 500; ++round) {
        for (const Range &r : ranges) {
            ASSERT_EQ(rr.uniformInt(r.lo, r.hi),
                      ref.uniformInt(r.lo, r.hi))
                << "[" << r.lo << ", " << r.hi << "] round " << round;
        }
    }
    rr.exportTo(shadow);
    EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
}

TEST(ReplayRng, PeekConsumeIfAdvancesByZeroOrOne)
{
    Rng ref(9);
    Rng shadow(9);
    ReplayRng rr;
    rr.importFrom(shadow);
    for (int i = 0; i < 700; ++i) {
        std::uint64_t expect = ref.raw();
        ASSERT_EQ(rr.peek(), expect);
        ASSERT_EQ(rr.peek(), expect); // peek does not advance
        if (i % 3 == 0) {
            rr.consumeIf(false); // still not advanced
            ASSERT_EQ(rr.peek(), expect);
        }
        rr.consumeIf(true);
    }
    rr.exportTo(shadow);
    EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
}

TEST(ReplayRng, StateRoundTripsBothWays)
{
    Rng a(31337);
    for (int i = 0; i < 500; ++i)
        a.raw(); // land mid-block
    std::string before = a.saveEngineState();
    ReplayRng rr;
    rr.importFrom(a);
    Rng b(1);
    rr.exportTo(b);
    EXPECT_EQ(b.saveEngineState(), before);
    // And the streams agree after the round trip.
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(ReplayRng, SeedConstructorMatchesStdEngine)
{
    for (std::uint64_t seed : {0ULL, 1ULL, 0x7272ULL, ~0ULL}) {
        ReplayRng rr(seed);
        std::mt19937_64 eng(seed);
        // > 2 full twist blocks (312 words each).
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(rr.next(), eng()) << "seed " << seed << " draw " << i;
    }
}

TEST(ReplayRng, SeedConstructorChanceMatchesRng)
{
    // The TRR sampler's two coins: the sampling probability and pTRR.
    for (std::uint64_t seed : {0ULL, 1ULL, 0x7272ULL, ~0ULL}) {
        for (double p : {0.25, 4e-3}) {
            ReplayRng rr(seed);
            Rng ref(seed);
            for (int i = 0; i < 2000; ++i) {
                ASSERT_EQ(rr.chance(p), ref.chance(p))
                    << "seed " << seed << " p " << p << " draw " << i;
            }
            Rng shadow(1);
            rr.exportTo(shadow);
            EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
        }
    }
}
