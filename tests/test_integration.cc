/**
 * @file
 * Cross-module integration tests: the full attack pipeline
 * (reverse-engineer -> fuzz -> tune -> sweep) on a fresh machine, and
 * end-to-end reproducibility of the whole stack.
 */

#include <gtest/gtest.h>

#include "hammer/nop_tuner.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "revng/reverse_engineer.hh"

using namespace rho;

TEST(Pipeline, ReverseEngineerThenHammer)
{
    // The attack uses only what it recovered: the reverse-engineered
    // bank functions and row bits drive aggressor placement via a
    // reconstructed mapping, which must behave identically.
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 17);
    PhysPool pool(buddy, 0.70);
    TimingProbe probe(sys, 17);
    RhoReverseEngineer re(probe, pool, 17);
    MappingRecovery rec = re.run();
    ASSERT_TRUE(rec.success) << rec.failureReason;
    ASSERT_TRUE(rec.matches(sys.mapping()));

    HammerSession session(sys, 18);
    PatternFuzzer fuzzer(session, 19);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 2;
    auto res = fuzzer.run(rhoConfig(Arch::RaptorLake, true, 300000),
                          params);
    EXPECT_GT(res.totalFlips, 0u);
    ASSERT_TRUE(res.bestPattern.has_value());
}

TEST(Pipeline, FuzzThenSweepBestPattern)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S4")));
    HammerSession session(sys, 21);
    PatternFuzzer fuzzer(session, 22);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 2;
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 250000);
    auto fz = fuzzer.run(cfg, params);
    ASSERT_TRUE(fz.bestPattern.has_value());

    auto sw = sweep(session, *fz.bestPattern, cfg, 6, 23);
    EXPECT_GT(sw.totalFlips, 0u);
    EXPECT_GT(sw.flipsPerMinute(), 0.0);
}

TEST(Reproducibility, IdenticalSeedsIdenticalOutcomes)
{
    auto once = [](std::uint64_t seed) {
        MemorySystem sys(SystemSpec(Arch::RaptorLake,
                                    DimmProfile::byId("S3")));
        HammerSession session(sys, seed);
        PatternFuzzer fuzzer(session, seed + 1);
        FuzzParams params;
        params.numPatterns = 4;
        params.locationsPerPattern = 2;
        auto r = fuzzer.run(rhoConfig(Arch::RaptorLake, true, 200000),
                            params);
        return std::pair{r.totalFlips, r.bestPatternFlips};
    };
    EXPECT_EQ(once(99), once(99));
    EXPECT_NE(once(99), once(100)); // and seeds matter
}

TEST(Reproducibility, SimulatedTimeIsDeterministic)
{
    auto run = [] {
        MemorySystem sys(SystemSpec(Arch::AlderLake, DimmProfile::byId("S2")));
        HammerSession session(sys, 55);
        Rng rng(56);
        auto pattern = HammerPattern::randomNonUniform(rng);
        auto loc =
            session.tryRandomLocation(pattern, HammerConfig{}).loc.value();
        auto out = session.hammer(pattern, loc,
                                  rhoConfig(Arch::AlderLake, true,
                                            150000));
        return out.perf.timeNs;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Pipeline, TuningPhaseMatchesShippedConfig)
{
    // The shipped tunedNopCount values must sit inside the productive
    // range an actual tuning run discovers (within the plateau).
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    HammerSession session(sys, 61);
    Rng rng(64);
    auto pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 400000);
    auto res =
        tuneNops(session, pattern, cfg, {0, 400, 800, 1600, 6000}, 4);
    // The shipped value must beat both extremes of the sweep.
    std::uint64_t at_shipped = 0, at_zero = 0, at_huge = 0;
    for (const auto &pt : res.curve) {
        if (pt.nops == 800)
            at_shipped = pt.flips;
        if (pt.nops == 0)
            at_zero = pt.flips;
        if (pt.nops == 6000)
            at_huge = pt.flips;
    }
    EXPECT_GT(at_shipped, at_zero);
    EXPECT_GT(at_shipped, at_huge);
}
