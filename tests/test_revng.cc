/**
 * @file
 * Tests for mapping reverse engineering: rhoHammer's Algorithm 1 must
 * recover every Table 4 preset and randomized mappings; the prior-art
 * baselines must fail exactly where the paper reports.
 */

#include <gtest/gtest.h>

#include "common/gf2.hh"
#include "fault/fault_injector.hh"
#include "revng/baseline_dare.hh"
#include "revng/baseline_drama.hh"
#include "revng/baseline_dramdig.hh"
#include "revng/reverse_engineer.hh"

using namespace rho;

namespace
{

struct Rig
{
    MemorySystem sys;
    BuddyAllocator buddy;
    PhysPool pool;
    TimingProbe probe;

    Rig(Arch arch, const std::string &dimm, std::uint64_t seed,
        double fraction = 0.70)
        : sys(SystemSpec(arch, DimmProfile::byId(dimm))),
          buddy(sys.mapping().memBytes(), 0.02, seed),
          pool(buddy, fraction), probe(sys, seed)
    {
    }

    Rig(Arch arch, const DimmProfile &dimm, AddressMapping mapping,
        std::uint64_t seed)
        : sys(SystemSpec(arch, dimm), std::move(mapping)),
          buddy(sys.mapping().memBytes(), 0.02, seed),
          pool(buddy, 0.70), probe(sys, seed)
    {
    }
};

} // namespace

TEST(SameFnSpan, BasisInvariance)
{
    std::vector<std::uint64_t> a = {0b0011, 0b0110};
    std::vector<std::uint64_t> b = {0b0101, 0b0110}; // same span
    std::vector<std::uint64_t> c = {0b0011, 0b1100}; // different
    EXPECT_TRUE(sameFnSpan(a, b, 4));
    EXPECT_FALSE(sameFnSpan(a, c, 4));
    EXPECT_FALSE(sameFnSpan(a, {0b0011}, 4)); // size mismatch
}

class RhoReOnArch : public ::testing::TestWithParam<Arch>
{
};

TEST_P(RhoReOnArch, RecoversGroundTruth)
{
    Rig rig(GetParam(), "S2", 11);
    RhoReverseEngineer re(rig.probe, rig.pool, 11);
    MappingRecovery rec = re.run();
    ASSERT_TRUE(rec.success) << rec.failureReason;
    EXPECT_TRUE(rec.matches(rig.sys.mapping()))
        << archName(GetParam());
    // Table 5: recovery takes on the order of seconds (simulated).
    EXPECT_LT(rec.simTimeNs, 30e9);
    EXPECT_GT(rec.simTimeNs, 0.1e9);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, RhoReOnArch,
                         ::testing::ValuesIn(allArchs));

TEST(RhoRe, RecoversDualRankGeometry)
{
    Rig rig(Arch::RaptorLake, "S1", 13); // 16 GiB, 2 ranks, 5 fns
    RhoReverseEngineer re(rig.probe, rig.pool, 13);
    MappingRecovery rec = re.run();
    ASSERT_TRUE(rec.success) << rec.failureReason;
    EXPECT_EQ(rec.bankFns.size(), 5u);
    EXPECT_TRUE(rec.matches(rig.sys.mapping()));
}

class RhoReRandomized : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Property: Algorithm 1 is layout-agnostic — it recovers randomized
 * mappings with arbitrary function structure it has never seen.
 */
TEST_P(RhoReRandomized, RecoversRandomMappings)
{
    Rng gen(1000 + GetParam());
    unsigned fns = 4; // 16 banks = S2 geometry
    AddressMapping truth =
        randomizedMapping(gen, 33, fns, 1 + GetParam() % 2);
    Rig rig(Arch::RaptorLake, DimmProfile::byId("S2"), truth,
            2000 + GetParam());
    RhoReverseEngineer re(rig.probe, rig.pool, 3000 + GetParam());
    MappingRecovery rec = re.run();
    ASSERT_TRUE(rec.success) << rec.failureReason;
    EXPECT_TRUE(rec.matches(truth)) << truth.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RhoReRandomized,
                         ::testing::Range(0u, 6u));

TEST(Drama, FailsOnAllEvaluatedMachines)
{
    // Table 5 row "DRAMA": no correct result on any machine — its
    // small-function brute force cannot express Alder/Raptor mappings
    // and its row heuristic mislabels the overlapped row bits on
    // Comet/Rocket.
    for (Arch arch : allArchs) {
        Rig rig(arch, "S2", 21, 0.4);
        DramaReverseEngineer drama(rig.probe, rig.pool, 21);
        MappingRecovery rec = drama.run();
        EXPECT_FALSE(rec.matches(rig.sys.mapping())) << archName(arch);
    }
}

TEST(DramDig, CorrectButSlowOnCometRocket)
{
    for (Arch arch : {Arch::CometLake, Arch::RocketLake}) {
        Rig rig(arch, "S2", 23);
        DramDigReverseEngineer dd(rig.probe, rig.pool, 23);
        MappingRecovery rec = dd.run();
        ASSERT_TRUE(rec.success) << rec.failureReason;
        EXPECT_TRUE(rec.matches(rig.sys.mapping())) << archName(arch);

        // Table 5: two orders of magnitude slower than rhoHammer.
        Rig rig2(arch, "S2", 24);
        RhoReverseEngineer re(rig2.probe, rig2.pool, 24);
        MappingRecovery fast = re.run();
        EXPECT_GT(rec.simTimeNs, 20.0 * fast.simTimeNs);
    }
}

TEST(DramDig, AbortsWithoutPureRowBits)
{
    for (Arch arch : {Arch::AlderLake, Arch::RaptorLake}) {
        Rig rig(arch, "S2", 25);
        DramDigReverseEngineer dd(rig.probe, rig.pool, 25);
        MappingRecovery rec = dd.run();
        EXPECT_FALSE(rec.success);
        EXPECT_NE(rec.failureReason.find("pure row"), std::string::npos);
        EXPECT_EQ(rec.code, FailureCode::NoPureRowBits);
        EXPECT_GT(rec.simTimeNs, 0.0);
    }
}

TEST(Dare, PartiallyNonDeterministicOnComet)
{
    // Table 5: DARE succeeds on Comet/Rocket only part of the time
    // (34/50 observed in the paper).
    unsigned correct = 0;
    const unsigned runs = 12;
    for (unsigned i = 0; i < runs; ++i) {
        Rig rig(Arch::CometLake, "S2", 100 + i);
        DareReverseEngineer dare(rig.probe, rig.pool,
                                 rig.sys.mapping(), 100 + i);
        MappingRecovery rec = dare.run();
        correct += rec.success && rec.matches(rig.sys.mapping());
    }
    EXPECT_GT(correct, runs / 3);
    EXPECT_LT(correct, runs); // not deterministic
}

TEST(Dare, FailsOnAlderRaptor)
{
    for (Arch arch : {Arch::AlderLake, Arch::RaptorLake}) {
        Rig rig(arch, "S2", 31);
        DareReverseEngineer dare(rig.probe, rig.pool, rig.sys.mapping(),
                                 31);
        MappingRecovery rec = dare.run();
        EXPECT_FALSE(rec.success) << archName(arch);
        EXPECT_NE(rec.failureReason.find("superpage"),
                  std::string::npos);
        EXPECT_EQ(rec.code, FailureCode::SuperpageRangeExceeded);
        EXPECT_GT(rec.simTimeNs, 0.0);
    }
}

// ---- Structured-failure contract ------------------------------------
//
// Every failure branch a recovery tool can actually take must report
// success=false together with a stable failureReason string and a
// machine-readable FailureCode. (The remaining enum values —
// IncompleteStructure, and DRAMA's NoPureRowBits — guard internal
// invariants that no stock preset or fault schedule can violate; they
// share the same reporting pattern and stay as defense in depth.)

TEST(FailurePaths, RhoReFailsHonestlyUnderOverwhelmingNoise)
{
    // Constant (not bursty) timing noise wider than the latency-mode
    // separation defeats every robust-measurement layer by design:
    // there is no clean window to re-measure in. The tool must say so
    // instead of returning a garbage mapping.
    Rig rig(Arch::CometLake, "S2", 27);
    FaultLevels lv;
    lv.timingNoiseSigmaNs = 60.0;
    lv.timingDriftNs = 30.0;
    FaultInjector inj(FaultSchedule::constant(lv), 27);
    rig.sys.attachFaultInjector(&inj);

    RhoReverseEngineer re(rig.probe, rig.pool, 27);
    MappingRecovery rec = re.run();
    EXPECT_FALSE(rec.success);
    EXPECT_EQ(rec.code, FailureCode::NoRowFunctions);
    EXPECT_EQ(rec.failureReason, "no row-inclusive bank functions found");
    EXPECT_GT(rec.simTimeNs, 0.0);
    // The robust layers visibly fought the noise before giving up.
    EXPECT_GT(rec.measureRetry.retries, 0u);
    EXPECT_GT(rec.measureRetry.backoffNs, 0.0);
}

TEST(FailurePaths, DramaFunctionSearchIncompleteIsStructured)
{
    for (Arch arch : {Arch::AlderLake, Arch::RaptorLake}) {
        Rig rig(arch, "S2", 26);
        DramaReverseEngineer drama(rig.probe, rig.pool, 26);
        MappingRecovery rec = drama.run();
        EXPECT_FALSE(rec.success) << archName(arch);
        EXPECT_EQ(rec.code, FailureCode::FunctionSearchIncomplete);
        EXPECT_NE(rec.failureReason.find("function search incomplete"),
                  std::string::npos);
        EXPECT_GT(rec.simTimeNs, 0.0);
    }
}

TEST(FailurePaths, EmptyPoolIsAllocationFailed)
{
    // A pool that owns nothing (fraction 0) has no pair to time; every
    // tool must report the allocation failure instead of sampling out
    // of range.
    auto expectAllocationFailed = [](const MappingRecovery &rec,
                                     const char *tool) {
        EXPECT_FALSE(rec.success) << tool;
        EXPECT_EQ(rec.code, FailureCode::AllocationFailed) << tool;
        EXPECT_EQ(rec.timedAccesses, 0u) << tool;
    };
    {
        Rig rig(Arch::CometLake, "S2", 28, 0.0);
        ASSERT_TRUE(rig.pool.empty());
        expectAllocationFailed(RhoReverseEngineer(rig.probe, rig.pool, 28)
                                   .run(),
                               "rho");
    }
    {
        Rig rig(Arch::CometLake, "S2", 28, 0.0);
        expectAllocationFailed(
            DramaReverseEngineer(rig.probe, rig.pool, 28).run(), "drama");
    }
    {
        Rig rig(Arch::CometLake, "S2", 28, 0.0);
        expectAllocationFailed(
            DramDigReverseEngineer(rig.probe, rig.pool, 28).run(),
            "dramdig");
    }
    {
        Rig rig(Arch::CometLake, "S2", 28, 0.0);
        expectAllocationFailed(DareReverseEngineer(rig.probe, rig.pool,
                                                   rig.sys.mapping(), 28)
                                   .run(),
                               "dare");
    }
}

TEST(ReTiming, RhoFasterThanDare)
{
    Rig rig(Arch::CometLake, "S2", 41);
    RhoReverseEngineer re(rig.probe, rig.pool, 41);
    auto fast = re.run();
    Rig rig2(Arch::CometLake, "S2", 42);
    DareReverseEngineer dare(rig2.probe, rig2.pool, rig2.sys.mapping(),
                             42);
    auto slow = dare.run();
    EXPECT_LT(fast.simTimeNs, slow.simTimeNs);
}
