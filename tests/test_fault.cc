/**
 * @file
 * Fault-injection framework tests and the chaos harness: schedule
 * composition, injector determinism, per-component fault delivery,
 * resilience of the reverse-engineering and exploitation pipelines
 * under the default chaos schedule, and checkpoint/resume of the
 * campaign engines after a simulated mid-run kill.
 *
 * Set RHO_CHAOS_SEED (an unsigned decimal) to re-run the chaos
 * scenarios under a different fault-randomness seed (CI sweeps several).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "differential.hh"
#include "exploit/massage.hh"
#include "exploit/pte_attack.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_schedule.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "memsys/timing_probe.hh"
#include "revng/reverse_engineer.hh"

using namespace rho;
using namespace rho::test;

namespace
{

std::uint64_t
chaosSeed()
{
    return envKnob("RHO_CHAOS_SEED", 1234);
}

} // namespace

// ---------------------------------------------------------------------
// Schedule composition
// ---------------------------------------------------------------------

TEST(FaultSchedule, PhaseWindowsAndBurstTrains)
{
    FaultPhase p;
    p.startNs = 100.0;
    p.endNs = 200.0;
    p.levels.timingNoiseSigmaNs = 5.0;
    EXPECT_FALSE(p.activeAt(99.0));
    EXPECT_TRUE(p.activeAt(100.0));
    EXPECT_TRUE(p.activeAt(199.0));
    EXPECT_FALSE(p.activeAt(200.0));

    // Repeating burst train: active for the first 10ns of every 50ns.
    FaultPhase burst;
    burst.startNs = 0.0;
    burst.repeatPeriodNs = 50.0;
    burst.burstLenNs = 10.0;
    burst.levels.timingDriftNs = 3.0;
    EXPECT_TRUE(burst.activeAt(0.0));
    EXPECT_TRUE(burst.activeAt(9.0));
    EXPECT_FALSE(burst.activeAt(10.0));
    EXPECT_FALSE(burst.activeAt(49.0));
    EXPECT_TRUE(burst.activeAt(51.0));
    EXPECT_FALSE(burst.activeAt(111.0));
}

TEST(FaultSchedule, MergeSumsActiveLevelsAndScales)
{
    FaultSchedule s = FaultSchedule::timingBursts(100.0, 40.0, 6.0, 2.0)
                          .merge(FaultSchedule::flipNonReproduction(0.2));
    EXPECT_EQ(s.numPhases(), 2u);

    FaultLevels in_burst = s.levelsAt(10.0);
    EXPECT_DOUBLE_EQ(in_burst.timingNoiseSigmaNs, 6.0);
    EXPECT_DOUBLE_EQ(in_burst.timingDriftNs, 2.0);
    EXPECT_DOUBLE_EQ(in_burst.flipSuppressProb, 0.2);

    FaultLevels off_burst = s.levelsAt(60.0);
    EXPECT_DOUBLE_EQ(off_burst.timingNoiseSigmaNs, 0.0);
    EXPECT_DOUBLE_EQ(off_burst.flipSuppressProb, 0.2);

    FaultLevels doubled = s.scaled(2.0).levelsAt(10.0);
    EXPECT_DOUBLE_EQ(doubled.timingNoiseSigmaNs, 12.0);
    EXPECT_DOUBLE_EQ(doubled.flipSuppressProb, 0.4);

    // Probabilities saturate at 1 when scaled or summed.
    EXPECT_DOUBLE_EQ(s.scaled(10.0).levelsAt(60.0).flipSuppressProb, 1.0);
    EXPECT_FALSE(FaultSchedule::none().levelsAt(0.0).any());
    EXPECT_TRUE(FaultSchedule::chaosDefault().levelsAt(0.0).any());
}

// ---------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------

TEST(FaultInjector, DeterministicPerSeed)
{
    FaultSchedule s = FaultSchedule::constant(
        {.timingNoiseSigmaNs = 5.0, .timingDriftNs = 1.0});
    FaultInjector a(s, 9), b(s, 9), c(s, 10);
    bool any_differs = false;
    for (int i = 0; i < 64; ++i) {
        Ns pa = a.timingPerturbation();
        EXPECT_DOUBLE_EQ(pa, b.timingPerturbation());
        any_differs |= pa != c.timingPerturbation();
    }
    EXPECT_TRUE(any_differs);
    EXPECT_EQ(a.stats().timingPerturbations, 64u);
}

TEST(FaultInjector, ChannelsDrawFromIndependentStreams)
{
    // Adding a second active channel must not shift the first
    // channel's draw sequence.
    FaultSchedule timing_only = FaultSchedule::constant(
        {.timingNoiseSigmaNs = 5.0});
    FaultSchedule timing_plus_alloc = FaultSchedule::constant(
        {.timingNoiseSigmaNs = 5.0, .allocFailProb = 0.5});
    FaultInjector a(timing_only, 7), b(timing_plus_alloc, 7);
    for (int i = 0; i < 32; ++i) {
        EXPECT_DOUBLE_EQ(a.timingPerturbation(), b.timingPerturbation());
        b.allocFails(); // interleave draws on the other channel
    }
}

TEST(FaultInjector, InactiveChannelsDeliverNothing)
{
    FaultInjector inj(FaultSchedule::none(), 5);
    for (int i = 0; i < 16; ++i) {
        EXPECT_DOUBLE_EQ(inj.timingPerturbation(), 0.0);
        EXPECT_FALSE(inj.suppressFlip());
        EXPECT_FALSE(inj.spuriousRefresh());
        EXPECT_FALSE(inj.allocFails());
        EXPECT_FALSE(inj.fragmentSpike());
    }
    EXPECT_EQ(inj.stats().total(), 0u);
}

// ---------------------------------------------------------------------
// Per-component fault delivery
// ---------------------------------------------------------------------

TEST(FaultDelivery, FullFlipSuppressionStopsAllFlips)
{
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 60000);
    Rng prng(11);
    PatternParams pp;
    pp.minPairs = 3;
    pp.maxPairs = 3;
    HammerPattern pattern = HammerPattern::randomNonUniform(prng, pp);

    // Find a location where the clean system actually flips (weak-cell
    // placement is seed-dependent).
    MemorySystem clean(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    HammerSession cs(clean, 11);
    HammerLocation loc{0, 0};
    std::uint64_t baseline = 0;
    for (std::uint32_t bank = 0; bank < 8 && baseline == 0; ++bank) {
        for (std::uint64_t row = 500; row < 3000 && baseline == 0;
             row += 700) {
            loc = {bank, row};
            baseline = cs.hammer(pattern, loc, cfg).flips;
        }
    }
    ASSERT_GT(baseline, 0u);

    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    FaultInjector inj(FaultSchedule::flipNonReproduction(1.0),
                      chaosSeed());
    sys.attachFaultInjector(&inj);
    HammerSession fs(sys, 11);
    EXPECT_EQ(fs.hammer(pattern, loc, cfg).flips, 0u);
    EXPECT_GT(inj.stats().flipsSuppressed, 0u);
}

TEST(FaultDelivery, BuddyAllocFailuresAndFragmentSpikes)
{
    BuddyAllocator buddy(1ULL << 28, 0.0);
    FaultInjector inj(FaultSchedule::constant({.allocFailProb = 1.0}),
                      chaosSeed());
    buddy.setFaultInjector(&inj);
    EXPECT_FALSE(buddy.allocPage().has_value());
    EXPECT_GT(inj.stats().allocFailures, 0u);
    buddy.setFaultInjector(nullptr);
    EXPECT_TRUE(buddy.allocPage().has_value());

    // A fragmentation spike keeps the free byte count but destroys
    // max-order contiguity.
    std::uint64_t free_before = buddy.freeBytes();
    std::size_t high_before = buddy.freeBlocksAt(BuddyAllocator::maxOrder);
    ASSERT_GT(high_before, 0u);
    buddy.fragmentationSpike(2);
    EXPECT_EQ(buddy.freeBytes(), free_before);
    EXPECT_EQ(buddy.freeBlocksAt(BuddyAllocator::maxOrder),
              high_before - 2);
    EXPECT_GE(buddy.freeBlocksAt(2), 2u * (1u << (8 - 0)));
}

TEST(FaultDelivery, RobustProbeRecoversCleanLatencyUnderBursts)
{
    PhysAddr a = 0x100000, b = 0x3200000;

    MemorySystem clean(SystemSpec(Arch::AlderLake, DimmProfile::byId("S2")));
    TimingProbe clean_probe(clean, 21);
    double truth = clean_probe.measurePairRobust(a, b, 100, 5);

    MemorySystem sys(SystemSpec(Arch::AlderLake, DimmProfile::byId("S2")));
    FaultInjector inj(FaultSchedule::timingBursts(200e3, 60e3, 15.0, 6.0),
                      chaosSeed());
    sys.attachFaultInjector(&inj);
    TimingProbe probe(sys, 21);
    RetryStats retry;
    double robust = probe.measurePairRobust(a, b, 100, 5, &retry);
    EXPECT_NEAR(robust, truth, 3.0);
    EXPECT_GT(retry.attempts, 0u);
}

// ---------------------------------------------------------------------
// Pipeline resilience under the default chaos schedule
// ---------------------------------------------------------------------

TEST(Chaos, ReverseEngineeringMatchesTruthUnderTimingBursts)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S1")));
    FaultInjector inj(FaultSchedule::timingBursts(50e6, 8e6, 12.0, 3.0),
                      chaosSeed());
    sys.attachFaultInjector(&inj);
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 31);
    PhysPool pool(buddy, 0.70);
    TimingProbe probe(sys, 31);

    RhoReverseEngineer tool(probe, pool, 31);
    MappingRecovery rec = tool.run();
    ASSERT_TRUE(rec.success) << rec.failureReason;
    EXPECT_TRUE(rec.matches(sys.mapping()));
    EXPECT_EQ(rec.code, FailureCode::None);
}

namespace
{

PteAttackResult
runAttackTrial(Arch arch, std::uint64_t trial_seed, FaultInjector *inj)
{
    MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S4")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02,
                         hashCombine(trial_seed, 2));
    HammerSession session(sys, hashCombine(trial_seed, 3));
    PageTableManager pt(sys, buddy);
    if (inj) {
        sys.attachFaultInjector(inj);
        buddy.setFaultInjector(inj);
    }
    PteAttack attack(session, buddy, pt, hashCombine(trial_seed, 4));
    PteAttackParams params;
    params.hammerCfg = rhoConfig(arch, false, 120000);
    params.regions = 3;
    return attack.run(params);
}

} // namespace

TEST(Chaos, PteAttackSucceedsUnderDefaultChaosSchedule)
{
    // ISSUE acceptance: under the default chaos schedule (timing
    // bursts + 10% flip non-reproduction + allocation failures) the
    // end-to-end attack succeeds in >= 4/5 trials per platform with
    // <= 2x simulated-time inflation over the fault-free baseline.
    for (Arch arch : {Arch::AlderLake, Arch::RaptorLake}) {
        PteAttackResult base = runAttackTrial(arch, 900, nullptr);
        ASSERT_TRUE(base.success) << base.failureReason;
        EXPECT_EQ(base.templateRetry.retries +
                      base.rehammerRetry.backoffs, 0u)
            << "fault-free run must not back off";

        unsigned successes = 0;
        double chaos_time = 0.0;
        for (unsigned trial = 0; trial < 5; ++trial) {
            FaultInjector inj(FaultSchedule::chaosDefault(),
                              hashCombine(chaosSeed(), trial));
            PteAttackResult res =
                runAttackTrial(arch, 900 + trial, &inj);
            if (res.success) {
                ++successes;
                chaos_time += res.endToEndTimeNs;
            } else {
                // Honest failures carry machine-readable diagnostics.
                EXPECT_FALSE(res.failureReason.empty());
                EXPECT_NE(res.code, FailureCode::None);
            }
        }
        EXPECT_GE(successes, 4u) << archName(arch);
        ASSERT_GT(successes, 0u) << archName(arch);
        EXPECT_LE(chaos_time / successes, 2.0 * base.endToEndTimeNs)
            << archName(arch);
    }
}

TEST(Chaos, MassageCountersDoNotDriftUnderAllocPressure)
{
    // Regression pin for counter drift on rolled-back operations: each
    // steerPtPage performs exactly one injector-visible allocation (the
    // PT page inside mapPage). The victim-reclaim alloc on the failure
    // path is fault-exempt, so (a) delivered allocFailures equals the
    // number of failed massages — the reclaim never re-consults the
    // injector — and (b) no frame leaks: free memory returns to the
    // pre-massage level after every trial, failed or not.
    MemorySystem sys(SystemSpec(Arch::AlderLake, DimmProfile::byId("S2")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 51);
    PageTableManager pt(sys, buddy);
    PageTableMassager massager(buddy, pt, 51);

    constexpr unsigned trials = 24;
    std::vector<std::pair<PhysAddr, PhysAddr>> pages;
    for (unsigned i = 0; i < trials; ++i)
        pages.emplace_back(*buddy.allocPage(), *buddy.allocPage());

    FaultInjector inj(
        FaultSchedule::chaosDefault().merge(
            FaultSchedule::allocPressure(0.5, 0.0)),
        chaosSeed());
    sys.attachFaultInjector(&inj);
    buddy.setFaultInjector(&inj);

    std::uint64_t before = buddy.freeBytes();
    unsigned failures = 0;
    for (auto [victim, backing] : pages) {
        MassageResult res = massager.steerPtPage(42, victim, backing);
        if (res.code == FailureCode::AllocationFailed)
            ++failures;
        EXPECT_EQ(buddy.freeBytes(), before);
    }
    // The schedule must actually exercise both paths.
    EXPECT_GT(failures, 0u);
    EXPECT_LT(failures, trials);
    EXPECT_EQ(inj.stats().allocFailures, failures);
}

TEST(Chaos, PteAttackFailsHonestlyUnderTotalSuppression)
{
    // Escalated schedule no retry budget can beat: every flip is
    // suppressed and allocations fail frequently. The attack must
    // terminate with a structured, machine-readable failure.
    FaultSchedule hostile = FaultSchedule::flipNonReproduction(1.0)
        .merge(FaultSchedule::allocPressure(0.3, 0.05));
    FaultInjector inj(hostile, chaosSeed());

    MemorySystem sys(SystemSpec(Arch::AlderLake, DimmProfile::byId("S4")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 41);
    HammerSession session(sys, 41);
    PageTableManager pt(sys, buddy);
    sys.attachFaultInjector(&inj);
    buddy.setFaultInjector(&inj);

    PteAttack attack(session, buddy, pt, 41);
    PteAttackParams params;
    params.hammerCfg = rhoConfig(Arch::AlderLake, false, 60000);
    params.regions = 1;
    PteAttackResult res = attack.run(params);

    EXPECT_FALSE(res.success);
    EXPECT_FALSE(res.failureReason.empty());
    EXPECT_NE(res.code, FailureCode::None);
    EXPECT_STRNE(failureCodeName(res.code), "");
    EXPECT_EQ(res.totalFlips, 0u);
}

// ---------------------------------------------------------------------
// Campaign checkpoint/resume
// ---------------------------------------------------------------------

namespace
{

void
expectFuzzEqual(const FuzzResult &a, const FuzzResult &b)
{
    EXPECT_EQ(a.totalFlips, b.totalFlips);
    EXPECT_EQ(a.bestPatternFlips, b.bestPatternFlips);
    EXPECT_EQ(a.effectivePatterns, b.effectivePatterns);
    EXPECT_EQ(a.simTimeNs, b.simTimeNs); // bit-identical doubles
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.bestPattern.has_value(), b.bestPattern.has_value());
}

/** Keep the journal header plus the first `keep` task lines and a torn
 *  final line, simulating a kill mid-write. */
void
truncateJournal(const std::string &path, unsigned keep)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    in.close();
    ASSERT_GT(lines.size(), keep + 1);
    std::ofstream out(path, std::ios::trunc);
    for (unsigned i = 0; i <= keep; ++i)
        out << lines[i] << "\n";
    out << lines[keep + 1].substr(0, lines[keep + 1].size() / 2);
}

} // namespace

TEST(Checkpoint, FuzzCampaignResumesBitIdentical)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S4"));
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 30000);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 1;
    params.jobs = 2;

    FuzzResult base = fuzzCampaign(spec, cfg, params, 77);

    std::string path = testing::TempDir() + "rho_fuzz.journal";
    std::remove(path.c_str());
    params.checkpointPath = path;
    expectFuzzEqual(fuzzCampaign(spec, cfg, params, 77), base);

    // Kill mid-run: only the first three tasks survive, the fourth is
    // torn. Resume must skip the torn line, re-run the missing tasks
    // and merge to a bit-identical result for any job count.
    for (unsigned jobs : {1u, 2u, 8u}) {
        truncateJournal(path, 3);
        params.jobs = jobs;
        ParallelStats stats;
        expectFuzzEqual(fuzzCampaign(spec, cfg, params, 77, &stats),
                        base);
        EXPECT_EQ(stats.tasksRestored, 3u) << jobs;
    }

    // A journal written under different campaign parameters must be
    // discarded, not replayed.
    FuzzParams other = params;
    other.numPatterns = 5;
    FuzzResult fresh = fuzzCampaign(spec, cfg, other, 77);
    ParallelStats stats;
    other.checkpointPath.clear();
    expectFuzzEqual(fuzzCampaign(spec, cfg, other, 77, &stats), fresh);
    std::remove(path.c_str());
}

TEST(Checkpoint, SweepCampaignResumesBitIdentical)
{
    SystemSpec spec(Arch::AlderLake, DimmProfile::byId("S4"));
    HammerConfig cfg = rhoConfig(Arch::AlderLake, false, 30000);
    Rng prng(3);
    PatternParams pp;
    pp.minPairs = 3;
    pp.maxPairs = 3;
    HammerPattern pattern = HammerPattern::randomNonUniform(prng, pp);

    SweepParams params;
    params.numLocations = 6;
    params.jobs = 2;
    SweepResult base = sweepCampaign(spec, pattern, cfg, params, 55);

    std::string path = testing::TempDir() + "rho_sweep.journal";
    std::remove(path.c_str());
    params.checkpointPath = path;
    SweepResult full = sweepCampaign(spec, pattern, cfg, params, 55);
    EXPECT_EQ(full.totalFlips, base.totalFlips);
    EXPECT_EQ(full.simTimeNs, base.simTimeNs);

    for (unsigned jobs : {1u, 8u}) {
        truncateJournal(path, 2);
        params.jobs = jobs;
        ParallelStats stats;
        SweepResult res = sweepCampaign(spec, pattern, cfg, params, 55,
                                        &stats);
        EXPECT_EQ(res.totalFlips, base.totalFlips);
        EXPECT_EQ(res.flipsPerLocation, base.flipsPerLocation);
        EXPECT_EQ(res.cumulativeTimeNs, base.cumulativeTimeNs);
        EXPECT_EQ(res.simTimeNs, base.simTimeNs);
        EXPECT_EQ(res.flipList.size(), base.flipList.size());
        EXPECT_EQ(stats.tasksRestored, 2u) << jobs;
    }
    std::remove(path.c_str());
}
