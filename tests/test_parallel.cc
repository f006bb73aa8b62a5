/**
 * @file
 * Tests for the parallel campaign engine: parallelMapOrdered()
 * semantics (ordering, exception propagation, edge cases, idle
 * workers) and the headline determinism guarantee — sweep and fuzz
 * campaigns produce bit-identical results for any job count.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "trace/metrics.hh"

using namespace rho;

// The ThreadPool suite keeps the name of the work-stealing pool that
// parallelMapOrdered() once ran on; it now tests the claim counter.

TEST(ThreadPool, DefaultJobsIsPositive)
{
    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(0), hw > 0 ? hw : 1u);
    EXPECT_EQ(resolveJobs(3), 3u);
}

TEST(ThreadPool, ZeroTasksIsANoOp)
{
    ParallelStats stats;
    std::atomic<unsigned> calls{0};
    auto out = parallelMapOrdered(
        0, 4, [&calls](unsigned i) { calls.fetch_add(1); return i; },
        &stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(calls.load(), 0u);
    EXPECT_EQ(stats.jobs, 1u);
    EXPECT_EQ(stats.tasksRun, 0u);
    EXPECT_EQ(stats.taskWallMs.count(), 0u);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ParallelStats stats;
    std::atomic<unsigned> hits{0};
    auto hit = [&hits](unsigned) { return hits.fetch_add(1) + 1; };
    parallelMapOrdered(100, 4, hit, &stats);
    EXPECT_EQ(hits.load(), 100u);
    EXPECT_EQ(stats.jobs, 4u);
    EXPECT_EQ(stats.tasksRun, 100u);

    // A second call accumulates into the same stats.
    parallelMapOrdered(50, 4, hit, &stats);
    EXPECT_EQ(hits.load(), 150u);
    EXPECT_EQ(stats.tasksRun, 150u);
    EXPECT_EQ(stats.taskWallMs.count(), 150u);
    EXPECT_EQ(stats.steals, 0u);
}

TEST(ThreadPool, IdleWorkersDoNotSpin)
{
    // Three tasks end at once while task 0 sleeps; the three workers
    // left without a task must not burn CPU until it wakes.
    constexpr auto sleep = std::chrono::milliseconds(300);
    auto cpu_s = [] {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec
            + (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    };
    double before = cpu_s();
    auto out = parallelMapOrdered(4, 4, [sleep](unsigned i) {
        if (i == 0)
            std::this_thread::sleep_for(sleep);
        return i;
    });
    double used = cpu_s() - before;
    ASSERT_EQ(out.size(), 4u);
    EXPECT_LT(used, 0.25 * std::chrono::duration<double>(sleep).count())
        << "process CPU seconds over a 300 ms wait";
}

TEST(ThreadPool, OrderedResultsRegardlessOfCompletionOrder)
{
    // Stagger task durations so completion order differs from index
    // order; the result vector must still be index-ordered.
    auto fn = [](unsigned i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((97 - i % 97) * 10));
        return static_cast<std::uint64_t>(i) * i;
    };
    ParallelStats stats;
    auto out = parallelMapOrdered(97, 4, fn, &stats);
    ASSERT_EQ(out.size(), 97u);
    for (unsigned i = 0; i < 97; ++i)
        EXPECT_EQ(out[i], static_cast<std::uint64_t>(i) * i);
    EXPECT_EQ(stats.tasksRun, 97u);
    EXPECT_GT(stats.wallNs, 0.0);
    EXPECT_EQ(stats.taskWallMs.count(), 97u);
}

TEST(ThreadPool, ExceptionPropagatesEarliestTaskFirst)
{
    auto fn = [](unsigned i) -> int {
        if (i == 3)
            throw std::runtime_error("task 3");
        if (i == 7)
            throw std::runtime_error("task 7");
        return static_cast<int>(i);
    };
    try {
        parallelMapOrdered(16, 4, fn);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        // All tasks quiesce first, then the lowest-index error wins.
        EXPECT_STREQ(e.what(), "task 3");
    }
}

TEST(ThreadPool, SerialFallbackMatchesParallel)
{
    auto fn = [](unsigned i) { return splitMix64(i); };
    auto serial = parallelMapOrdered(32, 1, fn);
    auto parallel = parallelMapOrdered(32, 8, fn);
    EXPECT_EQ(serial, parallel);
}

namespace
{

/** Canonical small campaign setup used by the determinism suites. */
SystemSpec
campaignSpec()
{
    return SystemSpec(Arch::CometLake, DimmProfile::byId("S4"));
}

} // namespace

TEST(Determinism, FuzzCampaignBitIdenticalAcrossJobCounts)
{
    SystemSpec spec = campaignSpec();
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 150000);
    FuzzParams params;
    params.numPatterns = 5;
    params.locationsPerPattern = 1;

    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
        params.jobs = 1;
        FuzzResult ref = fuzzCampaign(spec, cfg, params, seed);
        for (unsigned jobs : {2u, 8u}) {
            params.jobs = jobs;
            FuzzResult got = fuzzCampaign(spec, cfg, params, seed);
            EXPECT_EQ(got.totalFlips, ref.totalFlips)
                << "seed " << seed << " jobs " << jobs;
            EXPECT_EQ(got.bestPatternFlips, ref.bestPatternFlips)
                << "seed " << seed << " jobs " << jobs;
            EXPECT_EQ(got.effectivePatterns, ref.effectivePatterns);
            EXPECT_EQ(got.dramAccesses, ref.dramAccesses);
            EXPECT_EQ(got.simTimeNs, ref.simTimeNs);
            ASSERT_EQ(got.bestPattern.has_value(),
                      ref.bestPattern.has_value());
            if (ref.bestPattern) {
                EXPECT_EQ(got.bestPattern->id(), ref.bestPattern->id());
            }
        }
    }
}

TEST(Determinism, SweepCampaignBitIdenticalAcrossJobCounts)
{
    SystemSpec spec = campaignSpec();
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 150000);
    SweepParams params;
    params.numLocations = 6;

    for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
        Rng pattern_rng(seed);
        HammerPattern pattern =
            HammerPattern::randomNonUniform(pattern_rng);

        params.jobs = 1;
        SweepResult ref = sweepCampaign(spec, pattern, cfg, params, seed);
        for (unsigned jobs : {2u, 8u}) {
            params.jobs = jobs;
            SweepResult got =
                sweepCampaign(spec, pattern, cfg, params, seed);
            EXPECT_EQ(got.totalFlips, ref.totalFlips)
                << "seed " << seed << " jobs " << jobs;
            EXPECT_EQ(got.flipsPerLocation, ref.flipsPerLocation);
            EXPECT_EQ(got.cumulativeTimeNs, ref.cumulativeTimeNs);
            EXPECT_EQ(got.simTimeNs, ref.simTimeNs);
            EXPECT_TRUE(got.flipList == ref.flipList)
                << "seed " << seed << " jobs " << jobs;
        }
    }
}

TEST(Determinism, MetricsTotalsIndependentOfJobCount)
{
    // The unified counters (ACTs, targeted refreshes, flips, ...) are
    // merged in task order, so the whole registry — not just the
    // headline result — must be identical for any job count.
    SystemSpec spec = campaignSpec();
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 150000);
    SweepParams params;
    params.numLocations = 4;

    std::uint64_t total_flips = 0;
    for (std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
        Rng pattern_rng(seed);
        HammerPattern pattern =
            HammerPattern::randomNonUniform(pattern_rng);

        params.jobs = 1;
        MetricsRegistry ref;
        sweepCampaign(spec, pattern, cfg, params, seed, nullptr, &ref);
        EXPECT_GT(ref.value("dram.acts"), 0u) << "seed " << seed;
        EXPECT_GT(ref.value("cpu.dram_accesses"), 0u) << "seed " << seed;
        EXPECT_EQ(ref.value("campaign.locations"), params.numLocations);
        total_flips += ref.value("hammer.flips");

        for (unsigned jobs : {2u, 8u}) {
            params.jobs = jobs;
            MetricsRegistry got;
            sweepCampaign(spec, pattern, cfg, params, seed, nullptr,
                          &got);
            EXPECT_EQ(got.all(), ref.all())
                << "seed " << seed << " jobs " << jobs;
        }
    }
    // The property is only interesting if the counters saw real work.
    EXPECT_GT(total_flips, 0u);
}

TEST(Determinism, RestoredTasksAreNotCountedAsRun)
{
    // Regression: a journal-restored task used to be counted in
    // tasksRun even though it did no simulation work, so a resumed
    // campaign reported tasksRun == numLocations twice over.
    SystemSpec spec = campaignSpec();
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 30000);
    Rng pattern_rng(44);
    HammerPattern pattern = HammerPattern::randomNonUniform(pattern_rng);
    SweepParams params;
    params.numLocations = 5;
    params.jobs = 2;
    params.checkpointPath = testing::TempDir() + "rho_tasksrun.journal";
    std::remove(params.checkpointPath.c_str());

    ParallelStats first;
    sweepCampaign(spec, pattern, cfg, params, 44, &first);
    EXPECT_EQ(first.tasksRun, 5u);
    EXPECT_EQ(first.tasksRestored, 0u);

    // Second run restores everything from the journal: no task
    // actually executed.
    ParallelStats second;
    sweepCampaign(spec, pattern, cfg, params, 44, &second);
    EXPECT_EQ(second.tasksRestored, 5u);
    EXPECT_EQ(second.tasksRun, 0u);
    std::remove(params.checkpointPath.c_str());
}

TEST(Determinism, MaskedOutTasksAreNotCountedAsRun)
{
    // Regression: a task skipped by a service shard mask used to land
    // in tasksRun and taskWallMs although it never executed.
    SystemSpec spec = campaignSpec();
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 30000);
    const std::vector<std::uint8_t> mask = {1, 0, 0, 1, 1, 0};
    const unsigned live = 3;

    Rng pattern_rng(45);
    HammerPattern pattern = HammerPattern::randomNonUniform(pattern_rng);
    SweepParams sp;
    sp.numLocations = static_cast<unsigned>(mask.size());
    sp.jobs = 2;
    sp.taskMask = &mask;
    ParallelStats sweep_stats;
    SweepResult sr = sweepCampaign(spec, pattern, cfg, sp, 45,
                                   &sweep_stats);
    EXPECT_EQ(sr.flipsPerLocation.size(), live);
    EXPECT_EQ(sweep_stats.tasksRun, live);
    EXPECT_EQ(sweep_stats.taskWallMs.count(), live);

    FuzzParams fp;
    fp.numPatterns = static_cast<unsigned>(mask.size());
    fp.locationsPerPattern = 1;
    fp.jobs = 2;
    fp.taskMask = &mask;
    ParallelStats fuzz_stats;
    fuzzCampaign(spec, cfg, fp, 45, &fuzz_stats);
    EXPECT_EQ(fuzz_stats.tasksRun, live);
    EXPECT_EQ(fuzz_stats.taskWallMs.count(), live);
}

TEST(Determinism, CampaignStatsReflectScheduling)
{
    SystemSpec spec = campaignSpec();
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 60000);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 1;
    params.jobs = 3;

    ParallelStats stats;
    fuzzCampaign(spec, cfg, params, 5, &stats);
    EXPECT_EQ(stats.jobs, 3u);
    EXPECT_EQ(stats.tasksRun, 6u);
    EXPECT_GT(stats.wallNs, 0.0);
    EXPECT_GT(stats.simNs, 0.0);
    EXPECT_EQ(stats.taskWallMs.count(), 6u);
}
