/**
 * @file
 * The campaign service layer: shard partitioning, retry/backoff,
 * the journal heartbeat, the fork/poll/SIGKILL supervisor, and the
 * end-to-end guarantee that supervised multi-process campaigns merge
 * bit-identically to uninterrupted in-process runs — under worker
 * crashes, hangs and journal bit-rot.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "hammer/tuned_configs.hh"
#include "service/campaign_service.hh"

using namespace rho;
using namespace rho::service;

namespace
{

std::string
tempBase(const char *name)
{
    return testing::TempDir() + name + "." + std::to_string(::getpid());
}

/** Fast supervision knobs for tests. */
SupervisorConfig
testSupervisor()
{
    SupervisorConfig cfg;
    cfg.workers = 2;
    cfg.retry.initialBackoffS = 0.005;
    cfg.retry.maxBackoffS = 0.02;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------

TEST(Service, RetryPolicyBackoffCurve)
{
    RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.initialBackoffS = 0.05;
    policy.maxBackoffS = 0.15;

    EXPECT_DOUBLE_EQ(policy.delayForAttempt(1), 0.0);
    EXPECT_DOUBLE_EQ(policy.delayForAttempt(2), 0.05);
    EXPECT_DOUBLE_EQ(policy.delayForAttempt(3), 0.10);
    EXPECT_DOUBLE_EQ(policy.delayForAttempt(4), 0.15); // capped
    EXPECT_DOUBLE_EQ(policy.delayForAttempt(9), 0.15);

    EXPECT_TRUE(policy.allows(1));
    EXPECT_TRUE(policy.allows(4));
    EXPECT_FALSE(policy.allows(5));

    RetryPolicy none;
    none.maxAttempts = 0; // degenerate: still one launch
    EXPECT_TRUE(none.allows(1));
    EXPECT_FALSE(none.allows(2));
}

// ---------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------

TEST(Service, MakeShardsBalancedAndComplete)
{
    auto shards = makeShards(10, 3, "/tmp/j");
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].taskCount, 4u);
    EXPECT_EQ(shards[1].taskCount, 3u);
    EXPECT_EQ(shards[2].taskCount, 3u);

    // Contiguous cover of [0, 10), and masks form a partition.
    std::vector<std::uint8_t> covered(10, 0);
    unsigned next = 0;
    for (const auto &s : shards) {
        EXPECT_EQ(s.firstTask, next);
        next += s.taskCount;
        auto m = s.mask(10);
        for (unsigned i = 0; i < 10; ++i)
            covered[i] = static_cast<std::uint8_t>(covered[i] + m[i]);
    }
    EXPECT_EQ(next, 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(covered[i], 1u) << i;

    EXPECT_EQ(shards[1].journalPath, "/tmp/j.shard1");
}

TEST(Service, MakeShardsClampsToTaskCount)
{
    EXPECT_EQ(makeShards(2, 8, "/tmp/j").size(), 2u);
    EXPECT_EQ(makeShards(5, 0, "/tmp/j").size(), 1u);
    auto empty = makeShards(0, 4, "/tmp/j");
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty[0].taskCount, 0u);
}

// ---------------------------------------------------------------------
// Supervisor (body mode)
// ---------------------------------------------------------------------

TEST(Service, SupervisorRunsAllShards)
{
    std::string base = tempBase("rho_sup_ok");
    auto shards = makeShards(6, 3, base);
    Supervisor sup(testSupervisor());
    SupervisorResult res = sup.run(
        shards, [](const ShardSpec &, unsigned, const WorkerChaos &) {
            return 0;
        });
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.crashes, 0u);
    ASSERT_EQ(res.shards.size(), 3u);
    for (const auto &r : res.shards) {
        EXPECT_EQ(r.state, ShardState::Done);
        EXPECT_EQ(r.attempts, 1u);
        EXPECT_EQ(r.code, FailureCode::None);
    }
    removeServiceJournals(base, 3);
}

TEST(Service, SupervisorRetriesCrashedWorker)
{
    std::string base = tempBase("rho_sup_retry");
    auto shards = makeShards(4, 2, base);
    Supervisor sup(testSupervisor());
    // Shard 0 dies by SIGKILL on its first attempt only.
    SupervisorResult res = sup.run(
        shards, [](const ShardSpec &shard, unsigned attempt,
                   const WorkerChaos &) {
            if (shard.id == 0 && attempt == 1)
                ::raise(SIGKILL);
            return 0;
        });
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.crashes, 1u);
    EXPECT_EQ(res.shards[0].state, ShardState::Done);
    EXPECT_EQ(res.shards[0].attempts, 2u);
    EXPECT_EQ(res.shards[0].lastFailure, FailureCode::WorkerCrashed);
    EXPECT_EQ(res.shards[1].attempts, 1u);
    removeServiceJournals(base, 2);
}

TEST(Service, SupervisorQuarantinesAfterRetryBudget)
{
    std::string base = tempBase("rho_sup_quar");
    auto shards = makeShards(4, 2, base);
    SupervisorConfig cfg = testSupervisor();
    cfg.retry.maxAttempts = 3;
    Supervisor sup(cfg);
    // Shard 1 fails every attempt; the campaign must degrade, not die.
    SupervisorResult res = sup.run(
        shards,
        [](const ShardSpec &shard, unsigned, const WorkerChaos &) {
            return shard.id == 1 ? 9 : 0;
        });
    EXPECT_FALSE(res.complete());
    EXPECT_EQ(res.quarantined, 1u);
    EXPECT_EQ(res.shards[0].state, ShardState::Done);
    EXPECT_EQ(res.shards[1].state, ShardState::Quarantined);
    EXPECT_EQ(res.shards[1].attempts, 3u);
    EXPECT_EQ(res.shards[1].code, FailureCode::ShardQuarantined);
    EXPECT_EQ(res.shards[1].lastFailure, FailureCode::WorkerCrashed);
    removeServiceJournals(base, 2);
}

TEST(Service, SupervisorKillsHungWorker)
{
    std::string base = tempBase("rho_sup_hang");
    auto shards = makeShards(2, 1, base);
    SupervisorConfig cfg = testSupervisor();
    cfg.heartbeatTimeoutS = 0.2;
    Supervisor sup(cfg);
    SupervisorResult res = sup.run(
        shards, [](const ShardSpec &, unsigned attempt,
                   const WorkerChaos &) -> int {
            if (attempt == 1)
                for (;;) // wedge silently; no file ever grows
                    ::pause();
            return 0;
        });
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.hangs, 1u);
    EXPECT_EQ(res.shards[0].attempts, 2u);
    EXPECT_EQ(res.shards[0].lastFailure, FailureCode::WorkerHung);
    removeServiceJournals(base, 1);
}

TEST(Service, SupervisorKeepsProgressingWorkerAlive)
{
    std::string base = tempBase("rho_sup_alive");
    auto shards = makeShards(1, 1, base);
    SupervisorConfig cfg = testSupervisor();
    cfg.heartbeatTimeoutS = 0.5;
    Supervisor sup(cfg);
    // Outlive the heartbeat timeout twice over, growing the journal by
    // one byte every 20 ms: growth alone must keep the worker alive.
    SupervisorResult res = sup.run(
        shards, [](const ShardSpec &shard, unsigned,
                   const WorkerChaos &) -> int {
            int fd = ::open(shard.journalPath.c_str(),
                            O_CREAT | O_WRONLY | O_APPEND, 0644);
            if (fd < 0)
                return 1;
            for (int i = 0; i < 50; ++i) {
                if (::write(fd, "x", 1) != 1)
                    return 1;
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            ::close(fd);
            return 0;
        });
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.hangs, 0u);
    ASSERT_EQ(res.shards.size(), 1u);
    EXPECT_EQ(res.shards[0].state, ShardState::Done);
    EXPECT_EQ(res.shards[0].attempts, 1u);
    removeServiceJournals(base, 1);
}

TEST(Service, SupervisorShedsConcurrencyOnRepeatedSignalDeaths)
{
    std::string base = tempBase("rho_sup_shed");
    auto shards = makeShards(8, 4, base);
    SupervisorConfig cfg = testSupervisor();
    cfg.workers = 4;
    Supervisor sup(cfg);
    // Every shard's first attempt dies like an OOM kill.
    SupervisorResult res = sup.run(
        shards, [](const ShardSpec &, unsigned attempt,
                   const WorkerChaos &) {
            if (attempt == 1)
                ::raise(SIGKILL);
            return 0;
        });
    EXPECT_TRUE(res.complete());
    EXPECT_EQ(res.crashes, 4u);
    EXPECT_EQ(res.peakWorkers, 4u);
    EXPECT_LT(res.finalWorkers, res.peakWorkers);
    removeServiceJournals(base, 4);
}

// ---------------------------------------------------------------------
// End-to-end service campaigns
// ---------------------------------------------------------------------

namespace
{

struct SweepScenario
{
    SystemSpec spec;
    HammerConfig cfg;
    HammerPattern pattern;

    explicit SweepScenario(std::uint64_t seed)
        : spec(Arch::AlderLake, DimmProfile::byId("S4")),
          cfg(rhoConfig(Arch::AlderLake, false, 30000)),
          pattern(makePattern(seed))
    {
    }

    static HammerPattern
    makePattern(std::uint64_t seed)
    {
        Rng prng(seed);
        PatternParams pp;
        pp.minPairs = 3;
        pp.maxPairs = 3;
        return HammerPattern::randomNonUniform(prng, pp);
    }
};

void
expectSweepEqual(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.totalFlips, b.totalFlips);
    EXPECT_EQ(a.flipsPerLocation, b.flipsPerLocation);
    EXPECT_EQ(a.cumulativeTimeNs, b.cumulativeTimeNs);
    EXPECT_EQ(a.simTimeNs, b.simTimeNs);
    EXPECT_EQ(a.flipList.size(), b.flipList.size());
}

ServiceParams
testService(const std::string &base, unsigned shards)
{
    ServiceParams service;
    service.shards = shards;
    service.jobsPerWorker = 1;
    service.journalBase = base;
    service.fsync = FsyncPolicy::Never; // tmpfs tests; speed
    service.supervisor = testSupervisor();
    return service;
}

} // namespace

TEST(Service, SweepServiceMatchesInProcessRun)
{
    SweepScenario sc(5);
    SweepParams params;
    params.numLocations = 6;
    SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                     55);

    std::string jbase = tempBase("rho_svc_sweep");
    SweepServiceOutcome out = serviceSweepCampaign(
        sc.spec, sc.pattern, sc.cfg, params, 55, testService(jbase, 3));
    expectSweepEqual(out.result, base);
    EXPECT_EQ(out.report.code, FailureCode::None);
    EXPECT_EQ(out.report.tasksFromWorkers, 6u);
    EXPECT_EQ(out.report.tasksReexecuted, 0u);
    EXPECT_TRUE(out.report.supervisor.complete());
    removeServiceJournals(jbase, 3);
}

TEST(Service, SweepServiceSurvivesKilledWorkersBitIdentical)
{
    SweepScenario sc(5);
    SweepParams params;
    params.numLocations = 6;
    SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                     55);

    std::string jbase = tempBase("rho_svc_kill");
    ServiceParams service = testService(jbase, 3);
    // SIGKILL every shard's first attempt after its first durable
    // record — the worst case short of losing the journal itself.
    service.supervisor.chaos = [](const ShardSpec &, unsigned attempt) {
        WorkerChaos chaos;
        if (attempt == 1)
            chaos.crashAfterRecords = 1;
        return chaos;
    };
    SweepServiceOutcome out = serviceSweepCampaign(
        sc.spec, sc.pattern, sc.cfg, params, 55, service);
    expectSweepEqual(out.result, base);
    EXPECT_EQ(out.report.code, FailureCode::None);
    EXPECT_EQ(out.report.supervisor.crashes, 3u);
    EXPECT_EQ(out.report.tasksFromWorkers, 6u);
    removeServiceJournals(jbase, 3);
}

TEST(Service, SweepServiceSurvivesHungWorkerBitIdentical)
{
    SweepScenario sc(5);
    SweepParams params;
    params.numLocations = 4;
    SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                     55);

    std::string jbase = tempBase("rho_svc_hang");
    ServiceParams service = testService(jbase, 2);
    service.supervisor.heartbeatTimeoutS = 0.25;
    service.supervisor.chaos = [](const ShardSpec &shard,
                                  unsigned attempt) {
        WorkerChaos chaos;
        if (shard.id == 0 && attempt == 1)
            chaos.hangAfterRecords = 1;
        return chaos;
    };
    SweepServiceOutcome out = serviceSweepCampaign(
        sc.spec, sc.pattern, sc.cfg, params, 55, service);
    expectSweepEqual(out.result, base);
    EXPECT_EQ(out.report.supervisor.hangs, 1u);
    EXPECT_EQ(out.report.code, FailureCode::None);
    removeServiceJournals(jbase, 2);
}

TEST(Service, SweepServiceSurvivesJournalBitRotBitIdentical)
{
    SweepScenario sc(5);
    SweepParams params;
    params.numLocations = 6;
    SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                     55);

    std::string jbase = tempBase("rho_svc_rot");
    // Rot every third journal record the workers write; the merge must
    // reject the rotted records and re-execute those tasks.
    FaultInjector faults(FaultSchedule::serviceChaos(0.0, 0.0, 1.0 / 3.0),
                         hashCombine(55, 0xB0));
    ServiceParams service = testService(jbase, 2);
    service.faults = &faults;
    // Crash/hang channels are off, so chaos plans stay empty; only the
    // bitRot hook fires (inside the forked workers).
    SweepServiceOutcome out = serviceSweepCampaign(
        sc.spec, sc.pattern, sc.cfg, params, 55, service);
    expectSweepEqual(out.result, base);
    EXPECT_EQ(out.report.code, FailureCode::None);
    EXPECT_EQ(out.report.tasksFromWorkers + out.report.tasksReexecuted,
              6u);
    removeServiceJournals(jbase, 2);
}

TEST(Service, QuarantinedShardReportsFailureCodeInsteadOfAborting)
{
    SweepScenario sc(5);
    SweepParams params;
    params.numLocations = 6;

    std::string jbase = tempBase("rho_svc_quar");
    ServiceParams service = testService(jbase, 3);
    service.supervisor.retry.maxAttempts = 2;
    // Shard 1 is killed before it can journal anything, every attempt.
    service.supervisor.chaos = [](const ShardSpec &shard, unsigned) {
        WorkerChaos chaos;
        if (shard.id == 1)
            chaos.crashAfterRecords = 1;
        return chaos;
    };
    SweepServiceOutcome out = serviceSweepCampaign(
        sc.spec, sc.pattern, sc.cfg, params, 55, service);

    EXPECT_EQ(out.report.code, FailureCode::ShardQuarantined);
    EXPECT_EQ(out.report.supervisor.quarantined, 1u);
    EXPECT_STREQ(failureCodeName(out.report.code), "shard-quarantined");

    // The degraded result still covers the healthy shards' tasks: the
    // merge compacts to the unmasked locations, in index order.
    SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                     55);
    const auto &quarantined = out.report.supervisor.shards[1].spec;
    std::vector<std::uint64_t> expected;
    for (unsigned i = 0; i < params.numLocations; ++i) {
        bool masked = i >= quarantined.firstTask &&
                      i < quarantined.firstTask + quarantined.taskCount;
        if (!masked)
            expected.push_back(base.flipsPerLocation[i]);
    }
    EXPECT_EQ(out.result.flipsPerLocation, expected);
    removeServiceJournals(jbase, 3);
}

TEST(Service, ChaosFromFaultsIsDeterministic)
{
    ShardSpec shard;
    shard.id = 1;
    shard.taskCount = 4;
    FaultInjector a(FaultSchedule::serviceChaos(1.0, 0.0, 0.0), 9);
    FaultInjector b(FaultSchedule::serviceChaos(1.0, 0.0, 0.0), 9);
    for (unsigned attempt = 1; attempt <= 3; ++attempt) {
        WorkerChaos ca = chaosFromFaults(a, shard, attempt);
        WorkerChaos cb = chaosFromFaults(b, shard, attempt);
        EXPECT_EQ(ca.crashAfterRecords, cb.crashAfterRecords);
        EXPECT_EQ(ca.hangAfterRecords, cb.hangAfterRecords);
        EXPECT_TRUE(ca.any());
    }
}
