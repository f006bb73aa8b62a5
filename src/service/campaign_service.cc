#include "service/campaign_service.hh"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace rho::service
{

namespace
{

/**
 * Chain the worker's chaos plan onto journal options, after any hook
 * already in `opts` (so the record that trips the chaos is already
 * durable — crash-after-record semantics, the worst case for the
 * resume path).
 */
JournalOptions
withWorkerHooks(JournalOptions opts, const WorkerChaos &chaos)
{
    if (!chaos.any())
        return opts;
    auto inner = opts.onRecord;
    auto records = std::make_shared<unsigned>(0);
    WorkerChaos plan = chaos;
    opts.onRecord = [inner, records, plan](unsigned index,
                                           std::uint64_t seq) {
        if (inner)
            inner(index, seq);
        unsigned n = ++*records;
        if (plan.crashAfterRecords != 0 && n >= plan.crashAfterRecords)
            ::raise(SIGKILL);
        if (plan.hangAfterRecords != 0 && n >= plan.hangAfterRecords) {
            // Wedge without touching any file: the supervisor's
            // heartbeat timeout is the only way out.
            for (;;)
                ::pause();
        }
    };
    return opts;
}

/** Journal options a worker starts from (before the worker hooks). */
JournalOptions
workerJournalOptions(const ServiceParams &service)
{
    JournalOptions opts;
    opts.fsync = service.fsync;
    if (service.faults != nullptr) {
        FaultInjector *faults = service.faults;
        opts.bitRot = [faults](std::size_t num_bits) {
            return faults->journalBitRot(num_bits);
        };
    }
    return opts;
}

std::string
mergedJournalPath(const std::string &journal_base)
{
    return journal_base + ".merged";
}

/**
 * Shard, supervise, and absorb completed shard journals into the
 * merged journal. On return `mask_out` marks the tasks the parent's
 * merge run may execute; it is only applied when the report says
 * ShardQuarantined (those shards' tasks are masked out).
 */
ServiceReport
superviseAndMerge(unsigned total_tasks, const ServiceParams &service,
                  std::uint64_t journal_key, const WorkerBody &body,
                  std::vector<std::uint8_t> &mask_out)
{
    if (service.journalBase.empty())
        fatal("campaign service: ServiceParams::journalBase is required");

    std::vector<ShardSpec> shards =
        makeShards(total_tasks, service.shards, service.journalBase);

    SupervisorConfig scfg = service.supervisor;
    if (!scfg.chaos && service.faults != nullptr) {
        FaultInjector *faults = service.faults;
        scfg.chaos = [faults](const ShardSpec &shard, unsigned attempt) {
            return chaosFromFaults(*faults, shard, attempt);
        };
    }

    ServiceReport report;
    Supervisor supervisor(scfg);
    report.supervisor = service.execArgv
        ? supervisor.runExec(shards, service.execArgv)
        : supervisor.run(shards, body);
    report.mergedJournalPath = mergedJournalPath(service.journalBase);

    // Quarantined shards are excluded from the merge; their tasks are
    // the degradation the FailureCode reports.
    mask_out.assign(std::max(total_tasks, 1u), 1);
    for (const ShardReport &r : report.supervisor.shards) {
        if (r.state != ShardState::Quarantined)
            continue;
        report.code = FailureCode::ShardQuarantined;
        for (unsigned i = 0; i < r.spec.taskCount; ++i)
            mask_out[r.spec.firstTask + i] = 0;
    }

    // Absorb every completed shard's verified records. Shard journals
    // share the campaign key, so TaskJournal's own recovery rules
    // (CRC, seq, torn lines) decide what is trustworthy — anything
    // rejected here simply re-executes in the parent's merge run.
    {
        JournalOptions mopts;
        mopts.fsync = FsyncPolicy::Never;
        TaskJournal merged(report.mergedJournalPath, journal_key,
                           SweepJournalKind, mopts);
        std::vector<std::uint8_t> have(std::max(total_tasks, 1u), 0);
        for (unsigned i = 0; i < total_tasks; ++i)
            if (merged.lookup(i))
                have[i] = 1;
        for (const ShardReport &r : report.supervisor.shards) {
            if (r.state != ShardState::Done)
                continue;
            TaskJournal shard_journal(r.spec.journalPath, journal_key,
                                      SweepJournalKind, mopts);
            for (const auto &[index, payload] : shard_journal.entries()) {
                if (index >= total_tasks || have[index])
                    continue;
                merged.record(index, payload);
                have[index] = 1;
            }
        }
        merged.sync();

        for (unsigned i = 0; i < total_tasks; ++i) {
            if (!mask_out[i])
                continue;
            if (have[i])
                ++report.tasksFromWorkers;
            else
                ++report.tasksReexecuted;
        }
    }

    return report;
}

} // namespace

void
removeServiceJournals(const std::string &journal_base, unsigned shards)
{
    for (const ShardSpec &s : makeShards(shards, shards, journal_base))
        std::remove(s.journalPath.c_str());
    std::remove(mergedJournalPath(journal_base).c_str());
}

WorkerChaos
chaosFromFaults(FaultInjector &faults, const ShardSpec &shard,
                unsigned attempt)
{
    // Draw both channels unconditionally so enabling one never shifts
    // the other's stream.
    bool crash = faults.workerCrash();
    bool hang = faults.workerHang();
    WorkerChaos chaos;
    unsigned span = std::max(1u, shard.taskCount);
    if (crash)
        chaos.crashAfterRecords = 1 + (shard.id + attempt) % span;
    else if (hang)
        chaos.hangAfterRecords = 1 + (shard.id * 3 + attempt) % span;
    return chaos;
}

int
runSweepShardWorker(const SystemSpec &spec, const HammerPattern &pattern,
                    const HammerConfig &cfg, SweepParams params,
                    std::uint64_t seed, const ShardSpec &shard,
                    const WorkerChaos &chaos)
{
    std::vector<std::uint8_t> mask = shard.mask(params.numLocations);
    params.checkpointPath = shard.journalPath;
    params.taskMask = &mask;
    params.journal = withWorkerHooks(std::move(params.journal), chaos);
    sweepCampaign(spec, pattern, cfg, params, seed);
    return 0;
}

/*
 * Shard and supervise the workers, absorb their journals, then run the
 * sweep in-process over the merged journal: replaying everything the
 * workers proved, re-executing whatever was lost, skipping quarantined
 * tasks.
 */
SweepServiceOutcome
serviceSweepCampaign(const SystemSpec &spec, const HammerPattern &pattern,
                     const HammerConfig &cfg, const SweepParams &params,
                     std::uint64_t seed, const ServiceParams &service)
{
    SweepParams base = params;
    base.checkpointPath.clear();
    base.journal = JournalOptions{};
    base.taskMask = nullptr;

    WorkerBody body = [&](const ShardSpec &shard, unsigned,
                          const WorkerChaos &chaos) {
        SweepParams wp = base;
        wp.jobs = std::max(1u, service.jobsPerWorker);
        wp.journal = workerJournalOptions(service);
        return runSweepShardWorker(spec, pattern, cfg, std::move(wp),
                                   seed, shard, chaos);
    };

    std::vector<std::uint8_t> mask;
    ServiceReport report = superviseAndMerge(
        params.numLocations, service,
        sweepJournalKey(spec, cfg, params, pattern, seed), body, mask);
    SweepParams fin = base;
    fin.checkpointPath = report.mergedJournalPath;
    fin.journal.fsync = service.fsync;
    if (report.code == FailureCode::ShardQuarantined)
        fin.taskMask = &mask;
    return {sweepCampaign(spec, pattern, cfg, fin, seed), report};
}

} // namespace rho::service
