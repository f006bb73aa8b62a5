/**
 * @file
 * The campaign service: sweep campaigns sharded across supervised
 * worker processes, with crash-safe journals and a bit-identical merge.
 *
 * Flow for one campaign (serviceSweepCampaign):
 *
 *  1. The task keyspace [0, N) is split into contiguous shards
 *     (shard.hh). Each shard gets its own journal under
 *     `ServiceParams::journalBase`; its growth is the worker's
 *     heartbeat.
 *  2. The Supervisor drives one worker process per shard (fork in body
 *     mode; the example binary also exposes an exec-mode `--worker`
 *     entry via runSweepShardWorker). Workers run the ordinary
 *     campaign engine with a task mask restricted to their shard,
 *     journaling every completed task. Crashed / hung workers are
 *     retried with backoff and resume from their journal.
 *  3. The parent absorbs all completed shards' verified journal
 *     records into one merged journal (all shard journals share the
 *     campaign's journal key), then runs the campaign in-process over
 *     the merged journal: every journaled task replays, and any task
 *     lost to a kill, a torn line or bit-rot silently re-executes.
 *
 * Because each task is a pure function of campaignTaskSeed(seed,
 * index) and merging is in index order, the final result is
 * byte-identical to an uninterrupted single-process run — for any
 * worker count, any --jobs, any kill point, any corrupted record.
 * Shards that exhaust their retry budget are quarantined: their tasks
 * are masked out of the merge and the degradation is reported via
 * FailureCode::ShardQuarantined instead of an abort.
 */

#ifndef RHO_SERVICE_CAMPAIGN_SERVICE_HH
#define RHO_SERVICE_CAMPAIGN_SERVICE_HH

#include <cstdint>
#include <string>

#include "fault/fault_injector.hh"
#include "hammer/sweep.hh"
#include "service/supervisor.hh"

namespace rho::service
{

/** How a campaign is sharded, supervised and journaled. */
struct ServiceParams
{
    unsigned shards = 4;        //!< worker shard count
    unsigned jobsPerWorker = 1; //!< threads inside each worker
    std::string journalBase;    //!< required: path prefix for journals

    /** Durability policy for shard + merged journals. */
    FsyncPolicy fsync = FsyncPolicy::PerRecord;

    SupervisorConfig supervisor{};

    /**
     * Optional chaos source. When set (and supervisor.chaos is not),
     * each worker launch consults workerCrash()/workerHang() for a
     * deterministic mid-shard SIGKILL / wedge plan, and worker
     * journals corrupt records via journalBitRot().
     */
    FaultInjector *faults = nullptr;

    /**
     * Exec mode: when set, workers are fork+exec'd with this argv
     * (typically the host binary's own `--worker` entry re-deriving
     * the campaign from its arguments) instead of forked body-mode
     * processes. `faults`-driven bit-rot does not cross the exec
     * boundary — encode any chaos the worker should self-inflict in
     * the argv.
     */
    WorkerArgv execArgv;
};

/** Service-level accounting for one campaign run. */
struct ServiceReport
{
    SupervisorResult supervisor;
    std::string mergedJournalPath;
    unsigned tasksFromWorkers = 0; //!< replayed from shard journals
    unsigned tasksReexecuted = 0;  //!< lost/corrupt; redone in parent
    /** ShardQuarantined when the result is degraded, else None. */
    FailureCode code = FailureCode::None;
};

/** A campaign's merged result plus the service accounting. */
struct SweepServiceOutcome
{
    SweepResult result;
    ServiceReport report;
};

/**
 * Run `params` as a supervised multi-process campaign. The campaign
 * parameters (`params.numLocations`, seed, ...) mean exactly what they
 * mean for sweepCampaign(); `params.checkpointPath`, `params.journal`
 * and `params.taskMask` are overridden by the service layer.
 */
SweepServiceOutcome serviceSweepCampaign(const SystemSpec &spec,
                                         const HammerPattern &pattern,
                                         const HammerConfig &cfg,
                                         const SweepParams &params,
                                         std::uint64_t seed,
                                         const ServiceParams &service);

/**
 * The exec-mode entry point for one sweep shard attempt (the example
 * binary's `--worker`): the same shard-worker routine body-mode
 * workers run — run the masked campaign against the shard journal and
 * execute any chaos plan. Returns the process exit code.
 *
 * `params.journal` should carry the fsync policy (and any bitRot
 * hook); the chaos hook is chained onto it.
 */
int runSweepShardWorker(const SystemSpec &spec, const HammerPattern &pattern,
                        const HammerConfig &cfg, SweepParams params,
                        std::uint64_t seed, const ShardSpec &shard,
                        const WorkerChaos &chaos);

/**
 * Delete the journals a service run over `shards` shards leaves under
 * `journal_base`: every shard journal and the merged journal.
 */
void removeServiceJournals(const std::string &journal_base, unsigned shards);

/**
 * Deterministic chaos plan for one (shard, attempt) drawn from the
 * injector's worker-crash/hang channels: a triggered fault fires after
 * a record count derived from (shard.id, attempt), so plans are
 * reproducible from the chaos seed.
 */
WorkerChaos chaosFromFaults(FaultInjector &faults, const ShardSpec &shard,
                            unsigned attempt);

} // namespace rho::service

#endif // RHO_SERVICE_CAMPAIGN_SERVICE_HH
