/**
 * @file
 * The crash-safe multi-process campaign supervisor.
 *
 * The supervisor owns a set of shards (shard.hh) and drives each to
 * completion with worker *processes*, so a worker that is SIGKILLed
 * (OOM killer, chaos testing, operator) or wedges in an infinite loop
 * cannot take the campaign down:
 *
 *  - workers are forked (body mode, for tests and in-binary services)
 *    or fork+exec'd (exec mode, for a separate worker entry point);
 *  - liveness is judged purely from the shard journal: any change
 *    of its byte size is a heartbeat. No pipes, no signals-from-child
 *    — a dead worker's journal is still readable;
 *  - a worker silent past `heartbeatTimeoutS`, or alive past
 *    `shardDeadlineS`, is SIGKILLed and counted as a hang;
 *  - failed shards retry under a bounded exponential backoff
 *    (retry_policy.hh); the shard journal makes every retry resume
 *    where the previous attempt died;
 *  - repeated *signal* deaths (the OOM-killer signature) shed
 *    concurrency: every second signal death halves the worker-slot
 *    count, down to one slot, trading throughput for survival;
 *  - a shard that exhausts its retry budget is quarantined and
 *    reported via FailureCode::ShardQuarantined — the campaign
 *    completes degraded instead of aborting.
 *
 * The supervisor is single-threaded: one poll loop launches, reaps,
 * and kills. Determinism note: scheduling order never affects merged
 * campaign results (tasks are pure functions of the campaign seed);
 * only the supervisor log varies with timing.
 */

#ifndef RHO_SERVICE_SUPERVISOR_HH
#define RHO_SERVICE_SUPERVISOR_HH

#include <functional>
#include <string>
#include <vector>

#include "service/retry_policy.hh"
#include "service/shard.hh"

namespace rho::service
{

/**
 * Deterministic fault plan for one worker attempt, decided by the
 * supervisor *before* the fork (so it is reproducible from the chaos
 * seed regardless of scheduling). Executed inside the worker by the
 * campaign service's journal hooks.
 */
struct WorkerChaos
{
    /** After this many journal records, raise(SIGKILL). 0 = never. */
    unsigned crashAfterRecords = 0;
    /** After this many journal records, spin forever. 0 = never. */
    unsigned hangAfterRecords = 0;

    bool
    any() const
    {
        return crashAfterRecords != 0 || hangAfterRecords != 0;
    }
};

/** Worker body run in the forked child; its return is the exit code. */
using WorkerBody = std::function<int(const ShardSpec &shard,
                                     unsigned attempt,
                                     const WorkerChaos &chaos)>;

/** Builds the argv for an exec-mode worker (argv[0] = binary path). */
using WorkerArgv = std::function<std::vector<std::string>(
    const ShardSpec &shard, unsigned attempt, const WorkerChaos &chaos)>;

/** Supervisor tuning knobs. */
struct SupervisorConfig
{
    unsigned workers = 2; //!< concurrent worker processes
    RetryPolicy retry{};

    /** Kill a worker with no journal growth for this long (seconds). */
    double heartbeatTimeoutS = 10.0;
    /** Kill a worker attempt that outlives this wall-clock budget. */
    double shardDeadlineS = 120.0;

    /** Optional chaos plan per (shard, attempt); null = no chaos. */
    std::function<WorkerChaos(const ShardSpec &, unsigned attempt)> chaos;
};

/** Outcome of one supervised run over a shard set. */
struct SupervisorResult
{
    std::vector<ShardReport> shards;
    std::vector<std::string> log; //!< timestamped supervisor events

    unsigned crashes = 0; //!< abnormal worker exits (all shards)
    unsigned hangs = 0;   //!< supervisor-initiated SIGKILLs
    unsigned quarantined = 0;
    unsigned peakWorkers = 0;  //!< slots at launch
    unsigned finalWorkers = 0; //!< slots after any shedding

    /** True when every shard completed (nothing quarantined). */
    bool
    complete() const
    {
        return quarantined == 0;
    }
};

/** The single-threaded fork/poll/reap supervisor loop. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorConfig cfg);

    /**
     * Drive all shards to Done or Quarantined, running `body` in a
     * forked child per attempt (the child calls _exit with the body's
     * return value and never returns to the caller's stack).
     */
    SupervisorResult run(const std::vector<ShardSpec> &shards,
                         const WorkerBody &body);

    /**
     * Exec-mode variant: fork + execv the argv that `argv_builder`
     * returns, one process per attempt. Used by the campaign-service
     * example's `--worker` entry point.
     */
    SupervisorResult runExec(const std::vector<ShardSpec> &shards,
                             const WorkerArgv &argv_builder);

  private:
    struct Slot; // per-shard supervision state

    using Launcher = std::function<int(const ShardSpec &, unsigned attempt,
                                       const WorkerChaos &)>;

    SupervisorResult supervise(const std::vector<ShardSpec> &shards,
                               const Launcher &launch);

    SupervisorConfig cfg;
};

} // namespace rho::service

#endif // RHO_SERVICE_SUPERVISOR_HH
