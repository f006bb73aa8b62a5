#include "service/supervisor.hh"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/table.hh"

namespace rho::service
{

namespace
{

/** Poll-loop sleep between supervision passes (seconds). */
constexpr double kPollIntervalS = 0.002;

/**
 * Halve the worker-slot count (down to one slot) after this many
 * signal deaths since the last shed. Supervisor-initiated hang kills
 * are excluded — they signal a wedged worker, not memory pressure.
 */
constexpr unsigned kShedAfterSignalDeaths = 2;

double
monotonicNow()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

void
sleepFor(double seconds)
{
    if (seconds <= 0.0)
        return;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(seconds);
    ts.tv_nsec = static_cast<long>((seconds - ts.tv_sec) * 1e9);
    nanosleep(&ts, nullptr);
}

/** Byte size of `path`, or 0 when it does not exist (yet). */
long long
fileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<long long>(st.st_size);
}

std::string
exitDescription(int wait_status)
{
    if (WIFEXITED(wait_status))
        return strFormat("exit %d", WEXITSTATUS(wait_status));
    if (WIFSIGNALED(wait_status))
        return strFormat("signal %d", WTERMSIG(wait_status));
    return strFormat("status 0x%x", wait_status);
}

} // namespace

/** Per-shard supervision state for the poll loop. */
struct Supervisor::Slot
{
    ShardReport report;
    int pid = -1;
    double launchedAt = 0.0;
    double notBefore = 0.0; //!< earliest next launch (backoff)
    double lastProgressAt = 0.0;
    long long lastProgressBytes = -1;
    bool killedForHang = false; //!< pending reap is a supervisor kill
};

Supervisor::Supervisor(SupervisorConfig cfg_) : cfg(std::move(cfg_))
{
    if (cfg.workers == 0)
        cfg.workers = 1;
}

SupervisorResult
Supervisor::run(const std::vector<ShardSpec> &shards, const WorkerBody &body)
{
    Launcher launch = [&body](const ShardSpec &shard, unsigned attempt,
                              const WorkerChaos &chaos) -> int {
        int pid = ::fork();
        if (pid < 0)
            fatal("supervisor: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            // Child: run the body and leave without unwinding the
            // parent's stack (no destructors, no atexit handlers —
            // the journal fsyncs as it goes).
            int code = 1;
            try {
                code = body(shard, attempt, chaos);
            } catch (...) {
                code = 1;
            }
            ::_exit(code);
        }
        return pid;
    };
    return supervise(shards, launch);
}

SupervisorResult
Supervisor::runExec(const std::vector<ShardSpec> &shards,
                    const WorkerArgv &argv_builder)
{
    Launcher launch = [&argv_builder](const ShardSpec &shard,
                                      unsigned attempt,
                                      const WorkerChaos &chaos) -> int {
        std::vector<std::string> args = argv_builder(shard, attempt, chaos);
        if (args.empty())
            fatal("supervisor: exec argv builder returned no argv[0]");
        int pid = ::fork();
        if (pid < 0)
            fatal("supervisor: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (auto &a : args)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::fprintf(stderr, "supervisor worker: execv %s: %s\n",
                         argv[0], std::strerror(errno));
            ::_exit(127);
        }
        return pid;
    };
    return supervise(shards, launch);
}

SupervisorResult
Supervisor::supervise(const std::vector<ShardSpec> &shards,
                      const Launcher &launch)
{
    SupervisorResult result;
    std::vector<std::string> &log = result.log;
    std::vector<Slot> slots(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i)
        slots[i].report.spec = shards[i];

    unsigned concurrency = cfg.workers;
    unsigned signalDeaths = 0; //!< since the last shed
    result.peakWorkers = concurrency;
    log.push_back(strFormat("starting: %zu shard(s), %u worker slot(s)",
                            shards.size(), concurrency));

    for (;;) {
        double now = monotonicNow();
        unsigned running = 0, pending = 0;
        for (auto &slot : slots) {
            if (slot.report.state == ShardState::Running)
                ++running;
            else if (slot.report.state == ShardState::Pending)
                ++pending;
        }
        if (running == 0 && pending == 0)
            break;

        // Launch pending shards whose backoff delay has elapsed.
        for (auto &slot : slots) {
            if (running >= concurrency)
                break;
            if (slot.report.state != ShardState::Pending ||
                now < slot.notBefore) {
                continue;
            }
            unsigned attempt = slot.report.attempts + 1;
            WorkerChaos chaos;
            if (cfg.chaos)
                chaos = cfg.chaos(slot.report.spec, attempt);
            slot.pid = launch(slot.report.spec, attempt, chaos);
            slot.report.attempts = attempt;
            slot.report.state = ShardState::Running;
            slot.launchedAt = now;
            slot.lastProgressAt = now;
            slot.lastProgressBytes = -1;
            slot.killedForHang = false;
            ++running;
            log.push_back(strFormat("shard %u attempt %u: launched pid %d"
                                    " (tasks [%u, %u))",
                                    slot.report.spec.id, attempt, slot.pid,
                                    slot.report.spec.firstTask,
                                    slot.report.spec.firstTask +
                                        slot.report.spec.taskCount));
        }

        // Reap exits and police heartbeats/deadlines.
        bool reapedAny = false;
        for (auto &slot : slots) {
            if (slot.report.state != ShardState::Running)
                continue;
            int status = 0;
            int reaped = ::waitpid(slot.pid, &status, WNOHANG);
            if (reaped == slot.pid) {
                reapedAny = true;
                if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                    slot.report.state = ShardState::Done;
                    log.push_back(strFormat("shard %u attempt %u: done",
                                            slot.report.spec.id,
                                            slot.report.attempts));
                    continue;
                }

                // Abnormal exit: crash or our own hang kill.
                ++slot.report.crashes;
                ++result.crashes;
                bool hang = slot.killedForHang;
                if (hang) {
                    ++slot.report.hangs;
                    ++result.hangs;
                    slot.report.lastFailure = FailureCode::WorkerHung;
                } else {
                    slot.report.lastFailure = FailureCode::WorkerCrashed;
                    if (WIFSIGNALED(status))
                        ++signalDeaths;
                }
                slot.report.detail = exitDescription(status) +
                                     (hang ? " (hang kill)" : "");
                log.push_back(strFormat("shard %u attempt %u: %s",
                                        slot.report.spec.id,
                                        slot.report.attempts,
                                        slot.report.detail.c_str()));

                // Graceful degradation: repeated signal deaths look
                // like memory pressure — shed worker slots.
                if (signalDeaths >= kShedAfterSignalDeaths &&
                    concurrency > 1) {
                    concurrency /= 2;
                    signalDeaths = 0;
                    log.push_back(strFormat("shedding concurrency to %u worker"
                                            " slot(s) after repeated signal"
                                            " deaths",
                                            concurrency));
                }

                unsigned next = slot.report.attempts + 1;
                if (cfg.retry.allows(next)) {
                    double delay = cfg.retry.delayForAttempt(next);
                    slot.report.state = ShardState::Pending;
                    slot.notBefore = monotonicNow() + delay;
                    log.push_back(strFormat("shard %u: retrying as attempt %u"
                                            " after %.3fs backoff",
                                            slot.report.spec.id, next, delay));
                } else {
                    slot.report.state = ShardState::Quarantined;
                    slot.report.code = FailureCode::ShardQuarantined;
                    ++result.quarantined;
                    log.push_back(strFormat("shard %u: quarantined after %u"
                                            " attempt(s) (%s)",
                                            slot.report.spec.id,
                                            slot.report.attempts,
                                            failureCodeName(
                                                slot.report.lastFailure)));
                }
                continue;
            }

            // Still running: any journal byte-size change is a
            // heartbeat.
            long long bytes = fileSize(slot.report.spec.journalPath);
            if (bytes != slot.lastProgressBytes) {
                slot.lastProgressBytes = bytes;
                slot.lastProgressAt = now;
            }
            bool heartbeatLost = cfg.heartbeatTimeoutS > 0.0 &&
                now - slot.lastProgressAt > cfg.heartbeatTimeoutS;
            bool pastDeadline = cfg.shardDeadlineS > 0.0 &&
                now - slot.launchedAt > cfg.shardDeadlineS;
            if ((heartbeatLost || pastDeadline) && !slot.killedForHang) {
                slot.killedForHang = true;
                log.push_back(strFormat("shard %u attempt %u: %s — SIGKILL"
                                        " pid %d",
                                        slot.report.spec.id,
                                        slot.report.attempts,
                                        heartbeatLost ? "heartbeat lost"
                                                      : "deadline exceeded",
                                        slot.pid));
                ::kill(slot.pid, SIGKILL);
            }
        }

        // A reap frees a slot or ends the run: go straight to the next
        // pass. A pass without one sleeps, so backoff delays never
        // busy-spin.
        if (!reapedAny)
            sleepFor(kPollIntervalS);
    }

    result.finalWorkers = concurrency;
    for (auto &slot : slots)
        result.shards.push_back(slot.report);
    log.push_back(strFormat("finished: %u crash(es), %u hang(s), %u"
                            " quarantined, %u worker slot(s) remaining",
                            result.crashes, result.hangs, result.quarantined,
                            result.finalWorkers));
    return result;
}

} // namespace rho::service
