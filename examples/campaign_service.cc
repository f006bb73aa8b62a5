/**
 * @file
 * Example: the campaign service — a sweep campaign sharded across
 * supervised worker processes, surviving SIGKILLs, hangs and journal
 * bit-rot with a bit-identical merged result.
 *
 * Usage: campaign_service [arch] [dimm] [options]
 *   --locations N    sweep locations = campaign tasks     (default 12)
 *   --shards N       worker shards                        (default 4)
 *   --workers N      concurrent worker processes          (default 2)
 *   --jobs N         threads inside each worker           (default 1)
 *   --journal BASE   journal path prefix; a run over the same BASE
 *                    resumes from its journals (default
 *                    /tmp/rho_svc.<pid>, removed after the run)
 *   --exec           fork+exec workers through this binary's --worker
 *                    entry instead of forked body-mode workers
 *   --chaos-kill P   P(worker launch is SIGKILLed mid-shard)
 *   --chaos-hang P   P(worker launch wedges; heartbeat kill)
 *   --bit-rot P      P(a journal record is written with a rotted bit)
 *   --seed S         campaign seed                        (default 42)
 *   --verify         also run the campaign uninterrupted in-process
 *                    and report whether the merged result is identical
 *   --log            print the supervisor event log
 *
 * Counts must be integers (locations, shards and workers at least 1),
 * probabilities numbers in [0, 1]; malformed input, an unknown arch,
 * DIMM or flag, or a third positional argument exits with status 2.
 *
 * The internal `--worker` entry is what --exec launches; it re-derives
 * the campaign deterministically from its arguments and runs exactly
 * one shard attempt. It exits with status 2 on a malformed operand, a
 * shard that does not fit in the locations, or more than 1024 jobs.
 */

#include <unistd.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "hammer/tuned_configs.hh"
#include "service/campaign_service.hh"

using namespace rho;
using namespace rho::service;

namespace
{

/** `v`, the value of `what`, as an unsigned int (0 allowed). */
unsigned
parseUint(const std::string &what, const char *v)
{
    return static_cast<unsigned>(bench::parseUnsigned(what, v, UINT_MAX));
}

/** `v`, the value of `what`, as a count of at least 1. */
unsigned
parseCount(const std::string &what, const char *v)
{
    unsigned n = parseUint(what, v);
    if (n == 0)
        bench::usageError(what + " 0: expected at least 1");
    return n;
}

/** `v`, the value of `what`, as a probability in [0, 1]. */
double
parseProbability(const std::string &what, const char *v)
{
    char *end = nullptr;
    double p = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(p) || p < 0.0
        || p > 1.0)
        bench::usageError(what + " " + v
                          + ": expected a probability in [0, 1]");
    return p;
}

/** A seed: decimal, 0x hexadecimal or 0-prefixed octal (strtoull base 0). */
std::uint64_t
parseSeed(const std::string &what, const char *v)
{
    return bench::parseUnsigned(what, v, UINT64_MAX, 0);
}

/** The campaign is a pure function of (arch, dimm, seed): both the
 *  parent and exec-mode workers rebuild it from these three values. */
struct Scenario
{
    SystemSpec spec;
    HammerConfig cfg;
    HammerPattern pattern;

    Scenario(Arch arch, const char *dimm, std::uint64_t seed)
        : spec(arch, DimmProfile::byId(dimm)),
          cfg(rhoConfig(arch, true)),
          pattern(makePattern(seed))
    {
    }

    static HammerPattern
    makePattern(std::uint64_t seed)
    {
        Rng rng(hashCombine(seed, 0xA77));
        return HammerPattern::randomNonUniform(rng);
    }
};

/** Order-sensitive digest of everything a SweepResult carries. */
std::uint64_t
sweepDigest(const SweepResult &r)
{
    std::uint64_t h = hashCombine(r.totalFlips,
                                  std::uint64_t(r.simTimeNs * 1e3));
    for (auto f : r.flipsPerLocation)
        h = hashCombine(h, f);
    for (auto t : r.cumulativeTimeNs)
        h = hashCombine(h, std::uint64_t(t * 1e3));
    for (const auto &f : r.flipList) {
        h = hashCombine(h, f.bank);
        h = hashCombine(h, f.row);
        h = hashCombine(h, f.bitOffset);
        h = hashCombine(h, std::uint64_t(f.toOne));
        h = hashCombine(h, std::uint64_t(f.when * 1e3));
    }
    return h;
}

/** Exec-mode worker entry: one shard attempt, then exit. */
int
workerMain(int argc, char **argv)
{
    // --worker <arch> <dimm> <locations> <jobs> <seed> <shard> <first>
    //          <count> <journal> <attempt> <crash-after> <hang-after>
    //          <rot-prob> <chaos-seed>
    if (argc != 16)
        bench::usageError(strFormat("--worker: expected 14 operands, got %d",
                                    argc - 2));
    char **a = argv + 2;
    Arch arch = bench::parseArch(a[0]);
    const char *dimm = bench::parseDimm(a[1]);
    unsigned locations = parseCount("--worker locations", a[2]);
    unsigned jobs = unsigned(bench::parseUnsigned("--worker jobs", a[3],
                                                  bench::maxJobs));
    std::uint64_t seed = parseSeed("--worker seed", a[4]);

    ShardSpec shard;
    shard.id = parseUint("--worker shard", a[5]);
    shard.firstTask = parseUint("--worker first", a[6]);
    shard.taskCount = parseUint("--worker count", a[7]);
    if (shard.firstTask > locations
        || shard.taskCount > locations - shard.firstTask)
        bench::usageError(strFormat("--worker shard [%u, +%u) lies outside"
                                    " the %u location(s)",
                                    shard.firstTask, shard.taskCount,
                                    locations));
    shard.journalPath = a[8];
    unsigned attempt = parseCount("--worker attempt", a[9]);

    WorkerChaos chaos;
    chaos.crashAfterRecords = parseUint("--worker crash-after", a[10]);
    chaos.hangAfterRecords = parseUint("--worker hang-after", a[11]);
    double rotProb = parseProbability("--worker rot-prob", a[12]);
    std::uint64_t chaosSeed = parseSeed("--worker chaos-seed", a[13]);

    Scenario sc(arch, dimm, seed);
    SweepParams params;
    params.numLocations = locations;
    params.jobs = jobs;

    // Self-inflicted journal bit-rot (chaos does not cross the exec
    // boundary, so the worker owns its own injector).
    FaultInjector rot(FaultSchedule::serviceChaos(0.0, 0.0, rotProb),
                      hashCombine(chaosSeed,
                                  shard.id * 1000ull + attempt));
    if (rotProb > 0.0) {
        params.journal.bitRot = [&rot](std::size_t num_bits) {
            return rot.journalBitRot(num_bits);
        };
    }
    return runSweepShardWorker(sc.spec, sc.pattern, sc.cfg, params, seed,
                               shard, chaos);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    if (argc > 1 && !std::strcmp(argv[1], "--worker"))
        return workerMain(argc, argv);

    Arch arch = Arch::RaptorLake;
    const char *dimm = "S4";
    unsigned locations = 12, shards = 4, workers = 2, jobs = 1;
    double chaosKill = 0.0, chaosHang = 0.0, bitRot = 0.0;
    std::uint64_t seed = 42;
    bool execMode = false, verify = false, showLog = false;
    std::string journalBase;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc)
                bench::usageError(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(flag, "--locations"))
            locations = parseCount(flag, val());
        else if (!std::strcmp(flag, "--shards"))
            shards = parseCount(flag, val());
        else if (!std::strcmp(flag, "--workers"))
            workers = parseCount(flag, val());
        else if (!std::strcmp(flag, "--jobs"))
            jobs = unsigned(bench::parseUnsigned(flag, val(),
                                                 bench::maxJobs));
        else if (!std::strcmp(flag, "--journal"))
            journalBase = val();
        else if (!std::strcmp(flag, "--chaos-kill"))
            chaosKill = parseProbability(flag, val());
        else if (!std::strcmp(flag, "--chaos-hang"))
            chaosHang = parseProbability(flag, val());
        else if (!std::strcmp(flag, "--bit-rot"))
            bitRot = parseProbability(flag, val());
        else if (!std::strcmp(flag, "--seed"))
            seed = parseSeed(flag, val());
        else if (!std::strcmp(flag, "--exec"))
            execMode = true;
        else if (!std::strcmp(flag, "--verify"))
            verify = true;
        else if (!std::strcmp(flag, "--log"))
            showLog = true;
        else if (flag[0] == '-')
            bench::usageError(std::string("unknown flag ") + flag);
        else if (positional == 0)
            arch = bench::parseArch(flag), ++positional;
        else if (positional == 1)
            dimm = bench::parseDimm(flag), ++positional;
        else
            bench::usageError(std::string("unexpected argument ") + flag);
    }

    // The default journal is private to this process: no later run can
    // resume from it, so it is removed once the merge has read it.
    bool tempJournal = journalBase.empty();
    if (tempJournal)
        journalBase = "/tmp/rho_svc." + std::to_string(::getpid());

    Scenario sc(arch, dimm, seed);
    SweepParams params;
    params.numLocations = locations;

    std::printf("campaign service: %s + DIMM %s, %u locations over %u "
                "shard(s), %u worker slot(s)%s\n",
                archName(arch).c_str(), dimm, locations, shards, workers,
                execMode ? " (exec mode)" : "");
    if (chaosKill > 0.0 || chaosHang > 0.0 || bitRot > 0.0)
        std::printf("chaos: P(kill)=%.2f P(hang)=%.2f P(bit-rot)=%.2f\n",
                    chaosKill, chaosHang, bitRot);

    FaultInjector faults(
        FaultSchedule::serviceChaos(chaosKill, chaosHang, bitRot),
        hashCombine(seed, 0xC4A5));

    ServiceParams service;
    service.shards = shards;
    service.jobsPerWorker = jobs;
    service.journalBase = journalBase;
    service.supervisor.workers = workers;
    service.supervisor.heartbeatTimeoutS = 5.0;
    service.supervisor.shardDeadlineS = 60.0;
    if (chaosKill > 0.0 || chaosHang > 0.0 || bitRot > 0.0)
        service.faults = &faults;

    std::string self = argv[0];
    if (execMode) {
        // Chaos plans still come from the parent's injector (via the
        // supervisor hook the service installs); the argv carries them
        // across the exec boundary.
        service.execArgv = [&](const ShardSpec &shard, unsigned attempt,
                               const WorkerChaos &chaos) {
            return std::vector<std::string>{
                self, "--worker", bench::archArg(arch), dimm,
                std::to_string(locations), std::to_string(jobs),
                std::to_string(seed), std::to_string(shard.id),
                std::to_string(shard.firstTask),
                std::to_string(shard.taskCount), shard.journalPath,
                std::to_string(attempt),
                std::to_string(chaos.crashAfterRecords),
                std::to_string(chaos.hangAfterRecords),
                std::to_string(bitRot),
                std::to_string(hashCombine(seed, 0xC4A5)),
            };
        };
    }

    SweepServiceOutcome out =
        serviceSweepCampaign(sc.spec, sc.pattern, sc.cfg, params, seed,
                             service);
    if (tempJournal)
        removeServiceJournals(journalBase, shards);

    if (showLog) {
        std::printf("\nsupervisor log:\n");
        for (const auto &line : out.report.supervisor.log)
            std::printf("  %s\n", line.c_str());
    }

    const SupervisorResult &sup = out.report.supervisor;
    std::printf("\nsupervision: %u crash(es), %u hang kill(s), %u "
                "quarantined, %u->%u worker slot(s)\n",
                sup.crashes, sup.hangs, sup.quarantined, sup.peakWorkers,
                sup.finalWorkers);
    std::printf("merge: %u task(s) replayed from worker journals, %u "
                "re-executed in the parent\n",
                out.report.tasksFromWorkers, out.report.tasksReexecuted);
    std::printf("result: %llu flips over %u location(s), %.1f s "
                "simulated [%s]\n",
                (unsigned long long)out.result.totalFlips,
                unsigned(out.result.flipsPerLocation.size()),
                out.result.simTimeNs / 1e9,
                failureCodeName(out.report.code));

    if (verify) {
        SweepParams clean = params;
        SweepResult ref = sweepCampaign(sc.spec, sc.pattern, sc.cfg,
                                        clean, seed);
        bool same = sweepDigest(ref) == sweepDigest(out.result);
        if (out.report.code == FailureCode::ShardQuarantined) {
            std::printf("verify: skipped digest match — result is "
                        "degraded (quarantined shard)\n");
        } else {
            std::printf("verify: merged result is %s the uninterrupted "
                        "in-process run\n",
                        same ? "IDENTICAL to" : "DIFFERENT from");
            if (!same)
                return 1;
        }
    }
    return 0;
}
