/**
 * @file
 * Example: the chaos lab — the full reverse-engineering + end-to-end
 * PTE-attack pipeline under an escalating fault schedule.
 *
 * Each escalation step scales the default chaos mix (timing-noise
 * bursts + flip non-reproduction + allocator pressure) and reruns both
 * stages, reporting what the injector actually delivered, how many
 * retries and simulated-time backoffs the resilient consumers spent
 * absorbing it, and — when a stage finally gives up — the structured
 * failure code it reported instead of a crash or a silent wrong answer.
 *
 * The final scenario turns the chaos on the campaign *service*: a
 * supervised multi-process sweep where worker processes are SIGKILLed
 * mid-shard, retried with backoff, and the merged result is checked
 * bit-identical against an uninterrupted in-process run.
 *
 *   ./chaos_lab [seed]
 */

#include <unistd.h>

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "exploit/pte_attack.hh"
#include "fault/fault_injector.hh"
#include "hammer/tuned_configs.hh"
#include "revng/reverse_engineer.hh"
#include "service/campaign_service.hh"

using namespace rho;

namespace
{

void
runStage(double scale, std::uint64_t seed)
{
    Arch arch = Arch::RaptorLake;
    const DimmProfile &dimm = DimmProfile::byId("S4");

    FaultSchedule sched = FaultSchedule::chaosDefault().scaled(scale);
    FaultInjector inj(sched, hashCombine(seed, 99));

    std::printf("--- chaos x%.1f: %s\n", scale,
                scale == 0.0 ? "(fault-free baseline)"
                             : sched.describe().c_str());

    // Stage 1: reverse-engineer the DRAM address mapping.
    {
        MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S1")));
        sys.attachFaultInjector(&inj);
        BuddyAllocator buddy(sys.mapping().memBytes(), 0.02,
                             hashCombine(seed, 2));
        buddy.setFaultInjector(&inj);
        PhysPool pool(buddy, 0.70);
        TimingProbe probe(sys, hashCombine(seed, 3));

        MappingRecovery rec =
            RhoReverseEngineer(probe, pool, hashCombine(seed, 4)).run();
        if (rec.success) {
            std::printf("  re: recovered %zu bank fns, %zu row bits, "
                        "thres %.1f ns, %.1f s simulated%s\n",
                        rec.bankFns.size(), rec.rowBits.size(),
                        rec.thresholdNs, rec.simTimeNs / 1e9,
                        rec.matches(sys.mapping()) ? " (matches truth)"
                                                   : " (WRONG)");
        } else {
            std::printf("  re: FAILED honestly: %s [%s]\n",
                        rec.failureReason.c_str(),
                        failureCodeName(rec.code));
        }
        std::printf("  re: measurement %s\n",
                    rec.measureRetry.summary().c_str());
    }

    // Stage 2: end-to-end PTE attack (template -> massage -> re-hammer).
    {
        MemorySystem sys(SystemSpec(arch, dimm));
        sys.attachFaultInjector(&inj);
        BuddyAllocator buddy(sys.mapping().memBytes(), 0.02,
                             hashCombine(seed, 6));
        buddy.setFaultInjector(&inj);
        HammerSession session(sys, hashCombine(seed, 7));
        PageTableManager pt(sys, buddy);
        PteAttack attack(session, buddy, pt, hashCombine(seed, 8));

        PteAttackParams params;
        params.hammerCfg = rhoConfig(arch, false, 120000);
        params.regions = 3;

        PteAttackResult res = attack.run(params);
        if (res.success) {
            std::printf("  attack: SUCCESS — %u flips templated, PTE at "
                        "0x%llx corrupted, %.1f s simulated\n",
                        res.totalFlips,
                        (unsigned long long)res.corruptedPteAddr,
                        res.endToEndTimeNs / 1e9);
        } else {
            std::printf("  attack: FAILED honestly: %s [%s]\n",
                        res.failureReason.c_str(),
                        failureCodeName(res.code));
        }
        std::printf("  attack: templating %s\n",
                    res.templateRetry.summary().c_str());
        std::printf("  attack: massaging  %s\n",
                    res.massageRetry.summary().c_str());
        std::printf("  attack: re-hammer  %s\n",
                    res.rehammerRetry.summary().c_str());
    }

    std::printf("  faults delivered: %s\n", inj.stats().summary().c_str());
}

/** Digest of a SweepResult for the bit-identity check. */
std::uint64_t
sweepDigest(const rho::SweepResult &r)
{
    std::uint64_t h = hashCombine(r.totalFlips,
                                  std::uint64_t(r.simTimeNs * 1e3));
    for (auto f : r.flipsPerLocation)
        h = hashCombine(h, f);
    for (const auto &f : r.flipList) {
        h = hashCombine(h, f.bank);
        h = hashCombine(h, f.row);
        h = hashCombine(h, f.bitOffset);
    }
    return h;
}

/**
 * The supervisor scenario: shard a sweep campaign across worker
 * processes, SIGKILL a random worker mid-shard via the chaos channel,
 * and show the retry/backoff trail plus the bit-identity of the merged
 * result.
 */
void
runSupervisorScenario(std::uint64_t seed)
{
    using namespace rho::service;

    Arch arch = Arch::RaptorLake;
    const DimmProfile &dimm = DimmProfile::byId("S4");
    SystemSpec spec(arch, dimm);
    HammerConfig cfg = rhoConfig(arch, true);
    Rng prng(hashCombine(seed, 0xA77));
    HammerPattern pattern = HammerPattern::randomNonUniform(prng);

    SweepParams params;
    params.numLocations = 8;

    std::printf("--- supervisor chaos: SIGKILL workers mid-shard "
                "(P = 0.5 per launch)\n");
    FaultInjector faults(FaultSchedule::serviceChaos(0.5, 0.0, 0.0),
                         hashCombine(seed, 0x5E4));

    ServiceParams service;
    service.shards = 4;
    service.jobsPerWorker = 1;
    service.journalBase = "/tmp/rho_chaos_lab." +
                          std::to_string(::getpid());
    service.fsync = FsyncPolicy::Never; // chaos demo; speed over power
    service.supervisor.workers = 2;
    service.supervisor.retry.initialBackoffS = 0.01;
    service.supervisor.heartbeatTimeoutS = 5.0;
    service.faults = &faults;

    SweepServiceOutcome out =
        serviceSweepCampaign(spec, pattern, cfg, params, seed, service);
    removeServiceJournals(service.journalBase, service.shards);

    for (const auto &line : out.report.supervisor.log)
        if (line.find("launched") == std::string::npos)
            std::printf("  supervisor: %s\n", line.c_str());

    SweepResult ref = sweepCampaign(spec, pattern, cfg, params, seed);
    bool same = sweepDigest(ref) == sweepDigest(out.result);
    std::printf("  merged result (%llu flips) is %s the uninterrupted "
                "in-process run\n",
                (unsigned long long)out.result.totalFlips,
                same ? "bit-identical to" : "DIFFERENT from");
    std::printf("  faults delivered: %s\n",
                faults.stats().summary().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::uint64_t seed =
        argc > 1 ? bench::parseUnsigned("seed", argv[1], UINT64_MAX, 0)
                 : 7777;
    std::printf("chaos lab: RE + PTE attack under escalating faults "
                "(seed %llu)\n",
                (unsigned long long)seed);

    for (double scale : {0.0, 0.5, 1.0, 2.0})
        runStage(scale, seed);

    runSupervisorScenario(seed);

    std::printf("done — every stage either succeeded or reported a "
                "structured failure code; nothing crashed.\n");
    return 0;
}
