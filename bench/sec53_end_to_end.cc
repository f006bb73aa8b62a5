/**
 * @file
 * Section 5.3: end-to-end PTE-corruption attack statistics on the two
 * newest platforms — templated/exploitable flips, templating time and
 * end-to-end runtime over independent trials.
 */

#include "bench_util.hh"
#include "exploit/pte_attack.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

int
main()
{
    bench::banner("Sec. 5.3",
                  "end-to-end PTE corruption on Alder/Raptor Lake "
                  "(DIMM S4), 5 independent trials each");

    unsigned trials = static_cast<unsigned>(
        std::max<std::uint64_t>(2, bench::scaled(5)));

    TextTable table({"arch", "trial", "flips", "exploitable",
                     "templating", "end-to-end", "result"});

    for (Arch arch : {Arch::AlderLake, Arch::RaptorLake}) {
        unsigned successes = 0;
        double min_t = 1e30, max_t = 0, sum_t = 0;
        RetryStats tmpl_retry, massage_retry, rehammer_retry;
        for (unsigned i = 0; i < trials; ++i) {
            // Decorrelate the per-component RNG streams: giving every
            // component the same trial seed makes the DIMM's weak-cell
            // placement, the allocator holes and the hammer patterns
            // move in lockstep across trials.
            std::uint64_t trial_seed =
                hashCombine(static_cast<std::uint64_t>(arch) * 1000 + 30,
                            i);
            MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S4")));
            BuddyAllocator buddy(sys.mapping().memBytes(), 0.02,
                                 hashCombine(trial_seed, 2));
            HammerSession session(sys, hashCombine(trial_seed, 3));
            PageTableManager pt(sys, buddy);
            PteAttack attack(session, buddy, pt,
                             hashCombine(trial_seed, 4));

            PteAttackParams params;
            params.hammerCfg =
                rhoConfig(arch, false, bench::scaled(120000));
            params.regions = 3;
            auto res = attack.run(params);

            table.addRow({archName(arch), std::to_string(i + 1),
                          std::to_string(res.totalFlips),
                          std::to_string(res.exploitableFlips),
                          strFormat("%.1fs", res.templatingTimeNs / 1e9),
                          strFormat("%.1fs", res.endToEndTimeNs / 1e9),
                          res.success ? "page-table R/W"
                                      : res.failureReason});
            successes += res.success;
            tmpl_retry += res.templateRetry;
            massage_retry += res.massageRetry;
            rehammer_retry += res.rehammerRetry;
            if (res.success) {
                min_t = std::min(min_t, res.endToEndTimeNs / 1e9);
                max_t = std::max(max_t, res.endToEndTimeNs / 1e9);
                sum_t += res.endToEndTimeNs / 1e9;
            }
        }
        std::printf("%s: %u/%u trials gained page-table read/write",
                    archName(arch).c_str(), successes, trials);
        if (successes) {
            std::printf(" (avg %.1fs, min %.1fs, max %.1fs)",
                        sum_t / successes, min_t, max_t);
        }
        std::printf("\n  retries: templating [%s]\n"
                    "           massaging  [%s]\n"
                    "           re-hammer  [%s]\n",
                    tmpl_retry.summary().c_str(),
                    massage_retry.summary().c_str(),
                    rehammer_retry.summary().c_str());
    }
    std::printf("\n");
    table.print();
    std::puts("\nShape: a practical fraction of templated flips is "
              "PTE-exploitable (bits 12-19 of an aligned word), and "
              "massaging + re-hammering yields page-table control in "
              "simulated minutes.");
    return 0;
}
