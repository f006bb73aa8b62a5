/**
 * @file
 * Section 6 ("Towards Future Research on DDR5"): mitigation
 * effectiveness on the DDR5 sample DIMM. Three pattern classes —
 * classic uniform double-sided hammering, blind fuzzed non-uniform
 * patterns, and the evolutionary frequency-domain search — run against
 * the mitigation frontier (TRR-only baseline, RFM levels, PRAC
 * thresholds, RFM+PRAC), reporting flips, flips per simulated minute,
 * and how hard each mitigation had to work.
 *
 * The second table is the bypass boundary: blind sampler vs evolved
 * search at an equal trial budget per config, with the evolved
 * learning curve and a per-config verdict (open / evo-only /
 * blind-only / sealed). The evolved search sharpens the boundary: it
 * finds flips blind sampling misses on the leaky configs while the
 * provisioned defenses stay sealed.
 *
 * Expected shape: non-uniform fuzzing bypasses the TRR-only baseline
 * and the deliberately under-provisioned prac-weak config, relaxed RFM
 * (RAAIMT 64) leaks a trickle, while RFM at RAAIMT <= 32 and
 * provisioned PRAC yield zero flips in every class — the paper's
 * observation that no effective pattern exists on correctly configured
 * DDR5 setups.
 *
 * Flags: --jobs N (worker threads), --seed N (campaign seed, default
 * 7; CI runs several seeds to check the boundary is not a sampling
 * artifact).
 */

#include "bench_util.hh"
#include "common/parallel.hh"
#include "hammer/bypass_search.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

int
main(int argc, char **argv)
{
    bench::banner("Sec. 6",
                  "DDR5 mitigation frontier: flips per config x "
                  "pattern class");
    unsigned jobs = bench::parseJobs(argc, argv);
    bench::announceJobs(jobs);
    const std::uint64_t seed = bench::parseFlag(argc, argv, "--seed", 7);

    const Arch arch = Arch::RaptorLake;
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const std::uint64_t budget = bench::scaled(200000);
    const HammerConfig cfg = rhoConfig(arch, true, budget);

    // Uniform class: one double-sided pattern swept over locations.
    SweepParams uniform_params;
    uniform_params.numLocations =
        static_cast<unsigned>(bench::scaled(6));
    uniform_params.jobs = jobs;
    HammerPattern uniform = HammerPattern::doubleSided();

    // Evolved class sizing; the blind class gets the same trial
    // budget (populationSize * generations patterns) so the boundary
    // table compares search strategies, not sample counts.
    BypassParams evolved_params;
    evolved_params.engine = BypassEngine::Evolved;
    evolved_params.evo.populationSize = 6;
    evolved_params.evo.generations = std::max<unsigned>(
        2, static_cast<unsigned>(bench::scaled(4)));
    evolved_params.evo.locationsPerPattern = 2;
    evolved_params.evo.jobs = jobs;
    evolved_params.seed = seed;

    BypassParams blind_params;
    blind_params.fuzz.numPatterns = evolved_params.evo.trialBudget();
    blind_params.fuzz.locationsPerPattern = 2;
    blind_params.fuzz.jobs = jobs;
    blind_params.seed = seed;

    auto frontier = mitigationFrontier();
    BypassReport fuzzed = bypassSearch(arch, d1, cfg, frontier,
                                       blind_params);
    BypassReport evolved = bypassSearch(arch, d1, cfg, frontier,
                                        evolved_params);

    TextTable table({"config", "uni flips", "uni f/min", "fuzz flips",
                     "fuzz f/min", "RFMs", "alerts", "bypassed"});
    unsigned bypassed_configs = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const MitigationConfig &mit = frontier[i];
        SystemSpec spec(arch, d1, mit.trr, mit.rfm);
        spec.prac = mit.prac;

        SweepResult uni = sweepCampaign(spec, uniform, cfg,
                                        uniform_params, 13);
        const BypassConfigResult &fz = fuzzed.configs[i];
        bool bypassed = fz.bypassed || uni.totalFlips > 0;
        bypassed_configs += bypassed ? 1 : 0;
        table.addRow({
            mit.name,
            strFormat("%llu", (unsigned long long)uni.totalFlips),
            strFormat("%.1f", uni.flipsPerMinute()),
            strFormat("%llu", (unsigned long long)fz.fuzz.totalFlips),
            strFormat("%.1f", fz.flipsPerMinute),
            strFormat("%llu", (unsigned long long)fz.rfmCommands),
            strFormat("%llu", (unsigned long long)fz.pracAlerts),
            bypassed ? "YES" : "no",
        });
    }
    table.print();
    std::printf("\n%u of %zu configs bypassed\n\n", bypassed_configs,
                frontier.size());

    std::printf("Bypass boundary (blind vs evolved, %u trials per "
                "config, seed %llu):\n",
                evolved_params.evo.trialBudget(),
                (unsigned long long)seed);
    std::fputs(renderBypassBoundary(fuzzed, evolved).c_str(), stdout);
    std::printf("\nevolved bypassed %u of %zu configs (blind: %u)\n\n",
                evolved.bypassedCount(), frontier.size(),
                fuzzed.bypassedCount());

    std::puts("Shape: trr-only and prac-weak leak under fuzzing; "
              "rfm-relaxed (RAAIMT 64) leaks a trickle; RFM at "
              "RAAIMT <= 32 and provisioned PRAC show 0 flips at "
              "non-zero RFM/alert activity. Both engines agree on "
              "every open/sealed verdict, and the evolved curve rises "
              "across generations on the open configs; with a deeper "
              "generation budget the evolved best overtakes blind "
              "sampling (pinned in tests/test_evo.cc).");
    return 0;
}
