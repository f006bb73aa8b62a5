/**
 * @file
 * Table 6: bit flip counts (total, best pattern) during fuzzing on
 * all platforms, for baseline/rhoHammer x single-bank/multi-bank,
 * over all seven DIMMs. Scaled-down version of the paper's 2-hour
 * campaigns, fanned out over the parallel campaign engine
 * (`--jobs N`; results are bit-identical for any job count).
 */

#include "bench_util.hh"
#include "common/parallel.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

int
main(int argc, char **argv)
{
    bench::banner("Tab. 6",
                  "fuzzing flips (total, best pattern): BL/rho x S/M "
                  "per DIMM and arch");
    unsigned jobs = bench::parseJobs(argc, argv);
    bench::announceJobs(jobs);

    FuzzParams params;
    params.numPatterns = static_cast<unsigned>(bench::scaled(8));
    params.locationsPerPattern = 2;
    params.jobs = jobs;
    std::uint64_t budget = bench::scaled(380000);

    ParallelStats total_stats;
    total_stats.jobs = resolveJobs(jobs);
    for (Arch arch : allArchs) {
        TextTable table({"DIMM", "BL-S", "BL-M", "rho-S", "rho-M"});
        for (const DimmProfile *dimm : DimmProfile::all()) {
            std::vector<std::string> row = {dimm->id};
            for (int mode = 0; mode < 4; ++mode) {
                bool rho = mode >= 2;
                bool multi = mode & 1;
                SystemSpec spec(arch, *dimm);
                HammerConfig cfg = rho
                    ? rhoConfig(arch, multi, budget)
                    : baselineConfig(arch, multi, budget);
                ParallelStats stats;
                auto res = fuzzCampaign(spec, cfg, params, 20, &stats);
                total_stats.tasksRun += stats.tasksRun;
                total_stats.wallNs += stats.wallNs;
                total_stats.simNs += stats.simNs;
                row.push_back(strFormat(
                    "%llu, %llu",
                    (unsigned long long)res.totalFlips,
                    (unsigned long long)res.bestPatternFlips));
            }
            table.addRow(row);
        }
        std::printf("--- %s ---\n", archName(arch).c_str());
        table.print();
        std::printf("\n");
    }
    std::printf("engine: jobs=%u tasks=%llu wall=%.0f ms sim=%.0f ms\n\n",
                total_stats.jobs,
                (unsigned long long)total_stats.tasksRun,
                total_stats.wallNs / 1e6, total_stats.simNs / 1e6);
    std::puts("Shape: rho-M >= rho-S >> BL everywhere; BL-M often "
              "below BL-S on Comet/Rocket; BL ~0 on Alder/Raptor "
              "while rhoHammer revives flips; M1 never flips; "
              "S4 > S3 > S2 ~ S1 >> S5 ~ H1.");
    return 0;
}
