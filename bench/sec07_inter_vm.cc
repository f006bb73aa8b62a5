/**
 * @file
 * Section 7 (multi-tenant extension): cross-VM RowHammer vs placement
 * policy, software defenses, and on-die ECC. Two tenants share one
 * RaptorLake + DDR4 S4 machine; the attacker VM templates its own
 * partition, hammers at the partition edges, and escalates visible
 * PTE-geometry flips into a guest page-table takeover of the victim.
 *
 * The table sweeps placement {contiguous, interleaved, guarded} with
 * defenses off, then the two software defenses (per-tenant bank
 * partitioning, 4x refresh boosting) on the leakiest placement — each
 * with on-die ECC off and on, at an equal trial budget.
 *
 * Expected shape: interleaved placement with defenses off leaks
 * cross-VM flips and yields PTE takeovers; on-die ECC absorbs the
 * single-bit escapes (visible = 0) without changing the raw device
 * flips; guard rows and bank partitioning keep every flip inside the
 * attacker's own partition, so bank partitioning + ECC ends the run
 * with zero takeovers at the same budget; refresh boosting only thins
 * the flip rate and remains exploitable.
 *
 * Flags: --jobs N (worker threads), --seed N (campaign seed,
 * default 7).
 */

#include <cstring>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "exploit/cross_vm.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

namespace
{

struct Scenario
{
    const char *defense;
    VmPlacement placement;
    bool bankPartition;
    double refreshBoost;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Sec. 7",
                  "cross-VM templating: placement x defense x on-die "
                  "ECC, two tenants per machine");
    unsigned jobs = bench::parseJobs(argc, argv);
    std::uint64_t seed = bench::parseFlag(argc, argv, "--seed", 7);
    bench::announceJobs(jobs);

    const unsigned trials =
        static_cast<unsigned>(bench::scaled(3));
    const unsigned hammer_runs =
        static_cast<unsigned>(std::max<std::uint64_t>(
            6, bench::scaled(128)));

    const Scenario scenarios[] = {
        {"none", VmPlacement::Contiguous, false, 1.0},
        {"none", VmPlacement::Interleaved, false, 1.0},
        {"none", VmPlacement::Guarded, false, 1.0},
        {"bank-part", VmPlacement::Interleaved, true, 1.0},
        {"boost 4x", VmPlacement::Interleaved, false, 4.0},
    };

    std::printf("two tenants x 16 MiB, %u hammer sites/trial, "
                "%u trials/config, seed %llu\n\n",
                hammer_runs, trials,
                static_cast<unsigned long long>(seed));

    TextTable table({"placement", "defense", "ecc", "trials", "flips",
                     "cross raw", "cross visible", "takeovers",
                     "sim s"});
    bool undefended_leaks = false;
    bool hardened_sealed = true;
    for (const Scenario &sc : scenarios) {
        for (bool ecc : {false, true}) {
            SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S4"));
            spec.ecc.enabled = ecc;
            spec.refreshBoost = sc.refreshBoost;
            CrossVmCampaignParams params;
            params.attack.hammerCfg =
                rhoConfig(Arch::RaptorLake, false, 120000);
            params.attack.vmCfg =
                VmConfig{sc.placement, sc.bankPartition};
            params.attack.bytesPerTenant = 16ull << 20;
            params.attack.hammerRuns = hammer_runs;
            params.trials = trials;
            params.jobs = jobs;
            CrossVmCampaignResult res =
                crossVmCampaign(spec, params, seed);
            if (!std::strcmp(sc.defense, "none")
                && sc.placement == VmPlacement::Interleaved
                && res.crossVmFlipsRaw > 0)
                undefended_leaks = true;
            if (sc.bankPartition && ecc && res.takeovers != 0)
                hardened_sealed = false;
            table.addRow(
                {vmPlacementName(sc.placement), sc.defense,
                 ecc ? "on" : "off", strFormat("%u", res.trials),
                 strFormat("%llu",
                           static_cast<unsigned long long>(
                               res.totalFlips)),
                 strFormat("%llu",
                           static_cast<unsigned long long>(
                               res.crossVmFlipsRaw)),
                 strFormat("%llu",
                           static_cast<unsigned long long>(
                               res.crossVmFlipsVisible)),
                 strFormat("%u", res.takeovers),
                 strFormat("%.2f", res.simTimeNs / 1e9)});
        }
    }
    table.print();

    std::puts("");
    std::puts(
        "Shape: interleaved placement with defenses off leaks flips\n"
        "across the tenant boundary and converts them into guest\n"
        "page-table takeovers; on-die ECC hides the single-bit\n"
        "escapes from the read path (cross visible = 0) while the\n"
        "raw device flips persist. Guard rows and per-tenant bank\n"
        "partitioning keep every flip inside the attacker's own\n"
        "partition at the same trial budget — bank partitioning +\n"
        "ECC ends with zero takeovers — while refresh boosting only\n"
        "thins the flip rate and stays exploitable.");
    if (!undefended_leaks)
        std::puts("WARNING: undefended interleaved run produced no "
                  "cross-VM flips at this scale.");
    if (!hardened_sealed)
        std::puts("WARNING: bank partitioning + ECC leaked a "
                  "takeover.");
    return undefended_leaks && hardened_sealed ? 0 : 1;
}
