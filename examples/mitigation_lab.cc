/**
 * @file
 * Example: mitigation laboratory (paper section 6) — measure how the
 * in-DRAM TRR configuration and the platform pTRR ("Rowhammer
 * Prevention" BIOS option) change rhoHammer's effectiveness, then walk
 * the DDR5 mitigation frontier (RFM levels and PRAC/ABO) with the
 * bypass search.
 */

#include <cstdio>

#include "common/logging.hh"
#include "hammer/bypass_search.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

namespace
{

std::uint64_t
campaign(const TrrConfig &trr, const char *label)
{
    MemorySystem sys(
        SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4"), trr));
    HammerSession session(sys, 9);
    PatternFuzzer fuzzer(session, 10);
    FuzzParams params;
    params.numPatterns = 10;
    params.locationsPerPattern = 2;
    auto res = fuzzer.run(rhoConfig(Arch::RaptorLake, true), params);
    std::printf("%-44s total flips %-6llu (TRR issued %llu targeted "
                "refreshes)\n",
                label, (unsigned long long)res.totalFlips,
                (unsigned long long)sys.dimm().trrRefreshCount());
    return res.totalFlips;
}

} // namespace

int
main()
{
    setVerbose(false);
    std::puts("rhoHammer vs mitigations on Raptor Lake + DIMM S4\n");

    TrrConfig none;
    none.enabled = false;
    campaign(none, "no mitigation:");

    campaign(TrrConfig{}, "stock DDR4 TRR (evaded by non-uniform):");

    TrrConfig strong;
    strong.counters = 16;
    strong.sampleProb = 0.8;
    strong.matchThreshold = 8;
    strong.maxRefreshesPerTick = 4;
    campaign(strong, "beefed-up TRR sampler:");

    TrrConfig ptrr;
    ptrr.ptrr = true;
    campaign(ptrr, "TRR + pTRR (BIOS Rowhammer Prevention):");

    std::puts("\nShape: stock TRR barely matters against non-uniform "
              "patterns; a larger sampler helps somewhat; pTRR "
              "eliminates nearly all flips, matching the paper's "
              "BIOS experiment.");

    std::puts("\nDDR5 mitigation frontier on the sample DDR5 DIMM\n");
    BypassParams search;
    search.fuzz.numPatterns = 10;
    search.fuzz.locationsPerPattern = 2;
    search.seed = 9;
    BypassReport report =
        bypassSearch(Arch::RaptorLake, DimmProfile::ddr5Sample(),
                     rhoConfig(Arch::RaptorLake, true, 200000),
                     mitigationFrontier(), search);
    for (const BypassConfigResult &r : report.configs) {
        std::printf("%-18s flips %-5llu f/min %-7.1f RFMs %-6llu "
                    "alerts %-5llu -> %s\n",
                    r.name.c_str(),
                    (unsigned long long)r.fuzz.totalFlips,
                    r.flipsPerMinute, (unsigned long long)r.rfmCommands,
                    (unsigned long long)r.pracAlerts,
                    r.bypassed ? "BYPASSED" : "holds");
    }
    std::printf("\n%zu of %zu frontier configs bypassed.\n",
                (std::size_t)report.bypassedCount(),
                report.configs.size());
    std::puts("Shape: the fuzzer finds effective patterns against the "
              "TRR-only baseline and under-provisioned PRAC (and a "
              "trickle against relaxed RFM), while RFM at RAAIMT <= 32 "
              "and provisioned PRAC hold — the paper's section 6 "
              "conclusion that correctly configured DDR5 setups expose "
              "no effective pattern.");
    return 0;
}
