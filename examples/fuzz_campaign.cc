/**
 * @file
 * Example: a fuzzing campaign comparing the load-based baseline with
 * rhoHammer on a chosen platform, followed by sweeping the best
 * pattern — the core loop of sections 4 and 5.2, running on the
 * deterministic parallel campaign engine.
 *
 * Usage: fuzz_campaign [arch] [dimm] [--jobs N]
 *   arch:   comet | rocket | alder | raptor   (default raptor)
 *   dimm:   S1..S5, H1, M1                    (default S3)
 *   --jobs: worker threads (default: hardware_concurrency); results
 *           are bit-identical for any value.
 */

#include <cstdio>
#include <cstring>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

namespace
{

Arch
parseArch(const char *s)
{
    if (!std::strcmp(s, "comet"))
        return Arch::CometLake;
    if (!std::strcmp(s, "rocket"))
        return Arch::RocketLake;
    if (!std::strcmp(s, "alder"))
        return Arch::AlderLake;
    if (!std::strcmp(s, "raptor"))
        return Arch::RaptorLake;
    fatal("unknown arch '%s'", s);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Arch arch = Arch::RaptorLake;
    const char *dimm = "S3";
    unsigned jobs = 0;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs") || !std::strcmp(argv[i], "-j")) {
            if (i + 1 >= argc)
                bench::usageError(std::string(argv[i]) + " needs a value");
            jobs = static_cast<unsigned>(
                bench::parseUnsigned(argv[i], argv[i + 1], bench::maxJobs));
            ++i;
        } else if (positional == 0) {
            arch = parseArch(argv[i]);
            ++positional;
        } else if (positional == 1) {
            dimm = argv[i];
            ++positional;
        } else {
            bench::usageError(std::string("unexpected argument '")
                              + argv[i] + "': expected [arch] [dimm]");
        }
    }

    std::printf("fuzzing %s + DIMM %s with %u worker thread(s)\n",
                archName(arch).c_str(), dimm, resolveJobs(jobs));

    SystemSpec spec(arch, DimmProfile::byId(dimm));

    FuzzParams params;
    params.numPatterns = 12;
    params.locationsPerPattern = 2;
    params.jobs = jobs;

    auto report = [&](const char *name, const HammerConfig &cfg) {
        ParallelStats stats;
        auto res = fuzzCampaign(spec, cfg, params, 2, &stats);
        std::printf("%-22s total=%-6llu best=%-5llu effective=%u/%u "
                    "(%.1f s simulated in %.1f s wall)\n",
                    name, (unsigned long long)res.totalFlips,
                    (unsigned long long)res.bestPatternFlips,
                    res.effectivePatterns, params.numPatterns,
                    res.simTimeNs / 1e9, stats.wallNs / 1e9);
        return res;
    };

    report("baseline (BL-S):", baselineConfig(arch, false));
    report("baseline multi (BL-M):", baselineConfig(arch, true));
    report("rhoHammer (rho-S):", rhoConfig(arch, false));
    auto best = report("rhoHammer multi (rho-M):", rhoConfig(arch, true));

    if (best.bestPattern) {
        SweepParams sp;
        sp.numLocations = 16;
        sp.jobs = jobs;
        ParallelStats stats;
        auto sw = sweepCampaign(spec, *best.bestPattern,
                                rhoConfig(arch, true), sp, 3, &stats);
        std::printf("\nsweeping the best pattern over 16 locations: "
                    "%llu flips (%.0f flips/min simulated)\n",
                    (unsigned long long)sw.totalFlips,
                    sw.flipsPerMinute());
        std::printf("engine: %s\n", stats.summary().c_str());
    } else {
        std::puts("\nno effective pattern found - try a more "
                  "flip-prone DIMM (S4) or more patterns");
    }
    return 0;
}
