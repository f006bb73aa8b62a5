/**
 * @file
 * Figure 10: number of bit flips vs NOP pseudo-barrier size when
 * sweeping a best pattern on Raptor Lake. Both extremes fail: too few
 * NOPs cannot counter the out-of-order disorder, too many sacrifice
 * the activation rate.
 */

#include "bench_util.hh"
#include "hammer/nop_tuner.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

int
main()
{
    bench::banner("Fig. 10",
                  "flips vs NOP count, best pattern sweep on Raptor "
                  "Lake (DIMM S4)");

    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    HammerSession session(sys, 12);

    // Find a best pattern with a short fuzz first (as the paper does).
    PatternFuzzer fuzzer(session, 13);
    FuzzParams fp;
    fp.numPatterns = static_cast<unsigned>(bench::scaled(8));
    fp.locationsPerPattern = 2;
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true,
                                 bench::scaled(400000));
    auto fz = fuzzer.run(cfg, fp);
    if (!fz.bestPattern) {
        std::puts("no effective pattern found at this scale; rerun "
                  "with RHO_BENCH_SCALE >= 1");
        return 0;
    }

    std::vector<unsigned> nops = {0,   50,   100,  200,  400, 800,
                                  1200, 2000, 3200, 4800};
    auto res = tuneNops(session, *fz.bestPattern, cfg, nops,
                        static_cast<unsigned>(bench::scaled(6)));

    TextTable table({"nop count", "bit flips", "miss rate",
                     "time (ms)"});
    for (const auto &pt : res.curve) {
        table.addRow({std::to_string(pt.nops),
                      std::to_string(pt.flips),
                      strFormat("%.0f%%", pt.missRate * 100),
                      strFormat("%.1f", pt.timeNs / 1e6)});
    }
    table.print();
    std::printf("\noptimum: %u NOPs (%llu flips)\n", res.bestNops,
                (unsigned long long)res.bestFlips);
    std::puts("Shape: zero at both extremes of the range, optimum in "
              "the interior positive range.");

    // Counter-check from the paper: applying the same counter-
    // speculation to load-based hammering yields nothing.
    HammerConfig load_cfg = cfg;
    load_cfg.instr = HammerInstr::Load;
    auto load_res = tuneNops(session, *fz.bestPattern, load_cfg,
                             {0, 200, 800, 2000},
                             static_cast<unsigned>(bench::scaled(4)));
    std::printf("load-based with the same technique: best %llu flips "
                "at %u NOPs (expected ~0)\n",
                (unsigned long long)load_res.bestFlips,
                load_res.bestNops);
    return 0;
}
