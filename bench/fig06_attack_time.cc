/**
 * @file
 * Figure 6: average attack completion time per pattern using load or
 * one of the four prefetch hints as the hammering primitive, across
 * the four architectures.
 */

#include "bench_util.hh"
#include "hammer/hammer_session.hh"
#include "memsys/memory_system.hh"

using namespace rho;

int
main()
{
    bench::banner("Fig. 6",
                  "avg attack completion time (ms) per pattern, load "
                  "vs prefetch hints");

    const std::vector<HammerInstr> instrs = {
        HammerInstr::Load, HammerInstr::PrefetchT0,
        HammerInstr::PrefetchT1, HammerInstr::PrefetchT2,
        HammerInstr::PrefetchNta};

    TextTable table({"arch", "load", "pref-t0", "pref-t1", "pref-t2",
                     "pref-nta"});

    unsigned patterns = static_cast<unsigned>(bench::scaled(12));
    std::uint64_t budget = bench::scaled(300000);

    for (Arch arch : allArchs) {
        std::vector<std::string> row = {archName(arch)};
        for (HammerInstr instr : instrs) {
            MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S1")));
            HammerSession session(sys, 6);
            Rng rng(7);
            double total_ms = 0;
            for (unsigned p = 0; p < patterns; ++p) {
                auto pattern = HammerPattern::randomNonUniform(rng);
                HammerConfig cfg;
                cfg.instr = instr;
                cfg.accessBudget = budget;
                auto loc = session.tryRandomLocation(pattern, cfg).loc.value();
                auto out = session.hammer(pattern, loc, cfg);
                total_ms += out.perf.timeNs / 1e6;
            }
            row.push_back(strFormat("%.1f", total_ms / patterns));
        }
        table.addRow(row);
    }
    table.print();
    std::printf("\n(%u patterns x %llu accesses each; paper: 80 "
                "patterns x 5M accesses)\n",
                patterns, (unsigned long long)budget);
    std::puts("Shape: all four prefetch hints are nearly equal and "
              "substantially faster than loads.");
    return 0;
}
