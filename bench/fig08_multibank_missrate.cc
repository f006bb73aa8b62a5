/**
 * @file
 * Figure 8: average cache miss rate and attack time on Comet Lake for
 * the C++ (indexed) and AsmJit (immediate) primitives with load- and
 * prefetch-based hammering, across 1..8 banks.
 */

#include "bench_util.hh"
#include "hammer/hammer_session.hh"

using namespace rho;

int
main()
{
    bench::banner("Fig. 8",
                  "miss rate / time vs #banks, C++ vs JIT x load vs "
                  "prefetch (Comet Lake)");

    struct Variant
    {
        const char *name;
        HammerInstr instr;
        AddressingMode mode;
    };
    const Variant variants[] = {
        {"C++ load", HammerInstr::Load, AddressingMode::CppIndexed},
        {"C++ prefetch", HammerInstr::PrefetchNta,
         AddressingMode::CppIndexed},
        {"JIT load", HammerInstr::Load, AddressingMode::JitImmediate},
        {"JIT prefetch", HammerInstr::PrefetchNta,
         AddressingMode::JitImmediate},
    };

    unsigned patterns = static_cast<unsigned>(bench::scaled(8));
    std::uint64_t budget = bench::scaled(250000);

    TextTable miss({"variant", "1", "2", "3", "4", "6", "8"});
    TextTable time({"variant", "1", "2", "3", "4", "6", "8"});

    for (const Variant &v : variants) {
        std::vector<std::string> mrow = {v.name}, trow = {v.name};
        for (unsigned banks : {1u, 2u, 3u, 4u, 6u, 8u}) {
            MemorySystem sys(SystemSpec(Arch::CometLake,
                                        DimmProfile::byId("S1")));
            HammerSession session(sys, 8);
            Rng rng(9);
            double m = 0, t = 0;
            for (unsigned p = 0; p < patterns; ++p) {
                auto pattern = HammerPattern::randomNonUniform(rng);
                HammerConfig cfg;
                cfg.instr = v.instr;
                cfg.mode = v.mode;
                cfg.numBanks = banks;
                cfg.accessBudget = budget;
                auto loc = session.tryRandomLocation(pattern, cfg).loc.value();
                auto out = session.hammer(pattern, loc, cfg);
                m += out.perf.missRate();
                t += out.perf.timeNs / 1e6;
            }
            mrow.push_back(strFormat("%.0f%%", 100 * m / patterns));
            trow.push_back(strFormat("%.1f", t / patterns));
        }
        miss.addRow(mrow);
        time.addRow(trow);
    }
    std::puts("Average cache miss rate vs #banks:");
    miss.print();
    std::puts("\nAverage attack time (ms) vs #banks:");
    time.print();
    std::puts("\nShape: prefetch misses less than load (more severe "
              "disorder), JIT less than C++; miss rate rises with "
              "bank count; at peak miss rate prefetch is ~2x faster "
              "than load.");
    return 0;
}
