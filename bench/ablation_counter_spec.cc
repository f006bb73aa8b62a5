/**
 * @file
 * Ablation: which part of rhoHammer buys what? Starting from the raw
 * prefetch primitive, enable each technique in turn on all four
 * platforms — multi-bank parallelism, control-flow obfuscation, NOP
 * pseudo-barriers — and measure fuzzing flips and activation rate.
 * (Design-choice ablation called out in DESIGN.md; complements
 * Figs. 9/10 and Table 3.)
 */

#include "bench_util.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

int
main()
{
    bench::banner("Ablation",
                  "stacking rhoHammer's techniques one by one "
                  "(DIMM S3)");

    FuzzParams params;
    params.numPatterns = static_cast<unsigned>(bench::scaled(8));
    params.locationsPerPattern = 2;
    std::uint64_t budget = bench::scaled(380000);

    struct Step
    {
        const char *name;
        bool multibank, obf, nops;
    };
    const Step steps[] = {
        {"prefetch only", false, false, false},
        {"+ multi-bank", true, false, false},
        {"+ obfuscation", true, true, false},
        {"+ NOP barriers (full)", true, true, true},
        {"NOPs without obfuscation", true, false, true},
    };

    for (Arch arch : allArchs) {
        TextTable table({"configuration", "total flips", "best",
                         "ACT rate (M/s)", "miss rate"});
        for (const Step &s : steps) {
            MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S3")));
            HammerSession session(sys, 33);
            PatternFuzzer fuzzer(session, 34);

            HammerConfig cfg;
            cfg.instr = HammerInstr::PrefetchNta;
            cfg.numBanks = s.multibank ? tunedBankCount(arch) : 1;
            cfg.obfuscate = s.obf;
            if (s.nops) {
                cfg.barrier = BarrierKind::Nop;
                cfg.nopCount = tunedNopCount(arch);
            }
            cfg.accessBudget = budget;

            auto res = fuzzer.run(cfg, params);
            // Activation-rate / miss-rate probe on one extra pattern.
            Rng rng(35);
            auto probe_pat = HammerPattern::randomNonUniform(rng);
            auto loc = session.tryRandomLocation(probe_pat, cfg).loc.value();
            auto out = session.hammer(probe_pat, loc, cfg);

            table.addRow({s.name, std::to_string(res.totalFlips),
                          std::to_string(res.bestPatternFlips),
                          strFormat("%.1f",
                                    out.perf.dramAccessRate() / 1e6),
                          strFormat("%.0f%%",
                                    out.perf.missRate() * 100)});
        }
        std::printf("--- %s ---\n", archName(arch).c_str());
        table.print();
        std::printf("\n");
    }
    std::puts("Reading: the raw prefetch primitive flips nothing on "
              "any platform; multi-bank raises the activation rate "
              "but not the order; obfuscation alone restores only a "
              "trickle; the NOP pseudo-barrier is the decisive "
              "ingredient (and in this model carries nearly all of "
              "the counter-speculation benefit).");
    return 0;
}
