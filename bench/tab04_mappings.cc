/**
 * @file
 * Table 4: reverse-engineered DRAM address mappings on every modelled
 * architecture (four Intel generations, AMD Zen 3's offset non-linear
 * family, ARM Cortex-A72) across the three DIMM geometries, checked
 * against ground truth.
 */

#include "bench_util.hh"
#include "common/bits.hh"
#include "revng/reverse_engineer.hh"

using namespace rho;

int
main()
{
    bench::banner("Tab. 4",
                  "recovered DRAM address mappings per arch x geometry");

    struct Geo
    {
        const char *dimm;
        const char *label;
    };
    const Geo geos[] = {
        {"S2", "(8G, 1, 16)"},
        {"S1", "(16G, 2, 16)"},
        {"M1", "(32G, 2, 16)"},
    };

    for (const Geo &g : geos) {
        std::printf("--- Geometry %s (DIMM %s) ---\n", g.label, g.dimm);
        for (Arch arch : allArchs) {
            MemorySystem sys(SystemSpec(arch, DimmProfile::byId(g.dimm)));
            BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 19);
            PhysPool pool(buddy, 0.70);
            TimingProbe probe(sys, 19);
            RhoReverseEngineer re(probe, pool, 19);
            MappingRecovery rec = re.run();

            std::string fns;
            for (auto fn : rec.bankFns) {
                fns += fns.empty() ? "(" : ", (";
                auto bits = bitsOfMask(fn);
                for (std::size_t i = 0; i < bits.size(); ++i) {
                    fns += (i ? ", " : "") + std::to_string(bits[i]);
                }
                fns += ")";
            }
            std::string off;
            if (rec.regionOffset != 0) {
                off = strFormat("; Offset: %#llx",
                                static_cast<unsigned long long>(
                                    rec.regionOffset));
            }
            std::printf("%-12s Bank Func: %s; Row: %u-%u%s  [%s]\n",
                        archName(arch).c_str(), fns.c_str(),
                        rec.rowBits.empty() ? 0 : rec.rowBits.front(),
                        rec.rowBits.empty() ? 0 : rec.rowBits.back(),
                        off.c_str(),
                        rec.matches(sys.mapping()) ? "matches truth"
                                                   : "MISMATCH");
        }
        std::printf("\n");
    }
    std::puts("Shape: Comet/Rocket share one (simple) scheme, "
              "Alder/Raptor another with wider functions and the "
              "low-order (9,11,13)-style function, Zen 3 an offset "
              "non-linear one (normalized functions + region base), "
              "Cortex-A72 the simple scheme; every recovery must "
              "match ground truth.");
    return 0;
}
