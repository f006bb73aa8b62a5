/**
 * @file
 * Example: interactive-style exploration of DRAM address mappings —
 * decode physical addresses, locate row neighbours, and compare the
 * traditional (Comet/Rocket) vs recent (Alder/Raptor) schemes.
 *
 * Usage: mapping_explorer [hex-phys-addr]
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "mapping/mapping_presets.hh"

using namespace rho;

int
main(int argc, char **argv)
{
    setVerbose(false);
    PhysAddr pa =
        argc > 1 ? bench::parseUnsigned("address", argv[1], UINT64_MAX, 16)
                 : 0x1a2b3c4d0ULL;

    std::puts("ground-truth mappings (paper Table 4), 16 GiB "
              "dual-rank geometry:\n");
    for (Arch arch : {Arch::CometLake, Arch::RaptorLake}) {
        AddressMapping m = mappingFor(arch, 16, 2);
        std::printf("%s:\n  %s\n", archName(arch).c_str(),
                    m.describe().c_str());

        PhysAddr a = pa % m.memBytes();
        DramAddr da = m.decode(a);
        std::printf("  phys 0x%09llx -> bank %2u, row %6llu, col %4llu"
                    "  (round trip 0x%09llx)\n",
                    (unsigned long long)a, da.bank,
                    (unsigned long long)da.row,
                    (unsigned long long)da.col,
                    (unsigned long long)m.encode(da));

        std::printf("  double-sided aggressors for this row: "
                    "0x%09llx / 0x%09llx (rows %llu / %llu)\n",
                    (unsigned long long)m.rowToPhys(da.bank, da.row - 1),
                    (unsigned long long)m.rowToPhys(da.bank, da.row + 1),
                    (unsigned long long)(da.row - 1),
                    (unsigned long long)(da.row + 1));

        // How scattered are consecutive physical pages across banks?
        std::printf("  bank walk of 8 consecutive 4K pages:");
        for (unsigned i = 0; i < 8; ++i)
            std::printf(" %u", m.decode(a + i * pageBytes).bank);
        std::printf("\n\n");
    }

    std::puts("pure row bits (in no bank function):");
    for (Arch arch : {Arch::CometLake, Arch::RaptorLake}) {
        AddressMapping m = mappingFor(arch, 16, 2);
        std::uint64_t fn_union = 0;
        for (auto fn : m.bankFnMasks())
            fn_union |= fn;
        std::string bits;
        for (unsigned b : m.rowBitPositions()) {
            if (!bit(fn_union, b))
                bits += std::to_string(b) + " ";
        }
        std::printf("  %-12s %s\n", archName(arch).c_str(),
                    bits.empty() ? "(none - the paper's key "
                                   "observation on recent parts)"
                                 : bits.c_str());
    }
    return 0;
}
