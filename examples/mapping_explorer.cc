/**
 * @file
 * Example: interactive-style exploration of DRAM address mappings —
 * decode physical addresses, locate row neighbours, and compare the
 * traditional (Comet/Rocket) vs recent (Alder/Raptor) schemes.
 *
 * Usage: mapping_explorer [hex-phys-addr]
 *
 * At the first or last row of a bank only the one neighbour inside the
 * bank is printed: the single-sided aggressor.
 */

#include <cstdio>
#include <string>
#include <vector>

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
    if (argc > 2)
        bench::usageError(std::string("unexpected argument '") + argv[2]
                          + "'");
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

        // The aggressors are the neighbours inside the bank: both
        // (double-sided), or just one at the bank's first or last row.
        std::vector<std::uint64_t> aggr;
        if (da.row > 0)
            aggr.push_back(da.row - 1);
        if (da.row + 1 < m.numRows())
            aggr.push_back(da.row + 1);
        std::printf("  %s aggressor%s for this row:",
                    aggr.size() == 2 ? "double-sided" : "single-sided",
                    aggr.size() == 2 ? "s" : "");
        for (std::uint64_t r : aggr)
            std::printf(" 0x%09llx (row %llu)",
                        (unsigned long long)m.rowToPhys(da.bank, r),
                        (unsigned long long)r);
        std::printf("\n");

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
