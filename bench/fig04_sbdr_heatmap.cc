/**
 * @file
 * Figure 4: heatmap of T_SBDR(M, {bx, by}) on Comet Lake (traditional
 * mapping with pure row bits) vs Raptor Lake (recent mapping without),
 * on the 16 GiB dual-rank DIMM S1.
 */

#include <vector>

#include "bench_util.hh"
#include "memsys/timing_probe.hh"
#include "os/pagemap.hh"

using namespace rho;

namespace
{

void
heatmap(Arch arch)
{
    MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S1")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 4);
    PhysPool pool(buddy, 0.70);
    TimingProbe probe(sys, 4);
    Rng rng(4);

    unsigned lo = 6, hi = sys.mapping().physBits() - 1;
    unsigned rounds =
        static_cast<unsigned>(std::max<std::uint64_t>(
            4, bench::scaled(10)));

    std::printf("--- %s, DIMM S1 (%s) ---\n", archName(arch).c_str(),
                sys.mapping().describe().c_str());
    std::printf("    ");
    for (unsigned bx = lo; bx <= hi; ++bx)
        std::printf("%4u", bx);
    std::printf("\n");

    for (unsigned by = lo; by <= hi; ++by) {
        std::printf("%3u ", by);
        for (unsigned bx = lo; bx <= hi; ++bx) {
            if (bx >= by) {
                std::printf("    ");
                continue;
            }
            std::uint64_t mask = (1ULL << bx) | (1ULL << by);
            auto base = pool.pairBase(rng, mask);
            if (!base) {
                std::printf("   ?");
                continue;
            }
            double avg = 0;
            for (int k = 0; k < 3; ++k)
                avg += probe.measurePair(*base, *base ^ mask, rounds);
            std::printf("%4.0f", avg / 3);
        }
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::banner("Fig. 4",
                  "T_SBDR(bx, by) heatmaps (ns): traditional vs "
                  "recent mappings");
    heatmap(Arch::CometLake);
    heatmap(Arch::RaptorLake);
    std::puts("Reading: large bright regions on Comet Lake come from "
              "pure row bits; on Raptor Lake only scattered "
              "same-function pairs remain slow.");
    return 0;
}
