/**
 * @file
 * Figure 3: density distribution of pairwise access latencies with
 * the derived SBDR threshold, per architecture.
 */

#include "bench_util.hh"
#include "common/stats.hh"
#include "memsys/timing_probe.hh"
#include "os/pagemap.hh"

using namespace rho;

int
main()
{
    bench::banner("Fig. 3",
                  "latency density distribution and SBDR threshold");

    for (Arch arch : allArchs) {
        MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S1")));
        BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 3);
        PhysPool pool(buddy, 0.70);
        TimingProbe probe(sys, 3);
        Rng rng(3);

        Histogram hist(20.0, 140.0, 60);
        unsigned pairs = static_cast<unsigned>(bench::scaled(1500));
        for (unsigned i = 0; i < pairs; ++i) {
            hist.add(probe.measurePair(pool.randomAddr(rng),
                                       pool.randomAddr(rng), 8));
        }
        double thres = hist.separatingThreshold(0.005);

        std::printf("--- %s (%u random pairs) ---\n",
                    archName(arch).c_str(), pairs);
        for (unsigned b = 0; b < hist.numBins(); ++b) {
            if (hist.binCount(b) == 0)
                continue;
            double frac = double(hist.binCount(b)) / hist.totalCount();
            int stars = static_cast<int>(frac * 200);
            std::printf("%6.1f ns | %-50.*s %5.2f%%\n",
                        hist.binCenter(b), std::min(stars, 50),
                        "**************************************************",
                        frac * 100);
        }
        double above = hist.fractionAbove(thres);
        std::printf("threshold = %.1f ns; SBDR fraction = %.3f "
                    "(expect ~1/(#banks-1) = %.3f)\n\n",
                    thres, above, 1.0 / (sys.mapping().numBanks() - 1));
    }
    return 0;
}
