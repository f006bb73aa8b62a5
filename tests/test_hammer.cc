/**
 * @file
 * Tests for the attack layer: pattern generation, kernel construction,
 * hammer execution, fuzzing, NOP tuning and sweeping — including the
 * headline behavioural properties (baseline fails on Alder/Raptor,
 * rhoHammer revives it).
 */

#include <gtest/gtest.h>

#include "hammer/nop_tuner.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

TEST(Pattern, RandomNonUniformShape)
{
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        auto p = HammerPattern::randomNonUniform(rng);
        EXPECT_GE(p.numPairs(), 4u);
        EXPECT_LE(p.numPairs(), 14u);
        EXPECT_GE(p.slots().size(), 32u);
        for (unsigned s : p.slots())
            EXPECT_LT(s, p.numPairs()); // every slot filled
        EXPECT_GT(p.footprintRows(), p.numPairs() * 4);
    }
}

TEST(Pattern, NonUniformFrequencies)
{
    Rng rng(4);
    auto p = HammerPattern::randomNonUniform(rng);
    std::vector<unsigned> counts(p.numPairs(), 0);
    for (unsigned s : p.slots())
        ++counts[s];
    auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_GT(*mx, *mn); // pairs have different access frequencies
}

TEST(Pattern, DoubleSidedIsUniform)
{
    auto p = HammerPattern::doubleSided(32);
    EXPECT_EQ(p.numPairs(), 1u);
    for (unsigned s : p.slots())
        EXPECT_EQ(s, 0u);
}

TEST(Session, KernelStructure)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2")));
    HammerSession session(sys, 1);
    Rng rng(5);
    auto pattern = HammerPattern::randomNonUniform(rng);

    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true);
    HammerLocation loc{2, 1000};
    HammerKernel k = session.buildKernel(pattern, loc, cfg);

    // Slots x banks x 2 rows, each access = hammer + flush.
    std::uint64_t expect_reads =
        pattern.slots().size() * cfg.numBanks * 2;
    EXPECT_EQ(k.memReadsPerPeriod(), expect_reads);
    // Distinct lines: pairs x banks x 2 aggressors.
    EXPECT_EQ(k.numLines(), pattern.numPairs() * cfg.numBanks * 2);

    // Obfuscation branch per slot; NOP run per access.
    unsigned branches = 0, nop_runs = 0, flushes = 0;
    for (const Op &op : k.body()) {
        branches += op.kind == OpKind::BranchObf;
        nop_runs += op.kind == OpKind::NopRun;
        flushes += op.kind == OpKind::ClFlushOpt;
    }
    EXPECT_EQ(branches, pattern.slots().size());
    EXPECT_EQ(nop_runs, expect_reads);
    EXPECT_EQ(flushes, expect_reads);

    // Every interned line decodes into the expected bank set and rows.
    const auto &map = sys.mapping();
    for (std::uint32_t l = 0; l < k.numLines(); ++l) {
        DramAddr da = map.decode(k.addrOf(l));
        std::uint32_t rel =
            (da.bank + map.numBanks() - loc.bank) % map.numBanks();
        EXPECT_LT(rel, cfg.numBanks);
        EXPECT_GE(da.row, loc.baseRow);
        EXPECT_LE(da.row, loc.baseRow + pattern.footprintRows());
    }
}

TEST(Session, HammerRestoresVictimData)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S4")));
    HammerSession session(sys, 2);
    Rng rng(6);
    auto pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 200000);
    auto loc = session.tryRandomLocation(pattern, cfg).loc.value();
    auto out = session.hammer(pattern, loc, cfg);
    // Whatever flipped, a second check must start from clean data.
    auto again = sys.dimm().diffRow(loc.bank, loc.baseRow + 1,
                                    cfg.victimFill, sys.now());
    EXPECT_TRUE(again.empty());
    EXPECT_EQ(out.flips, out.flipList.size());
}

TEST(Session, LocationsRespectFootprint)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S2")));
    HammerSession session(sys, 3);
    Rng rng(7);
    auto pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg;
    for (int i = 0; i < 100; ++i) {
        auto loc = session.tryRandomLocation(pattern, cfg).loc.value();
        EXPECT_LT(loc.bank, sys.mapping().numBanks());
        EXPECT_LT(loc.baseRow + pattern.footprintRows() + 2,
                  sys.dimm().geometry().rowsPerBank);
        EXPECT_GE(loc.baseRow, 2u);
    }
}

TEST(TunedConfigs, Shapes)
{
    for (Arch a : allArchs) {
        auto rho = rhoConfig(a, true);
        EXPECT_TRUE(rho.isPrefetch());
        EXPECT_TRUE(rho.obfuscate);
        EXPECT_EQ(rho.barrier, BarrierKind::Nop);
        EXPECT_GT(rho.nopCount, 0u);
        EXPECT_GT(rho.numBanks, 1u);
        auto bl = baselineConfig(a, false);
        EXPECT_FALSE(bl.isPrefetch());
        EXPECT_EQ(bl.numBanks, 1u);
        EXPECT_EQ(bl.barrier, BarrierKind::None);
    }
    // Newer platforms need larger pseudo-barriers.
    EXPECT_GT(tunedNopCount(Arch::RaptorLake),
              tunedNopCount(Arch::CometLake));
}

namespace
{

FuzzResult
fuzz(Arch arch, const std::string &dimm, const HammerConfig &cfg,
     std::uint64_t seed = 2)
{
    MemorySystem sys(SystemSpec(arch, DimmProfile::byId(dimm)));
    HammerSession session(sys, seed);
    PatternFuzzer fuzzer(session, seed + 1);
    FuzzParams params;
    params.numPatterns = 8;
    params.locationsPerPattern = 2;
    return fuzzer.run(cfg, params);
}

} // namespace

TEST(Headline, BaselineFailsOnRaptorRhoRevives)
{
    auto bl = fuzz(Arch::RaptorLake, "S2",
                   baselineConfig(Arch::RaptorLake, false, 300000));
    auto rho = fuzz(Arch::RaptorLake, "S2",
                    rhoConfig(Arch::RaptorLake, true, 300000));
    EXPECT_LE(bl.totalFlips, 8u);       // "completely fail"
    EXPECT_GE(rho.totalFlips, 40u);     // revived
    EXPECT_GT(rho.totalFlips, 5 * std::max<std::uint64_t>(bl.totalFlips, 1));
}

TEST(Headline, RhoBeatsBaselineOnComet)
{
    auto bl = fuzz(Arch::CometLake, "S2",
                   baselineConfig(Arch::CometLake, false, 300000));
    auto rho = fuzz(Arch::CometLake, "S2",
                    rhoConfig(Arch::CometLake, true, 300000));
    EXPECT_GT(bl.totalFlips, 0u); // baseline still works here
    EXPECT_GT(rho.totalFlips, 2 * bl.totalFlips);
}

TEST(Headline, MultiBankBeatsSingleBankForRho)
{
    auto s = fuzz(Arch::CometLake, "S4",
                  rhoConfig(Arch::CometLake, false, 300000));
    auto m = fuzz(Arch::CometLake, "S4",
                  rhoConfig(Arch::CometLake, true, 300000));
    EXPECT_GT(m.totalFlips, s.totalFlips);
}

TEST(Headline, M1DimmNeverFlips)
{
    auto rho = fuzz(Arch::CometLake, "M1",
                    rhoConfig(Arch::CometLake, true, 300000));
    EXPECT_EQ(rho.totalFlips, 0u);
}

TEST(NopTuner, InteriorOptimum)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    HammerSession session(sys, 4);
    Rng rng(8);
    auto pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 300000);

    auto res = tuneNops(session, pattern, cfg,
                        {0, 200, 800, 6000}, /*locations=*/3);
    ASSERT_EQ(res.curve.size(), 4u);
    // Fig. 10 shape: no ordering -> ~nothing; optimum in the middle;
    // excessive padding kills the activation rate again.
    EXPECT_GT(res.bestNops, 0u);
    EXPECT_LT(res.bestNops, 6000u);
    EXPECT_GE(res.bestFlips, res.curve.front().flips);
    EXPECT_GT(res.bestFlips, res.curve.back().flips);
    // Time grows monotonically with padding.
    EXPECT_LT(res.curve[0].timeNs, res.curve[3].timeNs);
}

TEST(Sweep, DeterministicLocationsAndRates)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S4")));
    HammerSession session(sys, 5);
    Rng rng(10);
    auto pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 200000);

    auto res = sweep(session, pattern, cfg, 6, /*seed=*/77);
    EXPECT_EQ(res.flipsPerLocation.size(), 6u);
    EXPECT_EQ(res.cumulativeTimeNs.size(), 6u);
    EXPECT_GT(res.simTimeNs, 0.0);
    std::uint64_t sum = 0;
    for (auto f : res.flipsPerLocation)
        sum += f;
    EXPECT_EQ(sum, res.totalFlips);
    if (res.totalFlips > 0) {
        EXPECT_GT(res.flipsPerMinute(), 0.0);
    }
    // Cumulative time strictly increases.
    for (std::size_t i = 1; i < res.cumulativeTimeNs.size(); ++i)
        EXPECT_GT(res.cumulativeTimeNs[i], res.cumulativeTimeNs[i - 1]);
}

TEST(Tab03, BarrierStrategyOrderingPinned)
{
    // Table 3's shape on both of its architectures: serializing
    // barriers (CPUID, MFENCE) pay so much per access that they kill
    // the attack outright, while LFENCE between prefetches "does
    // almost nothing" — it drains an empty load queue and only costs
    // the per-arch issue overhead (lfenceIssueCyc, the no-wait path
    // SimCpu::execOp used to mis-charge as a flat 2 cycles).
    for (Arch arch : {Arch::AlderLake, Arch::RaptorLake}) {
        MemorySystem sys(SystemSpec(arch, DimmProfile::byId("S2")));
        HammerSession session(sys, 16);
        HammerPattern pattern = HammerPattern::doubleSided();
        HammerConfig base = rhoConfig(arch, true, 60000);
        HammerLocation loc =
            session.tryRandomLocation(pattern, base).loc.value();

        auto timeWith = [&](BarrierKind b, std::uint64_t budget) {
            HammerConfig cfg = rhoConfig(arch, true, budget);
            cfg.barrier = b;
            if (b != BarrierKind::Nop)
                cfg.nopCount = 0;
            HammerOutcome out = session.hammer(pattern, loc, cfg);
            // Normalize to per-access simulated cost so the capped
            // budgets of the slow barriers stay comparable.
            return out.perf.timeNs / static_cast<double>(budget);
        };

        double none = timeWith(BarrierKind::None, 60000);
        double lfence = timeWith(BarrierKind::Lfence, 60000);
        double mfence = timeWith(BarrierKind::Mfence, 8000);
        double cpuid = timeWith(BarrierKind::Cpuid, 8000);

        // Lower rows of Table 3: the serializing barriers cost ~two
        // orders of magnitude per access (completion wait dominates,
        // so MFENCE and CPUID land in the same band) while LFENCE
        // stays within a small constant of the barrier-free loop —
        // visible at all only because the no-wait path charges the
        // (small) per-arch issue cost.
        EXPECT_GT(lfence, none) << archName(arch);
        EXPECT_LT(lfence, 3.0 * none) << archName(arch);
        EXPECT_GT(mfence, 20.0 * lfence) << archName(arch);
        EXPECT_GT(cpuid, 20.0 * lfence) << archName(arch);
    }
}

TEST(Mitigation, PtrrStopsRhoHammer)
{
    // Section 6: the BIOS "Rowhammer Prevention" (pTRR) option
    // eliminates the flips rhoHammer otherwise induces.
    TrrConfig ptrr;
    ptrr.ptrr = true;
    MemorySystem sys(
        SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4"), ptrr));
    HammerSession session(sys, 6);
    PatternFuzzer fuzzer(session, 7);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 2;
    auto res = fuzzer.run(rhoConfig(Arch::RaptorLake, true, 300000),
                          params);
    EXPECT_LE(res.totalFlips, 2u);
}
