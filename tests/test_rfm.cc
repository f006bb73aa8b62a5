/**
 * @file
 * Tests for the DDR5 Refresh Management model (paper section 6):
 * deterministic RAA accounting cannot be evaded by non-uniform
 * patterns, so no flips survive on DDR5 — the paper's observation.
 * Includes the regression pins for the REF-decrement fix: a previous
 * revision never subtracted from RAA on REF and over-fired RFMs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "differential.hh"
#include "dram/dimm.hh"
#include "dram/rfm.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;
using namespace rho::test;

TEST(RfmEngine, FiresEveryRaaimtActs)
{
    RfmConfig cfg;
    cfg.enabled = true;
    cfg.raaimt = 8;
    RfmEngine rfm(cfg, 2);
    unsigned fired = 0;
    for (int i = 0; i < 64; ++i) {
        RfmAction a = rfm.observeAct(0, 100 + (i % 3));
        if (a.fired) {
            EXPECT_FALSE(a.protect.empty());
            ++fired;
        }
    }
    EXPECT_EQ(fired, 8u);
    EXPECT_EQ(rfm.rfmCommands(), 8u);
}

TEST(RfmEngine, RaaStaysBelowRaaimtAtEveryLevel)
{
    // The controller services every RFM as soon as it is owed, so RAA
    // never reaches RAAIMT — let alone any maximum threshold above it
    // — for any operating point and any REF cadence (0 = no REF).
    for (RfmLevel level :
         {RfmLevel::Relaxed, RfmLevel::Default, RfmLevel::Strict}) {
        RfmConfig cfg = RfmConfig::forLevel(level);
        std::uint64_t rfms = 0;
        for (unsigned acts_per_ref : {0u, 1u, 7u, 16u, 33u, 100u}) {
            RfmEngine rfm(cfg, 2);
            for (unsigned i = 1; i <= 5000; ++i) {
                std::uint32_t bank = (i % 5 == 0) ? 1 : 0;
                rfm.observeAct(bank, 100 + (i * 7) % 40);
                ASSERT_LT(rfm.raa(bank), cfg.raaimt)
                    << rfmLevelName(level) << " acts/REF " << acts_per_ref
                    << " ACT " << i;
                if (acts_per_ref != 0 && i % acts_per_ref == 0)
                    rfm.onRef();
            }
            rfms += rfm.rfmCommands();
        }
        // The sparse cadences outrun the REF decrement, so RFMs fire.
        EXPECT_GT(rfms, 0u) << rfmLevelName(level);
    }
}

TEST(RfmEngine, ProtectsMostRecentRows)
{
    RfmConfig cfg;
    cfg.enabled = true;
    cfg.raaimt = 4;
    cfg.victimsPerRfm = 2;
    RfmEngine rfm(cfg, 1);
    rfm.observeAct(0, 10);
    rfm.observeAct(0, 20);
    rfm.observeAct(0, 30);
    RfmAction a = rfm.observeAct(0, 40);
    ASSERT_TRUE(a.fired);
    ASSERT_EQ(a.protect.size(), 2u);
    EXPECT_EQ(a.protect[0].row, 40u); // most recent first
    EXPECT_EQ(a.protect[1].row, 30u);
}

// ---------------------------------------------------------------------
// Recency oracle: RfmEngine vs a plain move-to-front list
// ---------------------------------------------------------------------

namespace
{

/**
 * The straightforward RFM model: per-bank RAA counters and a recency
 * list kept by find/erase/insert-at-front, popped back to `depth`
 * distinct rows. An RFM protects the list's first victimsPerRfm rows.
 */
class RfmModel
{
  public:
    RfmModel(const RfmConfig &cfg, unsigned depth, std::uint32_t banks)
        : cfg(cfg), depth(depth), raas(banks, 0), recent(banks)
    {
    }

    RfmAction
    observeAct(std::uint32_t bank, std::uint64_t row)
    {
        RfmAction action;
        if (!cfg.enabled)
            return action;
        std::vector<std::uint64_t> &list = recent[bank];
        auto it = std::find(list.begin(), list.end(), row);
        if (it != list.end())
            list.erase(it);
        list.insert(list.begin(), row);
        if (list.size() > depth)
            list.pop_back();
        if (++raas[bank] < cfg.raaimt)
            return action;
        raas[bank] -= cfg.raaimt;
        action.fired = true;
        std::size_t n =
            std::min<std::size_t>(cfg.victimsPerRfm, list.size());
        for (std::size_t i = 0; i < n; ++i)
            action.protect.push_back({bank, list[i]});
        return action;
    }

    void
    onRef()
    {
        if (!cfg.enabled)
            return;
        std::uint32_t dec = cfg.refDecrementEffective();
        for (std::uint32_t &r : raas)
            r = r > dec ? r - dec : 0;
    }

    void
    reset()
    {
        std::fill(raas.begin(), raas.end(), 0);
        for (auto &list : recent)
            list.clear();
    }

    std::uint32_t raa(std::uint32_t bank) const { return raas[bank]; }

  private:
    RfmConfig cfg;
    unsigned depth;
    std::vector<std::uint32_t> raas;
    std::vector<std::vector<std::uint64_t>> recent; // most recent first
};

std::vector<std::pair<std::uint32_t, std::uint64_t>>
protectedRows(const RfmAction &a)
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> rows;
    for (const TrrTarget &t : a.protect)
        rows.push_back({t.bank, t.row});
    return rows;
}

/**
 * Drive `cfg` through RfmEngine and RfmModel(depth) with one seeded
 * stream of `acts` ACTs over 4 banks — hammer-like cycles of 3-24
 * rows drawn with repeats, interleaved with random rows — plus REF
 * commands at random and one reset() halfway. Every ACT's decision
 * (fired, the exact protect list) and the bank's RAA must agree.
 */
void
expectRfmMatchesModel(const RfmConfig &cfg, unsigned depth,
                      std::uint64_t seed, unsigned acts)
{
    constexpr std::uint32_t kBanks = 4;
    RfmEngine eng(cfg, kBanks);
    RfmModel model(cfg, depth, kBanks);
    Rng rng(seed);
    std::vector<std::uint64_t> cycle;
    std::uint32_t cycle_bank = 0;
    std::size_t pos = 0;
    unsigned left = 0;
    for (unsigned i = 0; i < acts; ++i) {
        if (i == acts / 2) {
            eng.reset();
            model.reset();
        }
        if (rng.chance(1.0 / 40)) {
            eng.onRef();
            model.onRef();
        }
        if (left == 0) {
            cycle_bank = static_cast<std::uint32_t>(rng.uniformInt(0, 3));
            unsigned k = static_cast<unsigned>(rng.uniformInt(3, 24));
            std::uint64_t base = rng.uniformInt(0, 1000);
            cycle.clear();
            for (unsigned j = 0; j < k; ++j)
                cycle.push_back(base + rng.uniformInt(0, k));
            left = k * static_cast<unsigned>(rng.uniformInt(1, 40));
            pos = 0;
        }
        std::uint32_t bank = cycle_bank;
        std::uint64_t row;
        if (rng.chance(0.1)) {
            bank = static_cast<std::uint32_t>(rng.uniformInt(0, 3));
            row = rng.uniformInt(0, 1200);
        } else {
            row = cycle[pos++ % cycle.size()];
            --left;
        }
        RfmAction got = eng.observeAct(bank, row);
        RfmAction want = model.observeAct(bank, row);
        ASSERT_EQ(got.fired, want.fired) << "ACT " << i;
        ASSERT_EQ(protectedRows(got), protectedRows(want)) << "ACT " << i;
        ASSERT_EQ(eng.raa(bank), model.raa(bank)) << "ACT " << i;
    }
}

} // namespace

TEST(RfmOracle, RecencyMatchesMoveToFrontModel)
{
    // Every level's preset, and each enabled level with victimsPerRfm
    // in {0, 1, depth, depth + 3} crossed with RAAIMT in {1, 7, 64}.
    // The model keeps a list of `depth` rows (deeper where more rows
    // are protected): the engine's protect lists must not depend on
    // how deep a move-to-front list would be kept.
    constexpr unsigned depth = 16;
    std::uint64_t seed = 1;
    for (RfmLevel level : {RfmLevel::Off, RfmLevel::Relaxed,
                           RfmLevel::Default, RfmLevel::Strict}) {
        RfmConfig preset = RfmConfig::forLevel(level);
        std::vector<RfmConfig> cfgs{preset};
        if (preset.enabled) {
            for (unsigned victims : {0u, 1u, depth, depth + 3}) {
                for (std::uint32_t raaimt : {1u, 7u, 64u}) {
                    RfmConfig cfg = preset;
                    cfg.victimsPerRfm = victims;
                    cfg.raaimt = raaimt;
                    cfgs.push_back(cfg);
                }
            }
        }
        for (const RfmConfig &cfg : cfgs) {
            SCOPED_TRACE(std::string(rfmLevelName(level)) + " victims "
                         + std::to_string(cfg.victimsPerRfm) + " raaimt "
                         + std::to_string(cfg.raaimt));
            expectRfmMatchesModel(cfg, std::max(depth, cfg.victimsPerRfm),
                                  seed++, 200000);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(RfmEngine, PerBankCounters)
{
    RfmConfig cfg;
    cfg.enabled = true;
    cfg.raaimt = 8;
    RfmEngine rfm(cfg, 4);
    // Spread ACTs over 4 banks: no single bank reaches the threshold.
    for (int i = 0; i < 28; ++i)
        EXPECT_FALSE(rfm.observeAct(i % 4, 5).fired);
}

TEST(RfmEngine, DisabledIsTransparent)
{
    RfmEngine rfm(RfmConfig{}, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(rfm.observeAct(0, 1).fired);
    EXPECT_EQ(rfm.rfmCommands(), 0u);
}

TEST(RfmEngine, RefDecrementExactCadence)
{
    // Regression pin for the REF-decrement fix. raaimt=8, REF
    // subtracts 3, workload repeats [5 ACTs, 1 REF]. By hand:
    //   iter 1: raa 0->5, REF -> 2
    //   iter 2: raa 2->7, REF -> 4
    //   iter 3: raa 4->8 fires mid-iter (-8), ends 1, REF -> 0
    // — a period of 3 iterations with exactly one RFM. The buggy model
    // (no decrement) fired floor(150/8) = 18 times instead of 10.
    RfmConfig cfg;
    cfg.enabled = true;
    cfg.raaimt = 8;
    cfg.refDecrement = 3;
    RfmEngine rfm(cfg, 1);
    for (int iter = 0; iter < 30; ++iter) {
        for (int a = 0; a < 5; ++a)
            rfm.observeAct(0, 100 + a);
        rfm.onRef();
    }
    EXPECT_EQ(rfm.rfmCommands(), 10u);
    EXPECT_EQ(rfm.raaIncrements(0), 150u);
}

TEST(RfmEngine, RefAbsorbsSlowActivity)
{
    // An ACT rate at or below the REF decrement rate never owes an
    // RFM: regular refresh already covers that disturbance budget.
    RfmConfig cfg;
    cfg.enabled = true;
    cfg.raaimt = 8;
    cfg.refDecrement = 4;
    RfmEngine rfm(cfg, 1);
    for (int iter = 0; iter < 100; ++iter) {
        for (int a = 0; a < 4; ++a)
            rfm.observeAct(0, 200 + a);
        rfm.onRef();
    }
    EXPECT_EQ(rfm.rfmCommands(), 0u);
}

TEST(RfmEngine, RefDecrementSaturatesAtZero)
{
    RfmConfig cfg;
    cfg.enabled = true;
    cfg.raaimt = 8;
    RfmEngine rfm(cfg, 1);
    rfm.observeAct(0, 1);
    EXPECT_EQ(rfm.raa(0), 1u);
    rfm.onRef(); // default decrement raaimt/2 = 4 > 1: clamps to 0
    EXPECT_EQ(rfm.raa(0), 0u);
    rfm.onRef();
    EXPECT_EQ(rfm.raa(0), 0u);
}

TEST(RfmEngine, ForLevelOperatingPoints)
{
    EXPECT_FALSE(RfmConfig::forLevel(RfmLevel::Off).enabled);

    RfmConfig relaxed = RfmConfig::forLevel(RfmLevel::Relaxed);
    RfmConfig def = RfmConfig::forLevel(RfmLevel::Default);
    RfmConfig strict = RfmConfig::forLevel(RfmLevel::Strict);
    EXPECT_TRUE(relaxed.enabled);
    EXPECT_TRUE(def.enabled);
    EXPECT_TRUE(strict.enabled);
    // Stricter levels demand management more often and protect more.
    EXPECT_GT(relaxed.raaimt, def.raaimt);
    EXPECT_GT(def.raaimt, strict.raaimt);
    EXPECT_GE(strict.victimsPerRfm, def.victimsPerRfm);
    // JEDEC-typical derived default.
    EXPECT_EQ(def.refDecrementEffective(), def.raaimt / 2);

    EXPECT_STREQ(rfmLevelName(RfmLevel::Strict), "strict");
}

TEST(Ddr5, TimingPreset)
{
    auto t = DramTiming::ddr5(4800);
    EXPECT_NEAR(t.tCK, 2000.0 / 4800, 1e-9);
    EXPECT_NEAR(t.tREFI, 3900.0, 1e-9); // doubled refresh rate
    EXPECT_GT(t.tRFM, 0.0);
    EXPECT_GT(t.tABO, 0.0);
    EXPECT_DEATH(DramTiming::ddr5(3200), "unsupported");
}

TEST(Ddr5, ProfileSample)
{
    const auto &d1 = DimmProfile::ddr5Sample();
    EXPECT_EQ(d1.id, "D1");
    EXPECT_EQ(d1.geom.sizeGib(), 16u);
    EXPECT_TRUE(d1.flippable); // cells exist; RFM protects them
}

TEST(Ddr5, RfmStopsNonUniformHammering)
{
    // The same double-sided pressure that flips a DDR4 part is fully
    // absorbed by RFM on the DDR5 sample, even with TRR disabled.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const TrrConfig no_trr = noTrr();
    RfmConfig rfm;
    rfm.enabled = true;

    Dimm with_rfm(d1, DramTiming::ddr5(4800), no_trr, rfm);
    Dimm without(d1, DramTiming::ddr5(4800), no_trr);

    auto hammer = [](Dimm &d) {
        d.fillRow(0, 5001, 0x55, 0.0);
        Ns now = 0.0;
        now = hammerVictim(d, 5001, now, 20000);
        return d.diffRow(0, 5001, 0x55, now).size();
    };

    EXPECT_GT(hammer(without), 0u);
    EXPECT_EQ(hammer(with_rfm), 0u);
    EXPECT_GT(with_rfm.rfmCommandCount(), 100u);
    // Each RFM blocked the bank for tRFM; the stall is accounted.
    EXPECT_GT(with_rfm.rfmStallNs(), 0.0);
}

TEST(Ddr5, RefDecrementReducesDeviceRfmRate)
{
    // Device-level regression for the REF-decrement fix: the same
    // hammer pressure owes strictly fewer RFMs when regular refresh
    // subtracts from the rolling count than when it barely does.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const TrrConfig no_trr = noTrr();

    auto run = [&](std::uint32_t ref_dec) {
        RfmConfig rfm;
        rfm.enabled = true;
        rfm.refDecrement = ref_dec;
        Dimm d(d1, DramTiming::ddr5(4800), no_trr, rfm);
        Ns now = 0.0;
        now = hammerVictim(d, 5001, now, 20000);
        return d.rfmCommandCount();
    };

    std::uint64_t barely = run(1);
    std::uint64_t typical = run(16); // the raaimt/2 JEDEC default
    EXPECT_GT(barely, typical);
    EXPECT_GT(typical, 100u);
}

TEST(Ddr5, RhoHammerFindsNoEffectivePattern)
{
    // Paper section 6: "we have not observed any effective pattern on
    // our setups with DDR5 DIMMs". Full rhoHammer stack vs RFM.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    TrrConfig trr; // stock TRR as well
    // Build a memory system manually around the DDR5 device: reuse
    // the Raptor Lake mapping (16 GiB dual-rank geometry matches).
    MemorySystem sys(SystemSpec(Arch::RaptorLake, d1, trr));
    // Swap in an RFM-protected DIMM is not exposed via MemorySystem;
    // hammer the Dimm-level API directly with the session instead:
    HammerSession session(sys, 77);
    PatternFuzzer fuzzer(session, 78);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 2;
    auto base = fuzzer.run(rhoConfig(Arch::RaptorLake, true, 300000),
                           params);
    // Without RFM the DDR5 cells are flippable...
    EXPECT_GT(base.totalFlips, 0u);

    // ...and the dedicated Dimm-level check above shows RFM absorbing
    // the same pressure. (MemorySystem-level RFM plumbing follows in
    // Ddr5.MemorySystemWithRfm below.)
}

TEST(Ddr5, MemorySystemWithRfm)
{
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    SystemSpec spec(Arch::RaptorLake, d1);
    spec.rfm.enabled = true;
    MemorySystem sys(spec);
    HammerSession session(sys, 79);
    PatternFuzzer fuzzer(session, 80);
    FuzzParams params;
    params.numPatterns = 6;
    params.locationsPerPattern = 2;
    auto res = fuzzer.run(rhoConfig(Arch::RaptorLake, true, 300000),
                          params);
    EXPECT_EQ(res.totalFlips, 0u);
    EXPECT_GT(sys.dimm().rfmCommandCount(), 1000u);
}
