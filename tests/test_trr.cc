/**
 * @file
 * Tests for the TRR / pTRR mitigation models: uniform double-sided
 * hammering must be caught, non-uniform decoy churn must evade the
 * sampler, and pTRR must stop everything.
 */

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hh"
#include "dram/dimm.hh"
#include "dram/trr.hh"
#include "hammer/hammer_session.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;
using namespace rho::test;

TEST(TrrSampler, CountsAndTriggers)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0; // deterministic for the unit test
    cfg.matchThreshold = 10;
    TrrSampler s(cfg, 4);
    for (int i = 0; i < 12; ++i)
        s.observeAct(1, 777);
    auto targets = s.onRefreshTick();
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].bank, 1u);
    EXPECT_EQ(targets[0].row, 777u);
    // The triggered entry is cleared.
    EXPECT_TRUE(s.onRefreshTick().empty());
}

TEST(TrrSampler, MisraGriesChurnEvictsAggressors)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0;
    cfg.counters = 4;
    cfg.matchThreshold = 10;
    TrrSampler s(cfg, 1);
    // Interleave one aggressor with a sea of distinct decoys: the
    // decrement churn keeps the aggressor's count below threshold.
    for (int round = 0; round < 400; ++round) {
        s.observeAct(0, 42);
        for (int d = 0; d < 8; ++d)
            s.observeAct(0, 10000 + round * 8 + d);
    }
    EXPECT_TRUE(s.onRefreshTick().empty());
}

TEST(TrrSampler, CapacityPerTick)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0;
    cfg.matchThreshold = 5;
    cfg.maxRefreshesPerTick = 2;
    TrrSampler s(cfg, 8);
    for (std::uint32_t b = 0; b < 4; ++b) {
        for (int i = 0; i < 8; ++i)
            s.observeAct(b, 100 + b);
    }
    EXPECT_EQ(s.onRefreshTick().size(), 2u); // capacity-limited
    EXPECT_EQ(s.onRefreshTick().size(), 2u); // remainder next tick
}

TEST(TrrSampler, DisabledSamplerDoesNothing)
{
    TrrConfig cfg;
    cfg.enabled = false;
    TrrSampler s(cfg, 2);
    for (int i = 0; i < 1000; ++i)
        s.observeAct(0, 1);
    EXPECT_TRUE(s.onRefreshTick().empty());
    EXPECT_EQ(s.targetedRefreshes(), 0u);
}

namespace
{

/**
 * Straight-line model of TrrSampler drawing through the std library
 * (std::mt19937_64 + std::bernoulli_distribution, with Rng::chance's
 * draw-free p <= 0 and p >= 1 edges): the pTRR coin first, then the
 * TRR sampling coin, per ACT.
 */
struct TrrModel
{
    struct Entry
    {
        std::uint64_t row;
        std::uint32_t count;
    };

    TrrModel(const TrrConfig &c, std::uint32_t banks)
        : cfg(c), tables(banks), eng(c.seed)
    {
    }

    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return std::bernoulli_distribution(p)(eng);
    }

    std::optional<TrrTarget>
    observeAct(std::uint32_t bank, std::uint64_t row)
    {
        std::optional<TrrTarget> hit;
        if (cfg.ptrr && chance(cfg.ptrrSampleProb))
            hit = TrrTarget{bank, row};
        if (!cfg.enabled || !chance(cfg.sampleProb))
            return hit;
        auto &table = tables[bank];
        for (auto &e : table) {
            if (e.row == row) {
                ++e.count;
                return hit;
            }
        }
        if (table.size() < cfg.counters) {
            table.push_back({row, 1});
            return hit;
        }
        for (auto &e : table)
            e.count -= e.count > 0;
        std::erase_if(table, [](const Entry &e) { return e.count == 0; });
        return hit;
    }

    std::vector<TrrTarget>
    onRefreshTick()
    {
        struct Cand { std::uint32_t bank; std::uint64_t row; std::uint32_t cnt; };
        std::vector<Cand> cands;
        for (std::uint32_t b = 0; b < tables.size(); ++b) {
            for (const Entry &e : tables[b]) {
                if (e.count >= cfg.matchThreshold)
                    cands.push_back({b, e.row, e.count});
            }
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Cand &a, const Cand &b) { return a.cnt > b.cnt; });
        std::vector<TrrTarget> out;
        for (const Cand &c : cands) {
            if (out.size() >= cfg.maxRefreshesPerTick)
                break;
            out.push_back({c.bank, c.row});
        }
        for (const TrrTarget &t : out) {
            std::erase_if(tables[t.bank],
                          [&](const Entry &e) { return e.row == t.row; });
        }
        return out;
    }

    TrrConfig cfg;
    std::vector<std::vector<Entry>> tables;
    std::mt19937_64 eng;
};

/** One sampler decision: a pTRR hit or a per-tick targeted refresh. */
struct TrrDecision
{
    std::uint64_t act; //!< ACT index the decision followed
    bool ptrr;
    std::uint32_t bank;
    std::uint64_t row;

    bool operator==(const TrrDecision &) const = default;
};

/**
 * Feed a fixed two-bank ACT stream to `s` (a TrrSampler or TrrModel)
 * with a refresh tick every 40 ACTs: double-sided aggressor pairs with
 * every fifth ACT a fresh decoy row.
 */
template <typename Sampler>
std::vector<TrrDecision>
driveTrr(Sampler &s)
{
    std::vector<TrrDecision> out;
    for (std::uint64_t i = 0; i < 40000; ++i) {
        std::uint32_t bank = i % 2;
        std::uint64_t row = i % 5 == 4 ? 100000 + i
                                       : 1000 * (bank + 1) + 2 * (i / 2 % 2);
        if (auto hit = s.observeAct(bank, row))
            out.push_back({i, true, hit->bank, hit->row});
        if (i % 40 == 39) {
            for (const TrrTarget &t : s.onRefreshTick())
                out.push_back({i, false, t.bank, t.row});
        }
    }
    return out;
}

} // namespace

/**
 * Pins the sampling stream (every other TrrSampler test uses
 * sampleProb 1.0, which draws nothing): every pTRR hit and every
 * targeted refresh matches a model that draws from a std::mt19937_64
 * seeded with cfg.seed. Each coin path runs: TRR with pTRR, TRR alone
 * (the default), pTRR alone and neither, at the default sampleProb and
 * at a non-dyadic one.
 */
TEST(TrrSampler, DrawStreamMatchesRngModel)
{
    for (double sample_prob : {0.25, 0.3}) {
        for (bool trr : {true, false}) {
            for (bool ptrr : {true, false}) {
                SCOPED_TRACE("sampleProb " + std::to_string(sample_prob)
                             + (trr ? " TRR" : "") + (ptrr ? " pTRR" : ""));
                TrrConfig cfg;
                cfg.enabled = trr;
                cfg.ptrr = ptrr;
                cfg.sampleProb = sample_prob;
                TrrSampler s(cfg, 2);
                TrrModel model(cfg, 2);
                std::vector<TrrDecision> got = driveTrr(s);
                std::vector<TrrDecision> want = driveTrr(model);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    ASSERT_EQ(got[i], want[i]) << "decision " << i;
                std::size_t ptrr_hits = std::count_if(
                    want.begin(), want.end(),
                    [](const TrrDecision &d) { return d.ptrr; });
                // ~160 pTRR hits expected; TRR fires when enabled.
                if (ptrr)
                    EXPECT_GT(ptrr_hits, 50u);
                else
                    EXPECT_EQ(ptrr_hits, 0u);
                if (trr)
                    EXPECT_GT(want.size() - ptrr_hits, 50u);
                else
                    EXPECT_EQ(want.size(), ptrr_hits);
                EXPECT_EQ(s.targetedRefreshes(), want.size());
            }
        }
    }
}

TEST(TrrSampler, ResetReplaysFreshSampler)
{
    TrrConfig cfg;
    cfg.ptrr = true;
    TrrSampler s(cfg, 2);
    std::vector<TrrDecision> first = driveTrr(s);
    // Leave state mid-stream: partial tables and a partly used engine.
    for (std::uint64_t i = 0; i < 777; ++i)
        s.observeAct(0, 1000 + i % 3);
    s.reset();
    EXPECT_EQ(s.targetedRefreshes(), 0u);
    EXPECT_EQ(driveTrr(s), first);
    EXPECT_EQ(s.targetedRefreshes(), first.size());
}

/**
 * Pins onRefreshTick against TrrModel's brute-force scan of every bank
 * table, tick by tick, at the default sampling probabilities. Each
 * config runs a seeded stream over 4 banks: one dominant and two minor
 * hot rows per bank, mixed with fresh decoys at a rate that changes
 * every 2000 ACTs, a tick after ~1 ACT in 40, and a reset() halfway. Threshold 0 rides along:
 * entries never sit at count 0, so it must behave like threshold 1.
 */
TEST(TrrOracle, RefreshTickMatchesFullScanModel)
{
    constexpr std::uint32_t kBanks = 4;
    constexpr std::uint64_t kActs = 40000;
    std::uint64_t cfg_index = 0;
    for (std::uint32_t threshold : {0u, 1u, 2u, 5u, 24u}) {
        for (unsigned counters : {1u, 4u, 16u}) {
            for (bool ptrr : {false, true}) {
                SCOPED_TRACE("threshold " + std::to_string(threshold)
                             + " counters " + std::to_string(counters)
                             + (ptrr ? " pTRR" : ""));
                TrrConfig cfg;
                cfg.matchThreshold = threshold;
                cfg.counters = counters;
                cfg.ptrr = ptrr;
                TrrSampler s(cfg, kBanks);
                TrrModel model(cfg, kBanks);
                Rng stream(0x7e57 + cfg_index++);
                double decoy_rate = 0.0;
                std::uint64_t issued = 0; // since the reset
                std::uint64_t targets = 0;
                for (std::uint64_t i = 0; i < kActs; ++i) {
                    if (i == kActs / 2) {
                        s.reset();
                        model = TrrModel(cfg, kBanks);
                    }
                    if (i % 2000 == 0)
                        decoy_rate = stream.uniformReal(0.0, 0.7);
                    auto bank = static_cast<std::uint32_t>(
                        stream.uniformInt(0, kBanks - 1));
                    std::uint64_t row = 1000 * bank;
                    if (stream.chance(decoy_rate))
                        row = 100000 + stream.uniformInt(0, 1u << 20);
                    else if (stream.chance(0.2))
                        row += 2 * stream.uniformInt(1, 2);
                    std::optional<TrrTarget> got = s.observeAct(bank, row);
                    std::optional<TrrTarget> want =
                        model.observeAct(bank, row);
                    ASSERT_EQ(got.has_value(), want.has_value())
                        << "ACT " << i;
                    issued += i >= kActs / 2 && want;
                    if (!stream.chance(1.0 / 40))
                        continue;
                    std::vector<TrrTarget> ticked = s.onRefreshTick();
                    std::vector<TrrTarget> scanned = model.onRefreshTick();
                    ASSERT_EQ(ticked.size(), scanned.size()) << "ACT " << i;
                    for (std::size_t k = 0; k < scanned.size(); ++k) {
                        ASSERT_EQ(ticked[k].bank, scanned[k].bank)
                            << "ACT " << i;
                        ASSERT_EQ(ticked[k].row, scanned[k].row)
                            << "ACT " << i;
                    }
                    if (i >= kActs / 2) {
                        issued += scanned.size();
                        targets += scanned.size();
                    }
                }
                EXPECT_EQ(s.targetedRefreshes(), issued);
                EXPECT_GT(targets, 0u);
            }
        }
    }
}

namespace
{

/** Double-sided hammer loop; returns flips on the victim. */
std::size_t
doubleSidedFlips(const TrrConfig &trr, int pairs = 12000)
{
    const DimmProfile prof = // Dimm keeps a reference
        weakCells(DimmProfile::byId("S4"), 4.0, 4000.0, 0.1, 3000);
    Dimm d(prof, DramTiming::ddr4(2666), trr);
    d.fillRow(0, 5001, 0x55, 0.0);
    Ns now = 0.0;
    now = hammerVictim(d, 5001, now, pairs);
    return d.diffRow(0, 5001, 0x55, now).size();
}

} // namespace

TEST(Trr, CatchesDoubleSidedHammering)
{
    EXPECT_EQ(doubleSidedFlips(TrrConfig{}), 0u);
}

TEST(Trr, WithoutTrrDoubleSidedFlips)
{
    const TrrConfig off = noTrr();
    EXPECT_GT(doubleSidedFlips(off), 0u);
}

/**
 * Regression for the Misra–Gries evasion mechanism DESIGN.md §3.2
 * rests on: a sampled aggressor whose counter has accumulated real
 * weight is *evicted* by a stream of distinct decoy activations, so
 * it never reaches the trigger threshold.
 */
TEST(TrrEvasion, DecoyChurnEvictsASampledAggressorCounter)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0; // deterministic for the regression
    cfg.counters = 4;
    cfg.matchThreshold = 16;
    TrrSampler s(cfg, 1);

    // The aggressor accumulates weight just below the threshold...
    for (int i = 0; i < 12; ++i)
        s.observeAct(0, 42);
    // ...then Blacksmith-style decoys (all distinct rows) churn the
    // table: Misra-Gries decrements drain the aggressor's counter and
    // finally evict the entry.
    for (int d = 0; d < 200; ++d)
        s.observeAct(0, 20000 + d);
    // Even hammering the aggressor some more afterwards stays below
    // threshold: its history was wiped with the eviction.
    for (int i = 0; i < 12; ++i)
        s.observeAct(0, 42);
    EXPECT_TRUE(s.onRefreshTick().empty());

    // Control: the same total aggressor weight without decoy churn
    // trips the sampler.
    TrrSampler control(cfg, 1);
    for (int i = 0; i < 24; ++i)
        control.observeAct(0, 42);
    auto targets = control.onRefreshTick();
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].row, 42u);
}

/**
 * End-to-end pin of the evasion behaviour through the full attack
 * stack: with in-DRAM TRR enabled, the uniform double-sided pattern
 * is caught (zero flips) while a Blacksmith-style non-uniform
 * pattern's decoy activations evade the sampler and produce flips.
 */
TEST(TrrEvasion, NonUniformFlipsWhereUniformIsCaught)
{
    const std::uint64_t budget = 300000;
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, budget);

    // Uniform double-sided: TRR locks onto the single aggressor pair.
    {
        MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S4")));
        HammerSession session(sys, 40);
        HammerPattern uniform = HammerPattern::doubleSided();
        auto out =
            session.hammer(uniform, HammerLocation{1, 5000}, cfg);
        EXPECT_EQ(out.flips, 0u);
        EXPECT_GT(sys.dimm().trrRefreshCount(), 0u);
    }

    // Non-uniform: decoy churn evades the sampler; across a few
    // seeds the pattern family reliably produces flips.
    std::uint64_t nonuniform_flips = 0;
    for (std::uint64_t seed = 1; seed <= 6 && nonuniform_flips == 0;
         ++seed) {
        MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S4")));
        HammerSession session(sys, seed);
        Rng rng(seed);
        HammerPattern pattern = HammerPattern::randomNonUniform(rng);
        auto loc = session.tryRandomLocation(pattern, cfg).loc.value();
        nonuniform_flips += session.hammer(pattern, loc, cfg).flips;
    }
    EXPECT_GT(nonuniform_flips, 0u);
}

TEST(Trr, PtrrStopsEvasiveHammering)
{
    // pTRR samples every ACT with small probability, which no access
    // pattern can evade: even with the in-DRAM TRR disabled, the
    // victim keeps being refreshed.
    TrrConfig ptrr;
    ptrr.enabled = false;
    ptrr.ptrr = true;
    ptrr.ptrrSampleProb = 2e-3;
    EXPECT_EQ(doubleSidedFlips(ptrr), 0u);
}
