/**
 * @file
 * Property suite for the frequency-domain pattern genome layer:
 * synthesis invariants, the freq > period clamp, parameter
 * validation, mutate/crossover closure, and the wide-pattern
 * placement regression (unsigned wrap in random placement).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "hammer/hammer_session.hh"
#include "hammer/nop_tuner.hh"
#include "hammer/pattern.hh"

using namespace rho;

namespace
{

/** Shared invariants every materialized pattern must satisfy. */
void
expectWellFormed(const HammerPattern &p, const PatternParams &params)
{
    EXPECT_GE(p.numPairs(), params.minPairs);
    EXPECT_LE(p.numPairs(), params.maxPairs);
    EXPECT_GE(p.slots().size(), 1u << params.minPeriodLog2);
    EXPECT_LE(p.slots().size(), 1u << params.maxPeriodLog2);
    // Power-of-two period.
    EXPECT_EQ(p.slots().size() & (p.slots().size() - 1), 0u);
    for (unsigned s : p.slots())
        EXPECT_LT(s, p.numPairs()); // every slot filled, none dangling
    ASSERT_EQ(p.genome().size(), p.numPairs());
    for (const PairGene &g : p.genome()) {
        EXPECT_LE(g.rowOffset, params.maxRowSpread);
        EXPECT_LE(g.ampLog2, params.maxAmpLog2);
        EXPECT_LT(g.phase, p.slots().size());
        // Frequencies never exceed the period after materialization.
        EXPECT_LE(1u << g.freqLog2, p.slots().size());
    }
    unsigned max_off = 0;
    for (const PairGene &g : p.genome())
        max_off = std::max(max_off, g.rowOffset);
    EXPECT_GE(p.footprintRows(), max_off + 3);
}

} // namespace

TEST(PatternParamsCheck, DefaultsAreValid)
{
    EXPECT_TRUE(patternParamsOk(PatternParams{}));
    EXPECT_EQ(patternParamsError(PatternParams{}), "");
}

TEST(PatternParamsCheck, InvertedRangesRejected)
{
    PatternParams p;
    p.minPairs = 10;
    p.maxPairs = 4;
    EXPECT_FALSE(patternParamsOk(p));

    p = PatternParams{};
    p.minPeriodLog2 = 7;
    p.maxPeriodLog2 = 5;
    EXPECT_FALSE(patternParamsOk(p));

    p = PatternParams{};
    p.minPairs = 0;
    EXPECT_FALSE(patternParamsOk(p));
}

TEST(PatternParamsCheck, FreqAbovePeriodRejected)
{
    // maxFreqLog2 >= minPeriodLog2 allows a frequency above the
    // smallest period — the degenerate range behind the old
    // period/freq == 0 collapse.
    PatternParams p;
    p.minPeriodLog2 = 5;
    p.maxFreqLog2 = 5;
    EXPECT_FALSE(patternParamsOk(p));

    p = PatternParams{};
    p.maxAmpLog2 = p.minPeriodLog2;
    EXPECT_FALSE(patternParamsOk(p));
}

TEST(PatternGenome, RandomGenomeWellFormed)
{
    Rng rng(11);
    PatternParams params;
    for (int i = 0; i < 50; ++i) {
        auto p = HammerPattern::randomGenome(rng, params);
        expectWellFormed(p, params);
        EXPECT_TRUE(p.hasGenome());
        // Genome row offsets drive the footprint (tight, not the
        // legacy nPairs * stride quote).
        unsigned max_off = 0;
        for (const PairGene &g : p.genome())
            max_off = std::max(max_off, g.rowOffset);
        EXPECT_EQ(p.footprintRows(), max_off + 3);
        for (unsigned pair = 0; pair < p.numPairs(); ++pair)
            EXPECT_EQ(p.pairRowOffset(pair), p.genome()[pair].rowOffset);
    }
}

TEST(PatternGenome, LegacySamplerKeepsUniformFootprint)
{
    // randomNonUniform records genes but must keep the historical
    // stride layout and footprint quote — golden traces replay it.
    Rng rng(3);
    auto p = HammerPattern::randomNonUniform(rng);
    EXPECT_TRUE(p.hasGenome());
    EXPECT_EQ(p.footprintRows(), p.numPairs() * p.stride() + 3);
    for (unsigned pair = 0; pair < p.numPairs(); ++pair)
        EXPECT_EQ(p.pairRowOffset(pair), pair * p.stride());
}

TEST(PatternGenome, FromGenomeExactAppearanceCounts)
{
    // Fully subscribed period: every slot is claimed by a gene, so
    // per-pair appearance counts are exact (no filler ambiguity).
    // period 8 = pair0 (4 appearances x amp 1) + pair1 (2 x 2).
    std::vector<PairGene> genome = {
        {/*freqLog2=*/2, /*ampLog2=*/0, /*phase=*/0, /*rowOffset=*/0},
        {/*freqLog2=*/1, /*ampLog2=*/1, /*phase=*/1, /*rowOffset=*/8},
    };
    auto p = HammerPattern::fromGenome(99, 8, genome);
    std::vector<unsigned> counts(p.numPairs(), 0);
    for (unsigned s : p.slots())
        ++counts[s];
    EXPECT_EQ(counts[0], 4u);
    EXPECT_EQ(counts[1], 4u);
}

TEST(PatternGenome, FreqAbovePeriodClampsToPeriod)
{
    // freqLog2 8 on a 4-slot period: the unclamped period/freq step is
    // zero (the old collapse); clamped, the pair claims exactly the
    // whole period — once per slot, not 256 stacked placements.
    std::vector<PairGene> genome = {
        {/*freqLog2=*/8, /*ampLog2=*/0, /*phase=*/2, /*rowOffset=*/0},
        {/*freqLog2=*/0, /*ampLog2=*/0, /*phase=*/0, /*rowOffset=*/4},
    };
    auto p = HammerPattern::fromGenome(7, 4, genome);
    ASSERT_EQ(p.slots().size(), 4u);
    unsigned pair0 = 0;
    for (unsigned s : p.slots())
        pair0 += s == 0 ? 1 : 0;
    // The saturating pair owns the full period; the later gene's
    // placements drop (oversubscription is legal and earlier genes
    // win).
    EXPECT_EQ(pair0, 4u);
}

TEST(PatternGenome, RandomNonUniformClampsFreqToSmallPeriods)
{
    // Degenerate-but-callable params: frequency range above the
    // period. The sampler must clamp (bounded placement work) and
    // still produce a fully assigned slot sequence.
    PatternParams params;
    params.minPairs = 2;
    params.maxPairs = 4;
    params.minPeriodLog2 = 2; // 4 slots
    params.maxPeriodLog2 = 2;
    params.maxFreqLog2 = 6; // up to 64 "appearances"
    params.maxAmpLog2 = 1;
    Rng rng(21);
    for (int i = 0; i < 50; ++i) {
        auto p = HammerPattern::randomNonUniform(rng, params);
        ASSERT_EQ(p.slots().size(), 4u);
        for (unsigned s : p.slots())
            EXPECT_LT(s, p.numPairs());
        for (const PairGene &g : p.genome())
            EXPECT_LE(1u << g.freqLog2, p.slots().size());
    }
}

TEST(PatternGenome, FromGenomeIsDeterministic)
{
    Rng rng(5);
    auto a = HammerPattern::randomGenome(rng, PatternParams{});
    auto b = HammerPattern::fromGenome(
        a.id(), static_cast<unsigned>(a.slots().size()), a.genome());
    EXPECT_EQ(a.slots(), b.slots());
    EXPECT_EQ(a.genomeFingerprint(), b.genomeFingerprint());
    EXPECT_EQ(a.footprintRows(), b.footprintRows());
}

TEST(PatternGenome, MutatePreservesInvariants)
{
    PatternParams params;
    Rng rng(31);
    auto p = HammerPattern::randomGenome(rng, params);
    for (int i = 0; i < 300; ++i) {
        p = p.mutate(rng, params);
        expectWellFormed(p, params);
    }
}

TEST(PatternGenome, MutateIsDeterministicUnderRng)
{
    PatternParams params;
    Rng seed_rng(41);
    auto parent = HammerPattern::randomGenome(seed_rng, params);
    Rng a(77), b(77);
    auto ca = parent.mutate(a, params);
    auto cb = parent.mutate(b, params);
    EXPECT_EQ(ca.id(), cb.id());
    EXPECT_EQ(ca.slots(), cb.slots());
    EXPECT_EQ(ca.genomeFingerprint(), cb.genomeFingerprint());
}

TEST(PatternGenome, CrossoverPreservesInvariants)
{
    PatternParams params;
    Rng rng(51);
    for (int i = 0; i < 200; ++i) {
        auto a = HammerPattern::randomGenome(rng, params);
        auto b = HammerPattern::randomGenome(rng, params);
        auto child = HammerPattern::crossover(rng, a, b);
        expectWellFormed(child, params);
        // Pair count bounded by the parents' counts.
        EXPECT_GE(child.numPairs(),
                  std::min(a.numPairs(), b.numPairs()));
        EXPECT_LE(child.numPairs(),
                  std::max(a.numPairs(), b.numPairs()));
        // Period comes from one of the parents.
        EXPECT_TRUE(child.slots().size() == a.slots().size() ||
                    child.slots().size() == b.slots().size());
        // Every child gene matches the same-position gene of a parent
        // (phases are re-wrapped mod the child's period, so compare
        // them modulo that).
        unsigned period = static_cast<unsigned>(child.slots().size());
        auto matches = [&](const std::vector<PairGene> &parent,
                           std::size_t g) {
            if (g >= parent.size())
                return false;
            const PairGene &pg = parent[g];
            const PairGene &cg = child.genome()[g];
            return pg.freqLog2 == cg.freqLog2
                && pg.ampLog2 == cg.ampLog2
                && pg.rowOffset == cg.rowOffset
                && pg.phase % period == cg.phase;
        };
        for (std::size_t g = 0; g < child.genome().size(); ++g) {
            EXPECT_TRUE(matches(a.genome(), g) || matches(b.genome(), g))
                << "gene " << g;
        }
    }
}

TEST(PatternGenome, CrossoverIsDeterministicUnderRng)
{
    PatternParams params;
    Rng seed_rng(61);
    auto pa = HammerPattern::randomGenome(seed_rng, params);
    auto pb = HammerPattern::randomGenome(seed_rng, params);
    Rng a(88), b(88);
    auto ca = HammerPattern::crossover(a, pa, pb);
    auto cb = HammerPattern::crossover(b, pa, pb);
    EXPECT_EQ(ca.id(), cb.id());
    EXPECT_EQ(ca.slots(), cb.slots());
    EXPECT_EQ(ca.genomeFingerprint(), cb.genomeFingerprint());
}

namespace
{

/**
 * A pathologically wide genome: one pair offset past the whole bank.
 * Random placement once computed rowsPerBank - span - 8 in unsigned
 * arithmetic, wrapped to ~2^64, and placed aggressors out of bounds.
 */
HammerPattern
wideGenome(const MemorySystem &sys)
{
    std::uint64_t rows = sys.dimm().geometry().rowsPerBank;
    std::vector<PairGene> genome = {
        {0, 0, 0, 0},
        {0, 0, 1, static_cast<unsigned>(rows)},
    };
    auto wide = HammerPattern::fromGenome(1, 8, genome);
    EXPECT_GT(wide.footprintRows() + 16, rows);
    return wide;
}

} // namespace

TEST(WidePatternRegression, TryRandomLocationReportsUnplaceable)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2")));
    HammerSession session(sys, 9);
    LocationPick pick =
        session.tryRandomLocation(wideGenome(sys), HammerConfig{});
    EXPECT_FALSE(pick.ok());
    EXPECT_EQ(pick.failure, FailureCode::PatternUnplaceable);
}

TEST(WidePatternRegression, NopTunerReportsUnplaceable)
{
    // The tuner must not hammer a clamped stand-in location.
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2")));
    HammerSession session(sys, 9);
    NopTuneResult res = tuneNops(session, wideGenome(sys), HammerConfig{},
                                 {0, 200}, /*locations=*/2);
    EXPECT_EQ(res.failure, FailureCode::PatternUnplaceable);
    EXPECT_TRUE(res.curve.empty());
    EXPECT_EQ(res.bestFlips, 0u);
    EXPECT_EQ(sys.dimm().totalActs(), 0u);
}

TEST(WidePatternRegression, PlaceablePatternsStillPlace)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2")));
    HammerSession session(sys, 10);
    HammerConfig cfg;
    Rng rng(71);
    for (int i = 0; i < 50; ++i) {
        auto p = HammerPattern::randomGenome(rng, PatternParams{});
        LocationPick pick = session.tryRandomLocation(p, cfg);
        ASSERT_TRUE(pick.ok());
        EXPECT_EQ(pick.failure, FailureCode::None);
        EXPECT_LT(pick.loc->baseRow + p.footprintRows() + 8,
                  sys.dimm().geometry().rowsPerBank);
        EXPECT_GE(pick.loc->baseRow, 8u);
    }
}
