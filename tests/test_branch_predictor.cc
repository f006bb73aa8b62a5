/**
 * @file
 * Tests for the gshare/BTB branch predictor. Each branch is named by
 * splitMix64 of its PC, as both CPU engines pass it; mispredicts are
 * counted from predictAndUpdate's return value.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cpu/branch_predictor.hh"

using namespace rho;

namespace
{

/** Resolve `n` branches at `pc`, direction and target from `outcome(i)`. */
template <typename Outcome>
std::uint64_t
countMisses(BranchPredictor &bp, std::uint64_t pc, int n, Outcome outcome)
{
    std::uint64_t miss = 0;
    for (int i = 0; i < n; ++i) {
        auto [taken, target] = outcome(i);
        miss += bp.predictAndUpdate(splitMix64(pc), taken, target);
    }
    return miss;
}

} // namespace

TEST(BranchPredictor, LearnsAlwaysTakenLoop)
{
    BranchPredictor bp;
    auto loop = [](int) { return std::pair<bool, std::uint64_t>{true, 0x99}; };
    countMisses(bp, 0x1234, 1000, loop);
    // After warmup the loop branch should predict near-perfectly.
    EXPECT_EQ(countMisses(bp, 0x1234, 1000, loop), 0u);
}

TEST(BranchPredictor, LearnsAlternatingPatternViaHistory)
{
    BranchPredictor bp;
    auto alternate = [](int i) {
        return std::pair<bool, std::uint64_t>{(i & 1) != 0, 0x7};
    };
    countMisses(bp, 0x42, 4000, alternate);
    // gshare history disambiguates a strict alternation.
    EXPECT_LT(countMisses(bp, 0x42, 1000, alternate), 100u);
}

TEST(BranchPredictor, RandomDirectionsUnpredictable)
{
    BranchPredictor bp;
    Rng rng(5);
    std::uint64_t miss = countMisses(bp, 0x77, 2000, [&](int) {
        return std::pair<bool, std::uint64_t>{rng.chance(0.5), 1};
    });
    EXPECT_GT(double(miss) / 2000.0, 0.35);
}

TEST(BranchPredictor, RandomTargetsDefeatBtb)
{
    // Control-flow obfuscation: taken branches with rotating targets
    // miss in the BTB even when the direction is predictable.
    BranchPredictor bp;
    Rng rng(6);
    std::uint64_t miss = countMisses(bp, 0x88, 2000, [&](int) {
        return std::pair<bool, std::uint64_t>{true, 1 + rng.uniformInt(0, 7)};
    });
    EXPECT_GT(double(miss) / 2000.0, 0.7);
}

TEST(BranchPredictor, ResetClearsState)
{
    BranchPredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.predictAndUpdate(splitMix64(0x1), true, 2);
    bp.reset();
    // First taken branch after reset mispredicts (cold BTB + weakly
    // not-taken counters).
    EXPECT_TRUE(bp.predictAndUpdate(splitMix64(0x1), true, 2));
}

TEST(BranchPredictor, DistinctPcsTrackSeparately)
{
    BranchPredictor bp;
    auto both = [&bp]() {
        return bp.predictAndUpdate(splitMix64(0xa), true, 1)
            + bp.predictAndUpdate(splitMix64(0xb), false, 0);
    };
    for (int i = 0; i < 500; ++i)
        both();
    std::uint64_t miss = 0;
    for (int i = 0; i < 200; ++i)
        miss += both();
    EXPECT_LT(miss, 40u);
}
