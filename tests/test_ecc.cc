/**
 * @file
 * On-die ECC tests: exhaustive metamorphic pinning of the SEC decoder
 * (single-bit always corrected; the documented double-error
 * miscorrection set {i,j} with (i+1)^(j+1) <= n; zero-syndrome
 * aliasing), plus device-level differential tests proving that the
 * ECC-on Dimm's controller-visible view is exactly the pure decoder
 * applied per codeword to the ECC-off Dimm's raw error field — and
 * that ECC changes nothing below the read path (identical raw flip
 * logs, identical campaign identity only when configured identically).
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hh"
#include "dram/dimm.hh"
#include "dram/ecc.hh"
#include "dram/timing.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "trace/tracer.hh"

using namespace rho;
using namespace rho::test;

// ---------------------------------------------------------------------
// Pure decoder: exhaustive metamorphic pinning
// ---------------------------------------------------------------------

TEST(SecDecoder, EmptyErrorSetIsClean)
{
    SecOnDieEcc ecc(16);
    EXPECT_EQ(ecc.dataBits(), 128u);
    EXPECT_EQ(ecc.decide({}).action, EccAction::Clean);
}

TEST(SecDecoder, EverySingleBitErrorIsCorrected)
{
    SecOnDieEcc ecc(16);
    for (std::uint32_t i = 0; i < ecc.dataBits(); ++i) {
        EccDecision d = ecc.decide({i});
        EXPECT_EQ(d.action, EccAction::Corrected) << "bit " << i;
        EXPECT_EQ(d.targetBit, i);
    }
}

TEST(SecDecoder, DoubleErrorsMiscorrectExactlyTheAliasingPairs)
{
    // The documented miscorrection set: {i, j} is miscorrected iff
    // (i+1) ^ (j+1) <= n, toggling bit ((i+1)^(j+1)) - 1; every other
    // pair has a check-bit syndrome and is merely detected. Exhaustive
    // over all n*(n-1)/2 pairs of the default 16-byte codeword.
    SecOnDieEcc ecc(16);
    const std::uint32_t n = ecc.dataBits();
    unsigned miscorrected = 0, detected = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
            std::uint32_t s = (i + 1) ^ (j + 1);
            ASSERT_NE(s, 0u); // distinct bits never alias syndrome 0
            EccDecision d = ecc.decide({i, j});
            if (s <= n) {
                EXPECT_EQ(d.action, EccAction::Miscorrected)
                    << i << "," << j;
                EXPECT_EQ(d.targetBit, s - 1);
                // The decoder corrupts a third, previously-correct bit.
                EXPECT_NE(d.targetBit, i);
                EXPECT_NE(d.targetBit, j);
                ++miscorrected;
            } else {
                EXPECT_EQ(d.action, EccAction::Detected) << i << "," << j;
                ++detected;
            }
        }
    }
    EXPECT_GT(miscorrected, 0u);
    EXPECT_GT(detected, 0u);
    EXPECT_EQ(miscorrected + detected, n * (n - 1) / 2);
}

TEST(SecDecoder, MiscorrectionPlusTargetAliasesSyndromeZero)
{
    // Metamorphic closure: if {i, j} miscorrects onto bit t, then the
    // triple {i, j, t} XORs to syndrome 0 and must pass Undetected.
    SecOnDieEcc ecc(16);
    const std::uint32_t n = ecc.dataBits();
    unsigned triples = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
            EccDecision d = ecc.decide({i, j});
            if (d.action != EccAction::Miscorrected)
                continue;
            EccDecision u = ecc.decide({i, j, d.targetBit});
            EXPECT_EQ(u.action, EccAction::Undetected)
                << i << "," << j << "," << d.targetBit;
            ++triples;
        }
    }
    EXPECT_GT(triples, 0u);
}

TEST(SecDecoder, DecisionIsOrderInvariant)
{
    SecOnDieEcc ecc(16);
    std::vector<std::uint32_t> e = {5, 90, 17, 64};
    EccDecision ref = ecc.decide(e);
    std::sort(e.begin(), e.end());
    do {
        EccDecision d = ecc.decide(e);
        EXPECT_EQ(d.action, ref.action);
        EXPECT_EQ(d.targetBit, ref.targetBit);
    } while (std::next_permutation(e.begin(), e.end()));
}

// ---------------------------------------------------------------------
// Device level: the ECC-on view is the decoder applied to the raw field
// ---------------------------------------------------------------------

namespace
{

/** Double-sided hammer on a fixed neighbourhood; returns the victim
 *  rows whose raw state the test inspects. */
std::vector<std::uint64_t>
hammerNeighbourhood(Dimm &d, std::uint8_t fill)
{
    const std::uint64_t agg1 = 5000, agg2 = 5002, agg3 = 5004;
    std::vector<std::uint64_t> victims;
    for (std::uint64_t r = 4998; r <= 5006; ++r) {
        d.fillRow(0, r, fill, 0.0);
        if (r != agg1 && r != agg2 && r != agg3)
            victims.push_back(r);
    }
    Ns now = 1.0;
    for (int i = 0; i < 3000; ++i) {
        now += d.access({0, agg1, 0}, now).latency;
        now += d.access({0, agg2, 0}, now).latency;
        now += d.access({0, agg3, 0}, now).latency;
    }
    return victims;
}

} // namespace

TEST(DimmEcc, VisibleFlipsAreTheDecodedRawField)
{
    const std::uint8_t fill = 0xA5;
    const DimmProfile prof = multiBitProfile();
    EccConfig ecc_on;
    ecc_on.enabled = true;

    Dimm raw(prof, DramTiming::ddr4(2666), noTrr());
    Dimm cooked(prof, DramTiming::ddr4(2666), noTrr(), RfmConfig{},
                PracConfig{}, ecc_on);
    auto victims = hammerNeighbourhood(raw, fill);
    auto victims2 = hammerNeighbourhood(cooked, fill);
    ASSERT_EQ(victims, victims2);

    // ECC lives on the read path only: the raw cell arrays, and hence
    // the committed flip logs, are identical.
    ASSERT_EQ(raw.flipLog().size(), cooked.flipLog().size());
    for (std::size_t i = 0; i < raw.flipLog().size(); ++i) {
        EXPECT_EQ(raw.flipLog()[i].row, cooked.flipLog()[i].row);
        EXPECT_EQ(raw.flipLog()[i].bitOffset,
                  cooked.flipLog()[i].bitOffset);
    }

    SecOnDieEcc decoder(ecc_on.codewordBytes);
    const std::uint32_t cw_bits = decoder.dataBits();
    Ns t = 1e9;
    unsigned multi_bit_codewords = 0, corrected_codewords = 0;
    for (std::uint64_t row : victims) {
        auto raw_diffs = raw.diffRow(0, row, fill, t);
        auto cooked_diffs = cooked.diffRow(0, row, fill, t);

        // Group the raw error field by codeword and run the pure
        // decoder: visible = E symmetric-difference {targetBit} when
        // the decoder acts, E otherwise.
        std::map<std::uint32_t, std::vector<std::uint32_t>> by_cw;
        for (const FlipRecord &f : raw_diffs)
            by_cw[f.bitOffset / cw_bits].push_back(f.bitOffset % cw_bits);
        std::set<std::uint32_t> predicted;
        for (auto &[cw, errs] : by_cw) {
            if (errs.size() > 1)
                ++multi_bit_codewords;
            std::set<std::uint32_t> visible(errs.begin(), errs.end());
            EccDecision d = decoder.decide(errs);
            if (d.action == EccAction::Corrected
                || d.action == EccAction::Miscorrected) {
                if (d.action == EccAction::Corrected)
                    ++corrected_codewords;
                if (!visible.erase(d.targetBit))
                    visible.insert(d.targetBit);
            }
            for (std::uint32_t b : visible)
                predicted.insert(cw * cw_bits + b);
        }
        std::set<std::uint32_t> got;
        for (const FlipRecord &f : cooked_diffs)
            got.insert(f.bitOffset);
        EXPECT_EQ(got, predicted) << "row " << row;
    }
    // The scenario must exercise both decoder regimes or it proves
    // nothing: plenty of corrected singles and at least one multi-bit
    // codeword reaching the miscorrection/detection paths.
    EXPECT_GT(corrected_codewords, 0u);
    EXPECT_GT(multi_bit_codewords, 0u);
}

TEST(DimmEcc, CorrectionEventsLandOnTheReadPath)
{
    const std::uint8_t fill = 0xA5;
    EccConfig ecc_on;
    ecc_on.enabled = true;
    const DimmProfile prof = multiBitProfile(); // Dimm keeps a reference
    Dimm d(prof, DramTiming::ddr4(2666), noTrr(), RfmConfig{}, PracConfig{},
           ecc_on);
    Tracer tracer(TraceConfig{true, CatFlip, std::size_t{1} << 20});
    d.setTracer(&tracer);
    auto victims = hammerNeighbourhood(d, fill);
    ASSERT_GT(d.flipLog().size(), 0u);
    Ns t = 1e9;
    std::uint64_t visible = 0;
    for (std::uint64_t row : victims)
        visible += d.diffRow(0, row, fill, t).size();
    d.setTracer(nullptr);
    unsigned corrected = 0, miscorrected = 0;
    for (const TraceEvent &e : tracer.events()) {
        if (e.kind == EventKind::EccCorrected)
            ++corrected;
        else if (e.kind == EventKind::EccMiscorrect)
            ++miscorrected;
    }
    EXPECT_GT(corrected, 0u);
    // Corrections remove raw flips from view; anything the decoder
    // corrupted shows up as extra visible bits.
    EXPECT_EQ(visible + corrected,
              d.flipLog().size() + miscorrected);
}

TEST(DimmEcc, SingleBitEscapeIsHealedOnByteRead)
{
    const std::uint8_t fill = 0xA5;
    EccConfig ecc_on;
    ecc_on.enabled = true;
    const DimmProfile prof = multiBitProfile();
    Dimm raw(prof, DramTiming::ddr4(2666), noTrr());
    Dimm cooked(prof, DramTiming::ddr4(2666), noTrr(), RfmConfig{},
                PracConfig{}, ecc_on);
    auto victims = hammerNeighbourhood(raw, fill);
    hammerNeighbourhood(cooked, fill);

    SecOnDieEcc decoder(ecc_on.codewordBytes);
    const std::uint32_t cw_bits = decoder.dataBits();
    Ns t = 1e9;
    unsigned healed_reads = 0;
    for (std::uint64_t row : victims) {
        std::map<std::uint32_t, std::vector<std::uint32_t>> by_cw;
        for (const FlipRecord &f : raw.diffRow(0, row, fill, t))
            by_cw[f.bitOffset / cw_bits].push_back(f.bitOffset % cw_bits);
        for (auto &[cw, errs] : by_cw) {
            if (errs.size() != 1)
                continue;
            // Single-bit escape: raw read differs from the fill,
            // ECC-corrected read returns it.
            std::uint32_t bit = cw * cw_bits + errs[0];
            DramAddr da{0, row, bit / 8};
            EXPECT_NE(raw.readByte(da, t), fill);
            EXPECT_EQ(cooked.readByte(da, t), fill);
            ++healed_reads;
        }
    }
    EXPECT_GT(healed_reads, 0u);
}

// ---------------------------------------------------------------------
// Campaign identity
// ---------------------------------------------------------------------

TEST(EccCampaign, EccAndRefreshBoostChangeCampaignIdentity)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 2000);
    std::uint64_t base = campaignKey(spec, cfg, 42);

    SystemSpec with_ecc = spec;
    with_ecc.ecc.enabled = true;
    EXPECT_NE(campaignKey(with_ecc, cfg, 42), base);

    SystemSpec wider = with_ecc;
    wider.ecc.codewordBytes = 32;
    EXPECT_NE(campaignKey(wider, cfg, 42),
              campaignKey(with_ecc, cfg, 42));

    SystemSpec boosted = spec;
    boosted.refreshBoost = 4.0;
    EXPECT_NE(campaignKey(boosted, cfg, 42), base);

    // Engine selection stays outside campaign identity.
    SystemSpec ref_engines = spec;
    ref_engines.referenceRowStore = true;
    ref_engines.cpuModel = CpuModelKind::Reference;
    EXPECT_EQ(campaignKey(ref_engines, cfg, 42), base);
}

TEST(EccCampaign, RefreshBoostSuppressesFlipsAtEqualBudget)
{
    auto flipsWithBoost = [](double boost) {
        SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S4"));
        spec.refreshBoost = boost;
        MemorySystem sys(spec);
        HammerSession session(sys, 9);
        HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 120000);
        Rng rng(9);
        HammerPattern p = HammerPattern::randomNonUniform(rng);
        HammerLocation loc = session.tryRandomLocation(p, cfg).loc.value();
        HammerOutcome out = session.hammer(p, loc, cfg);
        return out.flips;
    };
    std::uint64_t stock = flipsWithBoost(1.0);
    std::uint64_t boosted = flipsWithBoost(8.0);
    EXPECT_GT(stock, 0u);
    EXPECT_LT(boosted, stock);
}
