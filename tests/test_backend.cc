/**
 * @file
 * Cross-backend differential suite for the multi-vendor ArchBackend
 * work: every modelled architecture (Intel linear GF(2) presets, AMD
 * Zen 3's non-linear region-offset mapping, ARM Cortex-A72 on LPDDR4)
 * runs the quickstart and TRR-evasion scenarios of tests/differential.hh
 * over its engine matrix — {Flat, Reference} row store x {Blocked,
 * Reference} CPU replay x --jobs — and every cell must be
 * byte-identical to the reference cell; REF-synced campaigns must not
 * depend on --jobs. Alongside sit the backend property tests: arch
 * registry completeness, decode/encode bijectivity fuzz, same-bank-set
 * closure against the mapping's XOR structure, REF-sync detection
 * determinism, Half-Double disturb bounds on LPDDR4, and reset parity
 * of the per-backend device state.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hh"
#include "dram/dimm.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/ref_sync.hh"
#include "mapping/mapping_presets.hh"

using namespace rho;
using namespace rho::test;

// ---------------------------------------------------------------------
// Arch registry (X-macro) completeness
// ---------------------------------------------------------------------

TEST(ArchRegistry, EnumeratesEveryArchExactlyOnce)
{
    // allArchs is generated from RHO_ARCH_LIST, the same X-macro that
    // generates the enum itself, and a static_assert pins the count;
    // this test pins the *runtime* metadata switches to the registry.
    EXPECT_EQ(allArchs.size(), archCount);
    std::set<Arch> vals(allArchs.begin(), allArchs.end());
    EXPECT_EQ(vals.size(), archCount) << "duplicate enum value";

    std::set<std::string> names;
    for (Arch a : allArchs) {
        EXPECT_FALSE(archName(a).empty());
        EXPECT_FALSE(archCpu(a).empty());
        EXPECT_GT(archMemFreq(a), 0u);
        names.insert(archName(a));
    }
    EXPECT_EQ(names.size(), archCount) << "duplicate arch name";

    // Both non-Intel platforms are registered and expose REF blocking;
    // the Intel parts hide it behind controller queueing.
    EXPECT_TRUE(vals.count(Arch::Zen3));
    EXPECT_TRUE(vals.count(Arch::CortexA72));
    EXPECT_TRUE(archRefBlocking(Arch::Zen3));
    EXPECT_TRUE(archRefBlocking(Arch::CortexA72));
    EXPECT_FALSE(archRefBlocking(Arch::CometLake));
    EXPECT_FALSE(archRefBlocking(Arch::RaptorLake));
}

TEST(ArchRegistry, FamilyKindsMatchVendor)
{
    struct Geo
    {
        unsigned sizeGib, ranks;
    };
    for (Geo g : {Geo{8, 1}, {16, 2}, {32, 2}}) {
        for (Arch a : allArchs) {
            AddressMapping m = mappingFor(a, g.sizeGib, g.ranks);
            if (a == Arch::Zen3) {
                EXPECT_NE(m.regionOffset(), 0u);
                EXPECT_NE(m.describe().find("Offset"), std::string::npos);
            } else {
                EXPECT_EQ(m.regionOffset(), 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mapping property tests
// ---------------------------------------------------------------------

class BackendProps : public ::testing::TestWithParam<Arch>
{
};

TEST_P(BackendProps, BijectivityFuzzTenThousandAddresses)
{
    Arch arch = GetParam();
    struct Geo
    {
        unsigned sizeGib, ranks;
    };
    for (Geo g : {Geo{8, 1}, {16, 2}, {32, 2}}) {
        AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
        Rng rng(0xb1cec7 + g.sizeGib);
        for (int i = 0; i < 10000; ++i) {
            PhysAddr pa = rng.uniformInt(0, m.memBytes() - 1);
            DramAddr da = m.decode(pa);
            ASSERT_LT(da.bank, m.numBanks());
            ASSERT_LT(da.row, m.numRows());
            ASSERT_LT(da.col, m.numCols());
            ASSERT_EQ(m.encode(da), pa) << "pa=" << pa;
        }
    }
}

TEST_P(BackendProps, SameBankSetClosureMatchesXorStructure)
{
    // The bank partition induced by decode() must agree with the
    // mapping's own published XOR structure *in normalized space*: two
    // addresses share a bank iff every bank function has equal parity
    // on their normalized forms. For Zen 3 this pins the mod-2^n
    // offset transform of decode() to the one normalize() exposes; for
    // linear mappings normalize() is the identity.
    Arch arch = GetParam();
    AddressMapping m = mappingFor(arch, 8, 1);
    const auto &fns = m.bankFnMasks();
    Rng rng(0xc105);

    std::map<std::uint32_t, PhysAddr> rep; // one representative per bank
    for (int i = 0; i < 2000; ++i) {
        PhysAddr pa = rng.uniformInt(0, m.memBytes() - 1);
        std::uint32_t bank = m.decode(pa).bank;
        auto [it, fresh] = rep.emplace(bank, pa);
        (void)fresh;
        // Same bank => every function agrees on the normalized pair.
        std::uint64_t diff = m.normalize(pa) ^ m.normalize(it->second);
        for (std::uint64_t fn : fns) {
            EXPECT_EQ(__builtin_parityll(fn & diff), 0)
                << "bank " << bank << " violates fn " << std::hex << fn;
        }
    }
    // All banks show up, and representatives of different banks are
    // separated by at least one function (the converse direction).
    EXPECT_EQ(rep.size(), m.numBanks());
    for (auto &[b1, p1] : rep) {
        for (auto &[b2, p2] : rep) {
            if (b1 >= b2)
                continue;
            std::uint64_t diff = m.normalize(p1) ^ m.normalize(p2);
            bool any = false;
            for (std::uint64_t fn : fns)
                any = any || __builtin_parityll(fn & diff);
            EXPECT_TRUE(any) << "banks " << b1 << "/" << b2
                             << " indistinct under the XOR structure";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, BackendProps,
                         ::testing::ValuesIn(allArchs), archParamName);

// ---------------------------------------------------------------------
// Cross-backend differential scenarios (the headline)
// ---------------------------------------------------------------------

class BackendDifferential : public ::testing::TestWithParam<Arch>
{
};

TEST_P(BackendDifferential, QuickstartIdenticalAcrossEngineMatrix)
{
    Arch arch = GetParam();
    Digest ref = expectMatrixMatches(
        tracedSpec(arch, nativeDimm(arch, "S2"),
                   CatDram | CatTrr | CatFlip | CatPhase),
        {1u, 2u, 8u}, [](const SystemSpec &spec, unsigned jobs) {
            return quickstartScenario(spec, 42, jobs, 2000);
        });
    EXPECT_FALSE(traceEvents(ref).empty());
}

TEST_P(BackendDifferential, TrrEvasionIdenticalAcrossEngineMatrix)
{
    // Seed 9 at 60k ACTs on every backend; the longer Raptor Lake
    // seeds run in RowStoreDifferential.TrrEvasionIdenticalAcrossSeeds.
    Arch arch = GetParam();
    Digest ref = expectMatrixMatches(
        tracedSpec(arch, nativeDimm(arch, "S2"),
                   CatDram | CatDisturb | CatTrr | CatFlip | CatPhase,
                   aggressiveTrr()),
        {1u}, [](const SystemSpec &spec, unsigned jobs) {
            return trrEvasionScenario(spec, 9, jobs, 60000);
        });
    EXPECT_FALSE(traceEvents(ref).empty());
}

TEST_P(BackendDifferential, CampaignsBitIdenticalAcrossJobCounts)
{
    // REF synchronization enabled: on the refBlocking backends every
    // campaign task runs the detection train before hammering, and
    // the result must still be bit-identical for any --jobs (the
    // detector is driven purely by the simulated clock).
    Arch arch = GetParam();
    SystemSpec spec(arch, nativeDimm(arch, "S2"));
    HammerConfig cfg = rhoConfig(arch, true, 30000);
    cfg.refSync = true;

    FuzzParams fparams;
    fparams.numPatterns = 3;
    fparams.locationsPerPattern = 1;
    fparams.jobs = 1;
    FuzzResult fref = fuzzCampaign(spec, cfg, fparams, 7);
    fparams.jobs = 8;
    FuzzResult fgot = fuzzCampaign(spec, cfg, fparams, 7);
    EXPECT_EQ(fgot.totalFlips, fref.totalFlips);
    EXPECT_EQ(fgot.dramAccesses, fref.dramAccesses);
    EXPECT_EQ(fgot.simTimeNs, fref.simTimeNs);

    Rng rng(7);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    SweepParams sparams;
    sparams.numLocations = 4;
    sparams.jobs = 1;
    SweepResult sref = sweepCampaign(spec, pattern, cfg, sparams, 7);
    sparams.jobs = 8;
    SweepResult sgot = sweepCampaign(spec, pattern, cfg, sparams, 7);
    EXPECT_EQ(sgot.totalFlips, sref.totalFlips);
    EXPECT_EQ(sgot.cumulativeTimeNs, sref.cumulativeTimeNs);
    EXPECT_EQ(sgot.simTimeNs, sref.simTimeNs);
    EXPECT_TRUE(sgot.flipList == sref.flipList);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, BackendDifferential,
                         ::testing::ValuesIn(allArchs), archParamName);

// ---------------------------------------------------------------------
// REF-sync detection
// ---------------------------------------------------------------------

TEST(RefSync, DetectsCadenceOnlyOnRefBlockingBackends)
{
    for (Arch arch : allArchs) {
        MemorySystem sys(SystemSpec(arch, nativeDimm(arch, "S2")));
        RefSyncDetector det(sys);
        RefSyncEstimate est = det.detect();
        if (!archRefBlocking(arch)) {
            EXPECT_FALSE(est.detected) << archName(arch);
            continue;
        }
        EXPECT_TRUE(est.detected) << archName(arch);
        // The estimated period is the part's tREFI: ~7800 ns on the
        // DDR4 Zen 3 box, ~3904 ns on the LPDDR4 board.
        if (arch == Arch::Zen3) {
            EXPECT_GT(est.period, 7000.0);
            EXPECT_LT(est.period, 8600.0);
        } else {
            EXPECT_GT(est.period, 3500.0);
            EXPECT_LT(est.period, 4400.0);
        }
        EXPECT_GT(est.blockNs, 0.0);
        EXPECT_GE(est.spikes, 3u);
        EXPECT_GT(est.nextSafeStart(sys.now()), sys.now());
    }
}

TEST(RefSync, DetectionIsDeterministic)
{
    for (Arch arch : {Arch::Zen3, Arch::CortexA72}) {
        auto run = [arch] {
            MemorySystem sys(SystemSpec(arch, nativeDimm(arch, "S2")));
            RefSyncDetector det(sys);
            return det.detect();
        };
        RefSyncEstimate a = run(), b = run();
        EXPECT_EQ(a.detected, b.detected);
        EXPECT_EQ(a.period, b.period);
        EXPECT_EQ(a.lastBoundary, b.lastBoundary);
        EXPECT_EQ(a.blockNs, b.blockNs);
        EXPECT_EQ(a.spikes, b.spikes);
    }
}

// ---------------------------------------------------------------------
// Half-Double disturb bounds (LPDDR4)
// ---------------------------------------------------------------------

namespace
{

/**
 * Double-sided hammer (aggressors 4999/5001) on the LPDDR4 board with
 * an active TRR; returns the flip rows. The weights select the
 * distance-2 channels: `hd` the direct per-ACT coupling, `rd` the
 * refresh-sweep disturbance that turns the radius-1 victim refresh
 * into a Half-Double vector (TRR's refresh of a+-1 hammers a+-2).
 */
std::vector<std::uint64_t>
lpddr4Hammer(double hd, double rd, int rounds = 150000)
{
    DimmProfile p =
        weakCells(DimmProfile::lpddr4Sample(), 4.0, 400.0, 0.1, 300);
    p.halfDoubleWeight = hd;
    p.refreshDisturbWeight = rd;

    Dimm d(p, DramTiming::lpddr4(p.freqMts), aggressiveTrr());
    Ns now = 0.0;
    for (std::uint64_t r = 4995; r <= 5005; ++r)
        d.fillRow(0, r, 0x55, now);
    now = hammerVictim(d, 5000, now, rounds);
    std::vector<std::uint64_t> rows;
    for (const FlipRecord &f : d.flipLog())
        rows.push_back(f.row);
    return rows;
}

std::size_t
countRows(const std::vector<std::uint64_t> &rows,
          std::initializer_list<std::uint64_t> wanted)
{
    std::size_t n = 0;
    for (std::uint64_t r : rows) {
        for (std::uint64_t w : wanted)
            n += r == w;
    }
    return n;
}

} // namespace

TEST(HalfDouble, DisturbanceBoundedByReachAndMonotoneInWeights)
{
    // Stock LPDDR4 board: both distance-2 channels on.
    auto stock = lpddr4Hammer(0.12, 0.30);
    // Refresh channel only: the direct coupling off.
    auto refresh_only = lpddr4Hammer(0.0, 0.30);
    // Both channels off: distance-2 disturbance must vanish.
    auto none = lpddr4Hammer(0.0, 0.0);

    // Reach bound. Aggressors sit at 4999/5001; the direct coupling
    // reaches a+-2 and the radius-1 refresh sweep covers a+-1, whose
    // own disturbance lands one row further — so nothing outside
    // [4997, 5003] may ever flip, on any variant.
    for (auto *v : {&stock, &refresh_only, &none}) {
        for (std::uint64_t r : *v) {
            EXPECT_GE(r, 4997u);
            EXPECT_LE(r, 5003u);
        }
    }

    // Metamorphic bounds on the Half-Double rows 4997/5003 (distance 2
    // from the nearest aggressor, outside the TRR sweep, so their
    // disturbance accumulates across tREFI ticks):
    //  - with both channels off they never flip;
    //  - the refresh channel alone flips them — the mitigation is the
    //    attack vector;
    //  - adding the direct coupling can only add flips (same weak
    //    cells, strictly larger disturbance rate).
    std::size_t d2_stock = countRows(stock, {4997, 5003});
    std::size_t d2_refresh = countRows(refresh_only, {4997, 5003});
    EXPECT_EQ(countRows(none, {4997, 5003}), 0u);
    EXPECT_GT(d2_refresh, 0u);
    EXPECT_GE(d2_stock, d2_refresh);

    // The direct channel alone reaches them too.
    EXPECT_GT(countRows(lpddr4Hammer(0.12, 0.0), {4997, 5003}), 0u);
    EXPECT_GT(stock.size(), 0u);
    // With no distance-2 channel at all, the radius-1 TRR sweep resets
    // every distance-1 victim each tick before any cell can reach its
    // threshold: the mitigation wins completely. Only the Half-Double
    // channels break it.
    EXPECT_EQ(none.size(), 0u);
}

// ---------------------------------------------------------------------
// Reset parity of the per-backend device state
// ---------------------------------------------------------------------

TEST(BackendReset, Lpddr4ResetDeviceMatchesFreshDevice)
{
    // The LPDDR4 backend added per-bank REF-boundary accounting, the
    // refresh-sweep disturbance and the REF blocking stalls; a reset
    // device must replay all of it exactly like a new one — same stall
    // pattern, same TRR stream, same flips, byte-identical trace.
    DimmProfile p =
        weakCells(DimmProfile::lpddr4Sample(), 4.0, 800.0, 0.1, 600);
    const TrrConfig trr = aggressiveTrr();

    auto script = [](Dimm &d) {
        Ns now = 0.0;
        d.fillRow(0, 5001, 0x55, now);
        // Cross thousands of tREFI boundaries so the REF-blocking
        // stalls and the lazy boundary bookkeeping are exercised.
        now = hammerVictim(d, 5001, now, 20000);
    };
    const std::uint32_t cats = CatDram | CatDisturb | CatTrr | CatFlip;
    Dimm fresh(p, DramTiming::lpddr4(p.freqMts), trr);
    Digest want = traceDimm(fresh, cats, script);

    Dimm reused(p, DramTiming::lpddr4(p.freqMts), trr);
    traceDimm(reused, cats, script); // dirty REF accounting + TRR + charge
    reused.reset();
    EXPECT_EQ(reused.totalActs(), 0u);
    EXPECT_EQ(reused.flipLog().size(), 0u);

    EXPECT_GT(want.flips, 0u);
    expectSameDigest(traceDimm(reused, cats, script), want, "reset device");
}

TEST(BackendReset, RefSyncDetectableAgainAfterSystemReuse)
{
    // A campaign worker reuses its MemorySystem across phases; the
    // detector must keep finding the same cadence as time advances
    // (boundaries are absolute multiples of tREFI, not relative to the
    // detector's start).
    MemorySystem sys(SystemSpec(Arch::CortexA72, DimmProfile::lpddr4Sample()));
    RefSyncDetector det(sys);
    RefSyncEstimate first = det.detect();
    ASSERT_TRUE(first.detected);
    RefSyncDetector::align(sys, first);
    RefSyncEstimate second = det.detect();
    ASSERT_TRUE(second.detected);
    EXPECT_EQ(second.period, first.period);
    EXPECT_GT(second.lastBoundary, first.lastBoundary);
}
