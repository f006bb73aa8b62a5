/**
 * @file
 * Row-state storage tests: device-level differentials of the flat
 * fast-path store against the reference hash-map store (byte-identical
 * traces, identical flip sequences and counters; the campaign-level
 * cells run in the engine matrix of tests/differential.hh), the
 * flat store's lazy weak-cell materialization at the hcMin boundary
 * and on the broad-row reverse-engineering path, the Dimm::reset()
 * mitigation-state regression, and the flip-latch re-arm semantics
 * documented in dimm.hh.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hh"
#include "dram/dimm.hh"
#include "fault/fault_injector.hh"
#include "os/buddy_allocator.hh"
#include "os/pagemap.hh"
#include "revng/reverse_engineer.hh"

using namespace rho;
using namespace rho::test;

namespace
{

/**
 * Run `script` on a flat and a reference device built alike and
 * require byte-identical traces, flip logs and counters. Returns the
 * flat device's flip log.
 */
template <typename Script>
std::vector<FlipRecord>
expectStoresAgree(const DimmProfile &p, const DramTiming &timing,
                  const TrrConfig &trr, Script script)
{
    auto run = [&](RowStoreKind kind) {
        Dimm d(p, timing, trr);
        d.setRowStore(kind);
        return traceDimm(d, CatAll, script);
    };
    Digest flat = run(RowStoreKind::Flat);
    EXPECT_FALSE(traceEvents(flat).empty());
    expectSameDigest(flat, run(RowStoreKind::Reference), "flat vs reference");
    return flat.flipList;
}

} // namespace

// ---------------------------------------------------------------------
// Differential: flat vs. reference store
// ---------------------------------------------------------------------

TEST(RowStoreDifferential, ColdRowChurnMatchesReference)
{
    // Thousands of distinct rows force the open-addressed index to
    // grow and displace every way of the open-neighbourhood cache over
    // and over (bank 1 walks a power-of-two stride), exercising every cold
    // path against the reference store.
    const DimmProfile &p = DimmProfile::byId("S4");
    expectStoresAgree(p, DramTiming::ddr4(p.freqMts), TrrConfig{}, [](Dimm &d) {
        Ns now = 0.0;
        std::uint64_t rows = d.geometry().rowsPerBank;
        for (std::uint64_t i = 0; i < 3000; ++i) {
            std::uint64_t row = (i * 977) % rows;      // scattered
            now += d.access({0, row, 0}, now).latency;
            std::uint64_t strided = (i * 64) % rows;
            now += d.access({1, strided, 0}, now).latency;
        }
    });
}

TEST(RowStoreDifferential, TrrEvasionIdenticalAcrossSeeds)
{
    // Raptor Lake, seeds 9/101/202 at 150k ACTs, across the engine
    // matrix; between them the seeds must flip so the flip path runs.
    std::uint64_t total_flips = 0;
    for (std::uint64_t seed : {9ULL, 101ULL, 202ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Digest ref = expectMatrixMatches(
            tracedSpec(Arch::RaptorLake, DimmProfile::byId("S2"),
                       CatDram | CatDisturb | CatTrr | CatFlip | CatPhase,
                       aggressiveTrr()),
            {1u}, [seed](const SystemSpec &spec, unsigned jobs) {
                return trrEvasionScenario(spec, seed, jobs, 150000);
            });
        EXPECT_FALSE(traceEvents(ref).empty());
        total_flips += ref.flips;
    }
    EXPECT_GT(total_flips, 0u);
}

TEST(RowStoreDifferential, BroadRowProbeIdenticalAcrossEngineMatrix)
{
    // Thousands of rows created, flipped and dropped by SBDR probe
    // trains, ECC off and on: the flat store's hot/cold row split and
    // chunked pool against the reference store.
    static const DimmProfile weak = // the spec keeps a pointer
        weakCells(DimmProfile::byId("S1"), 64.0, 40.0, 0.3, 20);
    for (bool ecc : {false, true}) {
        SCOPED_TRACE(ecc ? "ECC on" : "ECC off");
        SystemSpec spec = tracedSpec(Arch::RaptorLake, weak, CatAll,
                                     aggressiveTrr());
        spec.ecc.enabled = ecc;
        Digest ref = expectMatrixMatches(
            spec, {1u}, [](const SystemSpec &s, unsigned jobs) {
                return broadRowScenario(s, 23, jobs, 400);
            });
        EXPECT_GT(ref.acts, 10000u); // since the reset
        EXPECT_GT(ref.trrRefreshes, 0u);
        EXPECT_GT(ref.flips, 0u);
        EXPECT_GT(ref.outcome.size(), 400u); // some flips escape ECC
    }
}

// ---------------------------------------------------------------------
// Lazy weak-cell materialization (flat store) vs. eager (reference)
// ---------------------------------------------------------------------

namespace
{

/**
 * Thresholds straddling hcMin: about half the cells draw below it and
 * are clamped to exactly hcMin.
 */
DimmProfile
clampedProfile()
{
    return weakCells(DimmProfile::byId("S4"), 4.0, 1000.0, 0.3, 1000);
}

/**
 * Single-sided ACTs of victim-1, each followed by a far row of the
 * same bank so every access activates: the victim's disturbance
 * reaches exactly `acts`.
 */
void
driveVictim(Dimm &d, std::uint64_t victim, unsigned acts, Ns &now)
{
    for (unsigned i = 0; i < acts; ++i) {
        now += d.access({0, victim - 1, 0}, now).latency;
        now += d.access({0, victim + 4096, 0}, now).latency;
    }
}

std::size_t
flipsInRow(const std::vector<FlipRecord> &flips, std::uint64_t row)
{
    std::size_t n = 0;
    for (const FlipRecord &f : flips)
        n += f.row == row;
    return n;
}

} // namespace

TEST(LazyCells, FlipsExactlyAtHcMinBoundary)
{
    DimmProfile p = clampedProfile();
    // A victim holding an anti cell (flips 0 -> 1 under the default
    // all-zero fill) whose threshold is clamped to exactly hcMin.
    std::uint64_t victim = 0;
    for (std::uint64_t r = 2000; r < 4000 && !victim; ++r) {
        for (const WeakCell &c : p.weakCellsFor(0, r)) {
            if (!c.trueCell && c.threshold == p.hcMin)
                victim = r;
        }
    }
    ASSERT_NE(victim, 0u) << "no clamped anti cell in the search range";

    for (unsigned acts : {p.hcMin - 1, p.hcMin, p.hcMin + 1}) {
        auto flips = expectStoresAgree(
            p, DramTiming::ddr4(p.freqMts), noTrr(), [&](Dimm &d) {
                Ns now = 0.0;
                driveVictim(d, victim, acts, now);
            });
        if (acts < p.hcMin)
            EXPECT_EQ(flipsInRow(flips, victim), 0u);
        else
            EXPECT_GT(flipsInRow(flips, victim), 0u) << acts << " ACTs";
    }
}

TEST(LazyCells, FractionalHalfDoubleWeightsMatchReference)
{
    // LPDDR4 Half-Double board: distance-2 victims accumulate the
    // fractional direct coupling (0.12 per ACT) and the refresh-sweep
    // disturbance (0.30 per TRR refresh), so their disturbance reaches
    // hcMin at non-integer steps.
    DimmProfile p =
        weakCells(DimmProfile::lpddr4Sample(), 4.0, 400.0, 0.3, 300);
    auto flips = expectStoresAgree(
        p, DramTiming::lpddr4(p.freqMts), aggressiveTrr(), [](Dimm &d) {
            Ns now = 0.0;
            for (std::uint64_t r = 4995; r <= 5005; ++r)
                d.fillRow(0, r, 0x55, now);
            now = hammerVictim(d, 5000, now, 20000);
        });
    EXPECT_GT(flipsInRow(flips, 4997) + flipsInRow(flips, 5003), 0u);
}

TEST(LazyCells, FaultInjectorDrawsMatchReference)
{
    // Flip suppression draws only at threshold crossings and spurious
    // refreshes per ACT: both streams must line up across stores.
    DimmProfile p = denseProfile();
    auto flips = expectStoresAgree(
        p, DramTiming::ddr4(2666), noTrr(), [](Dimm &d) {
            FaultInjector inj(FaultSchedule::flipNonReproduction(0.3).merge(
                                  FaultSchedule::spuriousTrr(0.0005)),
                              17);
            d.setFaultInjector(&inj);
            Ns now = 0.0;
            for (std::uint64_t victim : {3001, 3101, 3201})
                now = hammerVictim(d, victim, now, 4000);
            d.setFaultInjector(nullptr);
        });
    EXPECT_GT(flips.size(), 0u);
}

TEST(LazyCells, WritesToUnmaterializedRowsMatchReference)
{
    // fillRow/writeBytes on rows whose disturbance never reached
    // hcMin (so the flat store has not built their cells yet), then a
    // hammer that flips them: the writes' latch re-arming must be
    // invisible, and the read-back views identical.
    DimmProfile p = denseProfile();
    std::vector<std::vector<FlipRecord>> diffs[2];
    std::vector<std::uint8_t> reads[2];
    int k = 0;
    auto flips = expectStoresAgree(
        p, DramTiming::ddr4(2666), noTrr(), [&](Dimm &d) {
            Ns now = 0.0;
            driveVictim(d, 6001, p.hcMin / 2, now);
            driveVictim(d, 6011, p.hcMin / 2, now);
            d.fillRow(0, 6001, 0xff, now);
            std::vector<std::uint8_t> ones(256, 0xff);
            d.writeBytes({0, 6011, 512}, ones.data(), ones.size(), now);
            d.fillRow(0, 6021, 0xff, now); // never disturbed at all
            for (std::uint64_t victim : {6001, 6011, 6021}) {
                now = hammerVictim(d, victim, now);
                reads[k].push_back(d.readByte({0, victim, 600}, now));
                diffs[k].push_back(d.diffRow(0, victim, 0xff, now));
            }
            ++k;
        });
    EXPECT_GT(flipsInRow(flips, 6001), 0u);
    EXPECT_EQ(reads[0], reads[1]);
    ASSERT_EQ(diffs[0].size(), diffs[1].size());
    for (std::size_t i = 0; i < diffs[0].size(); ++i)
        EXPECT_TRUE(diffs[0][i] == diffs[1][i]) << "row " << i;
}

class LazyCellsBroadRow : public ::testing::TestWithParam<Arch>
{
};

TEST_P(LazyCellsBroadRow, ReverseEngineeringMatchesReference)
{
    // The broad-row path: reverse engineering disturbs rows across
    // most of the DIMM, nearly all of them far below hcMin. Both
    // stores must recover the same mapping through the same device.
    struct Outcome
    {
        MappingRecovery rec;
        std::uint64_t acts, trr;
        std::vector<FlipRecord> flips;
    };
    auto run = [](Arch arch, RowStoreKind kind) {
        SystemSpec spec(arch, DimmProfile::byId("S2"));
        spec.referenceRowStore = kind == RowStoreKind::Reference;
        MemorySystem sys(spec);
        BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 11);
        PhysPool pool(buddy, 0.70);
        TimingProbe probe(sys, 11);
        Outcome o;
        o.rec = RhoReverseEngineer(probe, pool, 11).run();
        EXPECT_TRUE(o.rec.matches(sys.mapping())) << archName(arch);
        o.acts = sys.dimm().totalActs();
        o.trr = sys.dimm().trrRefreshCount();
        o.flips = sys.dimm().flipLog();
        return o;
    };
    Outcome flat = run(GetParam(), RowStoreKind::Flat);
    Outcome ref = run(GetParam(), RowStoreKind::Reference);
    EXPECT_EQ(flat.rec.code, ref.rec.code);
    EXPECT_EQ(flat.rec.bankFns, ref.rec.bankFns);
    EXPECT_EQ(flat.rec.rowBits, ref.rec.rowBits);
    EXPECT_EQ(flat.rec.regionOffset, ref.rec.regionOffset);
    EXPECT_EQ(flat.rec.thresholdNs, ref.rec.thresholdNs);
    EXPECT_EQ(flat.rec.simTimeNs, ref.rec.simTimeNs);
    EXPECT_EQ(flat.rec.timedAccesses, ref.rec.timedAccesses);
    EXPECT_EQ(flat.rec.measureRetry.retries, ref.rec.measureRetry.retries);
    EXPECT_EQ(flat.acts, ref.acts);
    EXPECT_GT(flat.acts, 0u);
    EXPECT_EQ(flat.trr, ref.trr);
    EXPECT_TRUE(flat.flips == ref.flips);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, LazyCellsBroadRow,
                         ::testing::ValuesIn(allArchs));

TEST(RowStore, SwitchAfterStateMaterializedPanics)
{
    const DimmProfile &p = DimmProfile::byId("S2");
    Dimm d(p, DramTiming::ddr4(p.freqMts), TrrConfig{});
    d.access({0, 100, 0}, 0.0);
    EXPECT_DEATH(d.setRowStore(RowStoreKind::Reference), "materialized");
    // reset() clears the state, after which switching is legal again.
    d.reset();
    d.setRowStore(RowStoreKind::Reference);
    EXPECT_EQ(d.rowStore(), RowStoreKind::Reference);
}

// ---------------------------------------------------------------------
// Dimm::reset() regression: mitigation engines must reset too
// ---------------------------------------------------------------------

TEST(DimmReset, ResetDeviceMatchesFreshDevice)
{
    // TRR sampling consumes seeded randomness on every ACT and RFM
    // keeps per-bank RAA counters; a reset device must replay both
    // exactly like a new one. The sampler's match threshold is set
    // unreachable so its rng stream and Misra-Gries tables are
    // exercised (and traced) without the refreshes suppressing every
    // flip, and RFM's interval is long enough that the hammer flips
    // before the first command.
    DimmProfile p = denseProfile();
    TrrConfig trr;
    trr.matchThreshold = 1u << 30;
    RfmConfig rfm;
    rfm.enabled = true;
    rfm.raaimt = 4096;
    // Minimal REF decay: the per-tick decrement would otherwise hold
    // RAA below an interval this long and no RFM would ever fire.
    rfm.refDecrement = 1;

    auto script = [](Dimm &d) {
        Ns now = 0.0;
        d.fillRow(0, 5001, 0x55, now);
        now = hammerVictim(d, 5001, now);
    };
    const std::uint32_t cats = CatDram | CatDisturb | CatTrr | CatFlip;
    Dimm fresh(p, DramTiming::ddr4(2666), trr, rfm);
    Digest want = traceDimm(fresh, cats, script);

    Dimm reused(p, DramTiming::ddr4(2666), trr, rfm);
    traceDimm(reused, cats, script); // dirty sampler tables, rng and RAA
    reused.reset();
    EXPECT_EQ(reused.totalActs(), 0u);
    EXPECT_EQ(reused.flipLog().size(), 0u);
    EXPECT_EQ(reused.rfmCommandCount(), 0u);

    // Identical flip sequence and counters — and identical full event
    // stream, which pins the sampler's randomness (TrrSample events)
    // and the RAA bookkeeping (RfmRefresh events) byte-for-byte.
    expectSameDigest(traceDimm(reused, cats, script), want, "reset device");
    EXPECT_GT(want.flips, 0u);
    EXPECT_GE(want.rfmCommands, 1u);
    // The scenario must actually exercise the sampler's rng.
    std::size_t samples = 0;
    for (const TraceEvent &e : traceEvents(want))
        samples += e.kind == EventKind::TrrSample;
    EXPECT_GT(samples, 0u);
}

// ---------------------------------------------------------------------
// Flip-latch re-arm semantics (documented in dimm.hh)
// ---------------------------------------------------------------------

TEST(FlipLatch, ReadDoesNotRearmLatches)
{
    DimmProfile p = denseProfile();
    Dimm d(p, DramTiming::ddr4(2666), noTrr());
    std::uint64_t victim = 5001;
    Ns now = 0.0;
    d.fillRow(0, victim, 0x55, now);

    now = hammerVictim(d, victim, now);
    auto first = d.flipLog();
    std::size_t victim_flips = 0;
    for (const FlipRecord &f : first)
        victim_flips += f.row == victim;
    ASSERT_GT(victim_flips, 0u);

    // Read-verify every flipped byte (the attacker checking its
    // template), then hammer again: the latched cells must not
    // re-flip, because their data was never rewritten.
    for (const FlipRecord &f : first) {
        if (f.row == victim)
            d.readByte({0, victim, f.bitOffset >> 3}, now);
    }
    now = hammerVictim(d, victim, now);
    EXPECT_EQ(d.flipLog().size(), first.size());

    // Rewriting the row re-arms everything: the same hammer produces
    // the same victim flips again.
    d.fillRow(0, victim, 0x55, now);
    now = hammerVictim(d, victim, now);
    std::size_t victim_flips_after = 0;
    for (std::size_t i = first.size(); i < d.flipLog().size(); ++i)
        victim_flips_after += d.flipLog()[i].row == victim;
    EXPECT_EQ(victim_flips_after, victim_flips);
}

TEST(FlipLatch, PartialWriteRearmsOnlyWrittenRange)
{
    DimmProfile p = denseProfile();
    Dimm d(p, DramTiming::ddr4(2666), noTrr());
    std::uint64_t victim = 7001;
    Ns now = 0.0;
    d.fillRow(0, victim, 0x55, now);

    now = hammerVictim(d, victim, now);
    std::set<std::uint32_t> flipped_bytes;
    for (const FlipRecord &f : d.flipLog()) {
        if (f.row == victim)
            flipped_bytes.insert(f.bitOffset >> 3);
    }
    // The dense profile flips cells in several distinct bytes; needed
    // so "only the written range" is distinguishable from "all".
    ASSERT_GE(flipped_bytes.size(), 2u);

    // Rewrite exactly one flipped byte; only its cells may flip again.
    std::uint32_t target = *flipped_bytes.begin();
    std::uint8_t fresh = 0x55;
    d.writeBytes({0, victim, target}, &fresh, 1, now);
    std::size_t before = d.flipLog().size();
    now = hammerVictim(d, victim, now);
    std::size_t new_flips = 0;
    for (std::size_t i = before; i < d.flipLog().size(); ++i) {
        const FlipRecord &f = d.flipLog()[i];
        if (f.row != victim)
            continue;
        EXPECT_EQ(f.bitOffset >> 3, target)
            << "cell outside the written byte re-flipped";
        ++new_flips;
    }
    EXPECT_GT(new_flips, 0u);
}
