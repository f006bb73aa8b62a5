/**
 * @file
 * Row-state storage tests: device-level differentials of the flat
 * fast-path store against the reference hash-map store (byte-identical
 * traces, identical flip sequences and counters; the campaign-level
 * cells run in the engine matrix of tests/differential.hh), the
 * flat store's radix index at the edges of a bank and in its PRAC
 * walk, the flat store's lazy weak-cell materialization at the hcMin
 * boundary and on the broad-row reverse-engineering path, its
 * reclamation of rows auto-refresh has reset, its heap footprint per
 * row and over a long broad run, the Dimm::reset() regressions, and
 * the flip-latch re-arm semantics documented in dimm.hh.
 */

#include <malloc.h>

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
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
                  const TrrConfig &trr, Script script,
                  const PracConfig &prac = PracConfig{})
{
    auto run = [&](RowStoreKind kind) {
        Dimm d(p, timing, trr, RfmConfig{}, prac);
        d.setRowStore(kind);
        return traceDimm(d, CatAll, script);
    };
    Digest flat = run(RowStoreKind::Flat);
    EXPECT_FALSE(traceEvents(flat).empty());
    expectSameDigest(flat, run(RowStoreKind::Reference), "flat vs reference");
    return flat.flipList;
}

/**
 * Activate `acts` rows drawn uniformly from every bank of `d`, each
 * access issued when the previous one completes. Nearly every access
 * is an ACT of a row no earlier access touched.
 */
Ns
broadRun(Dimm &d, unsigned acts, std::uint64_t seed, Ns now)
{
    const std::uint64_t rows = d.geometry().rowsPerBank;
    const std::uint32_t banks = d.geometry().flatBanks();
    for (unsigned i = 0; i < acts; ++i) {
        std::uint64_t h = splitMix64(hashCombine(seed, i));
        DramAddr da{static_cast<std::uint32_t>(h % banks),
                    (h >> 16) % rows, 0};
        now += d.access(da, now).latency;
    }
    return now;
}

} // namespace

// ---------------------------------------------------------------------
// Differential: flat vs. reference store
// ---------------------------------------------------------------------

TEST(RowStoreDifferential, ColdRowChurnMatchesReference)
{
    // Thousands of distinct rows fill leaves in most regions of the
    // radix index and displace every way of the open-neighbourhood
    // cache over and over (bank 1 walks a power-of-two stride),
    // exercising every cold path against the reference store.
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

TEST(RowStoreDifferential, BankEdgeRowsMatchReference)
{
    // Rows 0, 1, R-2 and R-1 of the first and the last bank: the first
    // and last leaf and region of the radix index, and a blast radius
    // clipped at both ends of the bank. Rows 1 and R-2 alternate, so
    // rows 0 and R-1 are single-sided victims driven past hcMin. S1
    // has 2^16 rows per bank, M1 2^17.
    for (const char *id : {"S1", "M1"}) {
        SCOPED_TRACE(id);
        const DimmProfile &p = DimmProfile::byId(id);
        std::vector<std::vector<FlipRecord>> diffs[2];
        int k = 0;
        expectStoresAgree(
            p, DramTiming::ddr4(p.freqMts), TrrConfig{}, [&](Dimm &d) {
                const std::uint64_t rows = d.geometry().rowsPerBank;
                const std::uint64_t edges[] = {0, 1, rows - 2, rows - 1};
                const std::uint32_t last = d.geometry().flatBanks() - 1;
                Ns now = 0.0;
                for (std::uint32_t bank : {0u, last}) {
                    for (std::uint64_t r : edges)
                        d.fillRow(bank, r, 0x55, now);
                    for (int i = 0; i < 4000; ++i) {
                        now += d.access({bank, 1, 0}, now).latency;
                        now += d.access({bank, rows - 2, 0}, now).latency;
                    }
                    for (std::uint64_t r : edges)
                        diffs[k].push_back(d.diffRow(bank, r, 0x55, now));
                }
                ++k;
            });
        ASSERT_EQ(diffs[0].size(), diffs[1].size());
        for (std::size_t i = 0; i < diffs[0].size(); ++i)
            EXPECT_TRUE(diffs[0][i] == diffs[1][i]) << "edge row " << i;
    }
}

TEST(RowStoreDifferential, PracWalkOrderMatchesReference)
{
    // Ten rows of one bank, spread over several leaves and regions and
    // created out of row order, activated round-robin: when one crosses
    // the PRAC threshold the other nine sit at or above the ABO floor,
    // more than the aboSlots - 1 extra slots, and tie on their counts.
    // The flat store visits them in row order, the reference store in
    // hash order; the (count desc, row asc) ranking must service the
    // same rows either way.
    const DimmProfile &p = DimmProfile::byId("S1");
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 64;
    prac.aboSlots = 4;
    expectStoresAgree(
        p, DramTiming::ddr4(p.freqMts), noTrr(),
        [](Dimm &d) {
            const std::uint64_t hot[] = {40000, 17,    3000, 1029, 9,
                                         65000, 3010, 20000, 1024, 33};
            Ns now = 0.0;
            for (int round = 0; round < 300; ++round) {
                for (std::uint64_t r : hot)
                    now += d.access({2, r, 0}, now).latency;
            }
            EXPECT_GT(d.pracAlertCount(), 10u);
        },
        prac);
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

TEST(RowStore, PracCountOfUntouchedRowIsZero)
{
    // Rows 100 and 5000 of bank 3 are activated; every other row reads
    // 0 on both stores, whether it has state (a disturbed neighbour),
    // shares a leaf with a row that has, shares only a region, lies in
    // a region without rows or in an untouched bank.
    const DimmProfile &p = DimmProfile::byId("S1");
    PracConfig prac;
    prac.enabled = true;
    for (RowStoreKind kind : {RowStoreKind::Flat, RowStoreKind::Reference}) {
        Dimm d(p, DramTiming::ddr4(p.freqMts), noTrr(), RfmConfig{}, prac);
        d.setRowStore(kind);
        Ns now = 0.0;
        for (int i = 0; i < 4; ++i) {
            now += d.access({3, 100, 0}, now).latency;
            now += d.access({3, 5000, 0}, now).latency;
        }
        EXPECT_EQ(d.pracCount(3, 100), 4u);
        EXPECT_EQ(d.pracCount(3, 5000), 4u);
        EXPECT_EQ(d.pracCount(3, 101), 0u);   // neighbour with state
        EXPECT_EQ(d.pracCount(3, 110), 0u);   // same leaf, no state
        EXPECT_EQ(d.pracCount(3, 200), 0u);   // same region, no leaf
        EXPECT_EQ(d.pracCount(3, 60000), 0u); // region without rows
        EXPECT_EQ(d.pracCount(4, 100), 0u);   // untouched bank
    }
}

TEST(RowStoreFootprint, BroadRowHeapBytesPerRow)
{
    // A broad ACT stream on one S1 device creates about four rows per
    // ACT (the row and its blast radius), spread thinly over every
    // bank. The heap in use per created row, malloc's count including
    // mmapped blocks, stays at most 72 bytes: a 48-byte row plus its
    // share of the radix index's leaves and regions (~20 bytes here).
    const DimmProfile &p = DimmProfile::byId("S1");
    Dimm d(p, DramTiming::ddr4(p.freqMts), noTrr());
    const std::uint64_t rows = d.geometry().rowsPerBank;
    std::vector<bool> created(d.geometry().flatBanks() * rows);
    std::size_t count = 0;
    const unsigned acts = 30000;
    for (unsigned i = 0; i < acts; ++i) {
        std::uint64_t h = splitMix64(hashCombine(7, i));
        std::uint64_t bank = h % d.geometry().flatBanks();
        std::uint64_t row = (h >> 16) % rows;
        for (std::uint64_t r = row > 2 ? row - 2 : 0;
             r <= row + 2 && r < rows; ++r) {
            if (!created[bank * rows + r]) {
                created[bank * rows + r] = true;
                ++count;
            }
        }
    }
    auto inUse = [] {
        struct mallinfo2 m = mallinfo2();
        return m.uordblks + m.hblkhd;
    };
    std::size_t before = inUse();
    broadRun(d, acts, 7, 0.0);
    double per_row = static_cast<double>(inUse() - before) / count;
    RecordProperty("rows_created", std::to_string(count));
    RecordProperty("heap_bytes_per_row", std::to_string(per_row));
    EXPECT_GT(count, 100000u);
    EXPECT_LE(per_row, 72.0) << count << " rows";
}

TEST(RowStoreFootprint, BroadRunHeapStaysBounded)
{
    // 40 broad bursts separated by idle gaps of 3 tREFW: every row of
    // a burst is back in its factory state when the next one starts,
    // so the flat store reclaims it and the heap in use stops growing
    // with the rows ever touched.
    const DimmProfile &p = DimmProfile::byId("S1");
    auto inUse = [] {
        struct mallinfo2 m = mallinfo2();
        return m.uordblks + m.hblkhd;
    };
    const std::size_t base = inUse();
    Dimm d(p, DramTiming::ddr4(p.freqMts), noTrr());
    std::size_t afterFourth = 0;
    Ns now = 0.0;
    for (unsigned burst = 1; burst <= 40; ++burst) {
        now = broadRun(d, 3000, splitMix64(burst), now)
              + 3 * d.timing().tREFW;
        if (burst == 4)
            afterFourth = inUse() - base;
    }
    const std::size_t afterLast = inUse() - base;
    RecordProperty("heap_after_4th", std::to_string(afterFourth));
    RecordProperty("heap_after_40th", std::to_string(afterLast));
    EXPECT_LE(static_cast<double>(afterLast), 1.5 * afterFourth)
        << afterFourth << " bytes after the 4th burst";
}

TEST(RowStore, DataPathRowPastTheBankPanics)
{
    // access() checks its bank and row; the data-path calls and
    // pracCount must too, or a flat device would index its radix past
    // the bank or its banks past the device. readByte checks its
    // column, or a row with stored data would read past it.
    const DimmProfile &p = DimmProfile::byId("S2");
    const std::uint32_t banks = p.geom.flatBanks();
    for (RowStoreKind kind : {RowStoreKind::Flat, RowStoreKind::Reference}) {
        Dimm d(p, DramTiming::ddr4(p.freqMts), TrrConfig{});
        d.setRowStore(kind);
        EXPECT_DEATH(d.fillRow(0, p.geom.rowsPerBank, 0x55, 0.0),
                     "out of range");
        EXPECT_DEATH(d.readByte({0, p.geom.rowsPerBank + 5000, 0}, 0.0),
                     "out of range");
        EXPECT_DEATH(d.fillRow(banks, 100, 0x55, 0.0), "out of range");
        EXPECT_DEATH(d.fillRow(banks + 1000, 100, 0x55, 0.0),
                     "out of range");
        EXPECT_DEATH(d.diffRow(banks, 100, 0x55, 0.0), "out of range");
        EXPECT_DEATH(d.readByte({banks, 100, 0}, 0.0), "out of range");
        EXPECT_DEATH(d.pracCount(banks, 100), "out of range");
        EXPECT_DEATH(d.pracCount(0, p.geom.rowsPerBank), "out of range");
        std::uint8_t ones = 0xff;
        d.writeBytes({0, 100, 0}, &ones, 1, 0.0); // row 100 stores data
        EXPECT_DEATH(d.readByte({0, 100, p.geom.rowBytes}, 0.0),
                     "out of range");
        EXPECT_DEATH(d.readByte({0, 100, 12288}, 0.0), "out of range");
        EXPECT_DEATH(d.readByte({0, 100, 5000000}, 0.0), "out of range");
        EXPECT_EQ(d.readByte({0, 100, 0}, 0.0), 0xff);
    }
}

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
// Reclamation: the flat store frees rows auto-refresh has reset
// ---------------------------------------------------------------------

namespace
{

/** What a reclamation script reads back through the public calls. */
struct Readouts
{
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> prac;
    std::vector<std::vector<FlipRecord>> diffs;
};

/** Thresholds of a few ACTs, so broad traffic flips cells. */
DimmProfile
lowThresholdProfile()
{
    return weakCells(DimmProfile::byId("S4"), 1.0, 8.0, 0.4, 4);
}

/**
 * 48 broad bursts over banks 0-7, separated by idle gaps of 0.3, 0.7,
 * 1.2 and 3 tREFW in turn (~62 tREFW in all). Half the ACTs revisit
 * rows 0-127 of their bank; the rest land in a 1024-row window that
 * moves each burst and comes back every eighth, so rows reclaimed in
 * a long gap are created again by ACT and by neighbour disturbance.
 * After each burst the data path reads rows of the window used four
 * bursts ago, and reads back rows that must stay pinned: filled rows
 * in bank 1, rows activated three times in bank 2 (PRAC counters above
 * 0 when PRAC is on) and a hammered victim in bank 3, all in banks
 * that are swept but away from the bursts' rows. Bank 12 is swept
 * while two of its rows sit in the neighbourhood cache. A fault injector
 * suppresses flips and adds spurious refreshes.
 */
Readouts
reclaimScript(Dimm &d)
{
    FaultInjector inj(FaultSchedule::flipNonReproduction(0.2).merge(
                          FaultSchedule::spuriousTrr(0.002)),
                      29);
    d.setFaultInjector(&inj);
    Readouts out;
    const Ns tREFW = d.timing().tREFW;
    const double gaps[] = {0.3, 0.7, 1.2, 3.0};
    const std::uint64_t filled[] = {30001, 30017, 40000};
    const std::uint64_t counted[] = {20003, 20011, 50000};
    Ns now = 0.0;
    for (std::uint64_t r : filled)
        d.fillRow(1, r, 0x55, now);
    for (int i = 0; i < 3; ++i) {
        for (std::uint64_t r : counted)
            now += d.access({2, r, 0}, now).latency;
    }
    for (int i = 0; i < 200; ++i) {
        now += d.access({3, 11999, 0}, now).latency;
        now += d.access({3, 12001, 0}, now).latency;
    }
    for (std::uint32_t burst = 0; burst < 48; ++burst) {
        for (std::uint32_t i = 0; i < 2000; ++i) {
            std::uint64_t h = splitMix64(hashCombine(29, burst * 2000 + i));
            std::uint64_t row = (h >> 8) % 1024;
            if (h & 0x80)
                row = 1024 + (burst % 8) * 1024 + row;
            else
                row %= 128;
            now += d.access({static_cast<std::uint32_t>(h % 8), row, 0},
                            now).latency;
        }
        std::uint64_t old = 1024 + (burst + 4) % 8 * 1024 + burst * 37 % 1024;
        out.bytes.push_back(d.readByte({burst % 8, old, burst}, now));
        out.diffs.push_back(d.diffRow(burst % 8, old + 2, 0x00, now));
        if (burst % 4 == 3) {
            std::uint8_t b = 0xa5;
            d.writeBytes({burst % 8, old + 4, 64}, &b, 1, now);
        }
        for (std::uint64_t r : filled)
            out.bytes.push_back(d.readByte({1, r, 100}, now));
        for (std::uint64_t r : counted)
            out.prac.push_back(d.pracCount(2, r));
        out.diffs.push_back(d.diffRow(3, 12000, 0x00, now));
        // Bank 12 sees no burst. Rows read through the data path, which
        // bypasses the neighbourhood cache, bring it to its sweep
        // threshold (the sweep runs at the next tick), then reuse the
        // ordinals it freed. The two rows activated twice before the
        // gap are still in the cache; hammering them must disturb their
        // own neighbours, created afresh.
        auto created = [&](std::uint64_t j) {
            return (burst * 1200 + j) % 32768;
        };
        for (std::uint64_t j = 0; j < 600; ++j)
            out.bytes.push_back(d.readByte({12, created(j), 0}, now));
        now += d.timing().tREFI;
        now += d.access({0, 60000, 0}, now).latency;
        for (std::uint64_t j = 600; j < 1200; ++j)
            out.bytes.push_back(d.readByte({12, created(j), 0}, now));
        const std::uint64_t hot[] = {40000 + 37 * burst, 50000 + 37 * burst};
        for (int i = 0; i < 20 && burst > 0; ++i) {
            for (std::uint64_t r : hot)
                now += d.access({12, r - 37, 0}, now).latency;
        }
        for (std::uint64_t j = 0; j < 1200; ++j)
            out.diffs.push_back(d.diffRow(12, created(j), 0x00, now));
        for (std::uint64_t r : hot) {
            out.diffs.push_back(d.diffRow(12, r - 38, 0x00, now));
            out.diffs.push_back(d.diffRow(12, r - 36, 0x00, now));
            for (int i = 0; i < 2; ++i)
                now += d.access({12, r, 0}, now).latency;
        }
        now += gaps[burst % 4] * tREFW;
    }
    d.setFaultInjector(nullptr);
    return out;
}

void
expectSameReadouts(const Readouts &got, const Readouts &ref,
                   const std::string &what)
{
    EXPECT_EQ(got.bytes, ref.bytes) << what;
    EXPECT_EQ(got.prac, ref.prac) << what;
    ASSERT_EQ(got.diffs.size(), ref.diffs.size()) << what;
    for (std::size_t i = 0; i < got.diffs.size(); ++i)
        EXPECT_TRUE(got.diffs[i] == ref.diffs[i]) << what << ", diff " << i;
}

/** The two device set-ups the reclamation script runs on. */
struct ReclaimConfig
{
    const char *name;
    TrrConfig trr;
    PracConfig prac;
};

std::vector<ReclaimConfig>
reclaimConfigs()
{
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 64;
    prac.aboSlots = 4;
    // Aggressive TRR refreshes neighbours from ticks that lag the ACT.
    return {{"aggressive TRR + PRAC", aggressiveTrr(), prac},
            {"no mitigation", noTrr(), PracConfig{}}};
}

} // namespace

TEST(RowStoreReclaim, UntracedRunMatchesReference)
{
    const DimmProfile p = lowThresholdProfile();
    for (const ReclaimConfig &c : reclaimConfigs()) {
        SCOPED_TRACE(c.name);
        Dimm flat(p, DramTiming::ddr4(p.freqMts), c.trr, RfmConfig{}, c.prac);
        Dimm ref(p, DramTiming::ddr4(p.freqMts), c.trr, RfmConfig{}, c.prac);
        ref.setRowStore(RowStoreKind::Reference);
        Readouts flatOut = reclaimScript(flat);
        Readouts refOut = reclaimScript(ref);
        expectSameDigest(dimmDigest(flat), dimmDigest(ref),
                         "flat vs reference");
        expectSameReadouts(flatOut, refOut, "flat vs reference");
        EXPECT_GT(ref.flipLog().size(), 100u);
        EXPECT_GT(ref.totalActs(), 96000u);
        // The reference store holds every row ever created; the flat
        // store created the same rows and reclaimed some.
        RecordProperty(c.prac.enabled ? "held_prac" : "held_plain",
                       std::to_string(flat.rowsHeld()) + " of "
                           + std::to_string(ref.rowsHeld()));
        EXPECT_LT(flat.rowsHeld(), ref.rowsHeld());
    }
}

TEST(RowStoreReclaim, TracedRunMatchesUntraced)
{
    // A traced flat device never reclaims (a reclaimed row would drop
    // the DisturbReset of its next touch); its results must not
    // change.
    const DimmProfile p = lowThresholdProfile();
    for (const ReclaimConfig &c : reclaimConfigs()) {
        SCOPED_TRACE(c.name);
        Dimm untraced(p, DramTiming::ddr4(p.freqMts), c.trr, RfmConfig{},
                      c.prac);
        Dimm traced(p, DramTiming::ddr4(p.freqMts), c.trr, RfmConfig{},
                    c.prac);
        Readouts untracedOut = reclaimScript(untraced);
        Readouts tracedOut;
        Digest g = traceDimm(traced, CatAll, [&](Dimm &d) {
            tracedOut = reclaimScript(d);
        });
        EXPECT_FALSE(traceEvents(g).empty());
        g.trace.clear();
        expectSameDigest(dimmDigest(untraced), g, "untraced vs traced");
        expectSameReadouts(untracedOut, tracedOut, "untraced vs traced");
        EXPECT_LT(untraced.rowsHeld(), traced.rowsHeld());
    }
}

TEST(RowStoreReclaim, RowCreatedBeforeASweepPanics)
{
    // Two broad bursts 3 tREFW apart: the second one's sweep frees the
    // first one's rows. A row created later at a time more than tREFW
    // before that sweep could diverge from the reference store.
    const DimmProfile &p = DimmProfile::byId("S1");
    Dimm d(p, DramTiming::ddr4(p.freqMts), noTrr());
    const Ns tREFW = d.timing().tREFW;
    Ns now = broadRun(d, 3000, 1, 0.0) + 3 * tREFW;
    std::size_t held = d.rowsHeld();
    now = broadRun(d, 3000, 2, now);
    ASSERT_LT(d.rowsHeld(), held + held / 2);
    d.fillRow(0, 65000, 0x55, now - tREFW / 2); // within the contract
    EXPECT_DEATH(d.fillRow(0, 65010, 0x55, now - 2 * tREFW),
                 "before a row sweep");
    EXPECT_DEATH(d.readByte({1, 65020, 0}, 0.0), "before a row sweep");
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

TEST(DimmReset, ResetAfterBroadRunMatchesFreshDevice)
{
    // A broad run fills regions, leaves and pool chunks in every bank
    // and bumps PRAC counters; reset() must drop all of it, so the
    // device then replays a hammer exactly like a new one, reads 0 for
    // every counter and may switch stores again.
    const DimmProfile p = denseProfile();
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 1u << 20; // counts, but never alerts before a flip
    auto script = [](Dimm &d) {
        Ns now = 0.0;
        d.fillRow(0, 5001, 0x55, now);
        now = hammerVictim(d, 5001, now);
        broadRun(d, 2000, 3, now);
    };
    const DramTiming timing = DramTiming::ddr4(p.freqMts);
    Dimm fresh(p, timing, noTrr(), RfmConfig{}, prac);
    Digest want = traceDimm(fresh, CatAll, script);

    Dimm reused(p, timing, noTrr(), RfmConfig{}, prac);
    broadRun(reused, 20000, 5, 0.0);
    std::uint64_t h = splitMix64(hashCombine(5, 0));
    DramAddr first{static_cast<std::uint32_t>(h % p.geom.flatBanks()),
                   (h >> 16) % p.geom.rowsPerBank, 0};
    EXPECT_GT(reused.pracCount(first.bank, first.row), 0u);
    reused.reset();
    EXPECT_EQ(reused.pracCount(first.bank, first.row), 0u);
    expectSameDigest(traceDimm(reused, CatAll, script), want,
                     "reset after a broad run");
    EXPECT_GT(want.flips, 0u);
    reused.reset();
    reused.setRowStore(RowStoreKind::Reference); // no row state left
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
