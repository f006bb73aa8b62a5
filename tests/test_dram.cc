/**
 * @file
 * Tests for the DRAM device model: row-buffer timing, refresh
 * machinery, the disturbance/flip mechanism, and the data path.
 */

#include <gtest/gtest.h>

#include "differential.hh"
#include "dram/controller.hh"
#include "dram/dimm.hh"
#include "dram/dimm_profile.hh"
#include "mapping/mapping_presets.hh"

using namespace rho;
using namespace rho::test;

namespace
{

Dimm
makeDimm(const std::string &id = "S2", TrrConfig trr = TrrConfig{})
{
    const auto &prof = DimmProfile::byId(id);
    return Dimm(prof, DramTiming::ddr4(prof.freqMts), trr);
}

} // namespace

TEST(DimmProfile, Table2Inventory)
{
    EXPECT_EQ(DimmProfile::all().size(), 7u);
    const auto &s1 = DimmProfile::byId("S1");
    EXPECT_EQ(s1.geom.sizeGib(), 16u);
    EXPECT_EQ(s1.geom.ranks, 2u);
    EXPECT_EQ(s1.productionDate, "W35-2023");
    const auto &s2 = DimmProfile::byId("S2");
    EXPECT_EQ(s2.geom.sizeGib(), 8u);
    const auto &m1 = DimmProfile::byId("M1");
    EXPECT_EQ(m1.geom.sizeGib(), 32u);
    EXPECT_FALSE(m1.flippable);
    EXPECT_DEATH(DimmProfile::byId("nope"), "unknown DIMM");
}

TEST(DimmProfile, WeakCellsDeterministic)
{
    const auto &p = DimmProfile::byId("S4");
    auto a = p.weakCellsFor(3, 1000);
    auto b = p.weakCellsFor(3, 1000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].bitOffset, b[i].bitOffset);
        EXPECT_EQ(a[i].threshold, b[i].threshold);
        EXPECT_EQ(a[i].trueCell, b[i].trueCell);
    }
    // Different rows get different fields (overwhelmingly likely).
    auto c = p.weakCellsFor(3, 1001);
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size() && i < c.size(); ++i)
        differs = a[i].bitOffset != c[i].bitOffset;
    EXPECT_TRUE(differs || a.empty());
}

TEST(DimmProfile, DensityOrdering)
{
    // S4 must be the most weak-cell-dense DIMM (Table 6 ordering).
    auto density = [](const std::string &id) {
        const auto &p = DimmProfile::byId(id);
        std::uint64_t cells = 0;
        for (std::uint64_t row = 0; row < 4000; ++row)
            cells += p.weakCellsFor(0, row).size();
        return cells;
    };
    auto s4 = density("S4"), s3 = density("S3"), s1 = density("S1");
    auto s5 = density("S5"), m1 = density("M1");
    EXPECT_GT(s4, s3);
    EXPECT_GT(s3, s1);
    EXPECT_GT(s1, s5);
    EXPECT_EQ(m1, 0u);
}

TEST(DramTiming, Presets)
{
    auto t = DramTiming::ddr4(3200);
    EXPECT_NEAR(t.tCK, 0.625, 1e-9);
    EXPECT_GT(t.tRC, t.tRAS);
    EXPECT_DEATH(DramTiming::ddr4(1866), "unsupported");
}

TEST(Dimm, RowBufferTiming)
{
    Dimm d = makeDimm();
    DramAddr a{0, 100, 0};
    DramAddr same_row{0, 100, 512};
    DramAddr other_row{0, 200, 0};
    DramAddr other_bank{5, 300, 0};

    Ns now = 1000.0;
    auto first = d.access(a, now);
    EXPECT_TRUE(first.act);
    now += first.latency;

    auto hit = d.access(same_row, now);
    EXPECT_TRUE(hit.rowHit);
    EXPECT_FALSE(hit.act);
    EXPECT_LT(hit.latency, first.latency);
    now += hit.latency;

    auto conflict = d.access(other_row, now);
    EXPECT_TRUE(conflict.act);
    EXPECT_FALSE(conflict.rowHit);
    EXPECT_GT(conflict.latency, hit.latency + 10.0);
    now += conflict.latency;

    // Different bank: independent row buffer, no conflict with bank 0.
    auto db_open = d.access(other_bank, now);
    now += db_open.latency;
    auto db_hit = d.access(other_bank, now);
    EXPECT_TRUE(db_hit.rowHit);
}

TEST(Dimm, SameBankActsRespectTrc)
{
    Dimm d = makeDimm();
    const auto &t = d.timing();
    // Alternate two rows in one bank back-to-back: each access is a
    // conflict and ACT spacing must be at least tRC.
    Ns now = 0.0;
    Ns prev_latency = 0.0;
    for (int i = 0; i < 10; ++i) {
        auto r = d.access({0, std::uint64_t(100 + (i & 1)), 0}, now);
        EXPECT_TRUE(r.act);
        prev_latency = r.latency;
        now += 1.0; // issue immediately: the bank must stretch time
    }
    EXPECT_GE(prev_latency, t.tRC); // backlog accumulated
}

TEST(Dimm, DisturbanceFlipsVictim)
{
    // Synthetic profile with one dense weak row region and TRR off.
    const DimmProfile prof = denseProfile(); // Dimm keeps a reference
    Dimm d(prof, DramTiming::ddr4(2666), noTrr());

    std::uint64_t agg1 = 5000, victim = 5001, agg2 = 5002;
    d.fillRow(0, victim, 0x55, 0.0);

    Ns now = 0.0;
    for (int i = 0; i < 4000; ++i) {
        // Alternate the sandwiching aggressors (double-sided).
        auto r1 = d.access({0, agg1, 0}, now);
        now += r1.latency;
        auto r2 = d.access({0, agg2, 0}, now);
        now += r2.latency;
    }
    auto diffs = d.diffRow(0, victim, 0x55, now);
    EXPECT_GT(diffs.size(), 0u);
    // The flip log also covers the outer victims (agg +/- 1, 2).
    EXPECT_GE(d.flipLog().size(), diffs.size());
}

TEST(Dimm, VictimActivationRestoresCharge)
{
    const DimmProfile prof = denseProfile(); // Dimm keeps a reference
    Dimm d(prof, DramTiming::ddr4(2666), noTrr());

    std::uint64_t agg1 = 5000, victim = 5001, agg2 = 5002;
    d.fillRow(0, victim, 0x55, 0.0);
    Ns now = 0.0;
    for (int i = 0; i < 4000; ++i) {
        now += d.access({0, agg1, 0}, now).latency;
        now += d.access({0, agg2, 0}, now).latency;
        // Periodically touch the victim itself: every activation of a
        // row restores its cells, so no flips can accumulate.
        if (i % 500 == 0)
            now += d.access({0, victim, 0}, now).latency;
    }
    EXPECT_EQ(d.diffRow(0, victim, 0x55, now).size(), 0u);
}

TEST(Dimm, AutoRefreshResetsDisturbance)
{
    const DimmProfile prof = // Dimm keeps a reference
        weakCells(DimmProfile::byId("S4"), 4.0, 3000.0, 0.1, 2500);
    Dimm d(prof, DramTiming::ddr4(2666), noTrr());
    const auto &t = d.timing();

    std::uint64_t agg1 = 7000, victim = 7001, agg2 = 7002;
    d.fillRow(0, victim, 0x55, 0.0);
    // Hammer slowly: fewer than hcMin activations land between any
    // two auto-refreshes of the victim, so nothing may flip.
    Ns now = 0.0;
    Ns step = t.tREFW / 1000.0; // 1000 ACT pairs per retention window
    for (int i = 0; i < 12000; ++i) {
        d.access({0, agg1, 0}, now);
        d.access({0, agg2, 0}, now + 60.0);
        now += step;
    }
    EXPECT_EQ(d.diffRow(0, victim, 0x55, now).size(), 0u);
}

TEST(Dimm, M1NeverFlips)
{
    Dimm d = makeDimm("M1", noTrr());
    std::uint64_t agg1 = 9000, agg2 = 9002;
    d.fillRow(0, 9001, 0xAA, 0.0);
    Ns now = 0.0;
    for (int i = 0; i < 30000; ++i) {
        now += d.access({0, agg1, 0}, now).latency;
        now += d.access({0, agg2, 0}, now).latency;
    }
    EXPECT_EQ(d.flipLog().size(), 0u);
}

TEST(Dimm, DataPathReadWrite)
{
    Dimm d = makeDimm();
    std::uint8_t buf[4] = {0xde, 0xad, 0xbe, 0xef};
    d.writeBytes({2, 42, 100}, buf, 4, 0.0);
    EXPECT_EQ(d.readByte({2, 42, 100}, 1.0), 0xde);
    EXPECT_EQ(d.readByte({2, 42, 103}, 1.0), 0xef);
    EXPECT_EQ(d.readByte({2, 42, 99}, 1.0), 0x00); // untouched default
    EXPECT_DEATH(d.writeBytes({2, 42, 8190}, buf, 4, 0.0),
                 "crosses row boundary");
}

TEST(Dimm, FillRowAndDiff)
{
    Dimm d = makeDimm();
    d.fillRow(1, 10, 0x55, 0.0);
    EXPECT_EQ(d.readByte({1, 10, 1234}, 1.0), 0x55);
    EXPECT_TRUE(d.diffRow(1, 10, 0x55, 1.0).empty());
    // Manually corrupting one byte is detected with exact position.
    std::uint8_t v = 0x54;
    d.writeBytes({1, 10, 100}, &v, 1, 2.0);
    auto diffs = d.diffRow(1, 10, 0x55, 3.0);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].bitOffset, 100u * 8);
    EXPECT_FALSE(diffs[0].toOne);
}

TEST(Dimm, OutOfRangePanics)
{
    Dimm d = makeDimm();
    EXPECT_DEATH(d.access({99, 0, 0}, 0.0), "bank");
    EXPECT_DEATH(d.access({0, 1ULL << 40, 0}, 0.0), "row");
}

TEST(MemoryController, MappingGeometryMustMatch)
{
    const auto &prof = DimmProfile::byId("S1"); // 16 GiB, 2 ranks
    EXPECT_DEATH(MemoryController(mappingFor(Arch::CometLake, 8, 1), prof,
                                  DramTiming::ddr4(2933), TrrConfig{}),
                 "banks");
}

TEST(MemoryController, PhysAddrDataPath)
{
    const auto &prof = DimmProfile::byId("S2");
    MemoryController mc(mappingFor(Arch::RaptorLake, 8, 1), prof,
                        DramTiming::ddr4(3200), TrrConfig{});
    PhysAddr pa = 0x12345678;
    mc.writeByte(pa, 0x7e, 0.0);
    EXPECT_EQ(mc.readByte(pa, 1.0), 0x7e);
    auto r = mc.access(pa, 2.0);
    EXPECT_GT(r.latency, 0.0);
}
