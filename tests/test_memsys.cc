/**
 * @file
 * Tests for MemorySystem composition and the SBDR timing probe.
 */

#include <vector>

#include <gtest/gtest.h>

#include "memsys/memory_system.hh"
#include "memsys/timing_probe.hh"

using namespace rho;

TEST(MemorySystem, ComposesMappingFromArchAndDimm)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S1")));
    EXPECT_EQ(sys.mapping().memBytes(), 16ULL << 30);
    EXPECT_EQ(sys.mapping().numBanks(), 32u);
    EXPECT_TRUE(sys.mapping().sameBankAndRowStructure(
        mappingFor(Arch::RaptorLake, 16, 2)));
}

TEST(MemorySystem, ClampsDimmToPlatformFrequency)
{
    // S1 is a 3200 MT/s DIMM; Comet Lake only drives 2933.
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S1")));
    EXPECT_NEAR(sys.dimm().timing().tCK, 2000.0 / 2933, 1e-6);
    MemorySystem sys2(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S1")));
    EXPECT_NEAR(sys2.dimm().timing().tCK, 0.625, 1e-6);
}

TEST(MemorySystem, HonoursEverySpecField)
{
    const DimmProfile &s2 = DimmProfile::byId("S2");
    MemorySystem stock(SystemSpec(Arch::RaptorLake, s2));
    EXPECT_EQ(stock.cpuModel(), CpuModelKind::Blocked);
    EXPECT_EQ(stock.dimm().rowStore(), RowStoreKind::Flat);
    EXPECT_FALSE(stock.dimm().eccConfig().enabled);

    SystemSpec spec(Arch::RaptorLake, s2);
    spec.cpuModel = CpuModelKind::Reference;
    spec.referenceRowStore = true;
    spec.refreshBoost = 4.0;
    spec.ecc.enabled = true;
    MemorySystem sys(spec);
    EXPECT_EQ(sys.cpuModel(), CpuModelKind::Reference);
    EXPECT_EQ(sys.dimm().rowStore(), RowStoreKind::Reference);
    EXPECT_DOUBLE_EQ(sys.dimm().timing().tREFI,
                     stock.dimm().timing().tREFI / 4.0);
    EXPECT_DOUBLE_EQ(sys.dimm().timing().tREFW,
                     stock.dimm().timing().tREFW / 4.0);
    EXPECT_TRUE(sys.dimm().eccConfig().enabled);
}

TEST(MemorySystem, MappingOverloadUsesGivenMapping)
{
    // A Raptor Lake machine behind Comet Lake's mapping.
    AddressMapping comet = mappingFor(Arch::CometLake, 16, 2);
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S1")),
                     comet);
    EXPECT_EQ(sys.arch(), Arch::RaptorLake);
    EXPECT_EQ(sys.mapping().describe(), comet.describe());
    EXPECT_NE(sys.mapping().describe(),
              mappingFor(Arch::RaptorLake, 16, 2).describe());
}

TEST(MemorySystem, ClockAdvancesMonotonically)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S2")));
    EXPECT_EQ(sys.now(), 0.0);
    sys.dramAccess(0x1000, 100.0);
    EXPECT_GE(sys.now(), 100.0);
    Ns t = sys.now();
    sys.dramAccess(0x2000, 50.0); // stale timestamp must not rewind
    EXPECT_GE(sys.now(), t);
    sys.advance(500.0);
    EXPECT_GE(sys.now(), t + 500.0);
}

TEST(MemorySystem, FunctionalDataPath)
{
    MemorySystem sys(SystemSpec(Arch::AlderLake, DimmProfile::byId("S2")));
    sys.writeByte(0xdead00, 0x5a);
    EXPECT_EQ(sys.readByte(0xdead00), 0x5a);
    EXPECT_EQ(sys.readByte(0xdead01), 0x00);
}

/**
 * The controller memoizes its last decodes; dramAccess must stay the
 * exact twin of dramAccessResolved through hits, misses and evictions.
 * Each arch drives two systems over the same streams: pairs alternating
 * two lines (same bank, power-of-two row strides, and random), three
 * lines cycled (the third random or one low bit from the first),
 * single lines repeated, and random addresses.
 */
TEST(MemorySystem, DramAccessMatchesResolvedUnderMemo)
{
    for (Arch arch : allArchs) {
        SCOPED_TRACE(archName(arch));
        TrrConfig trr;
        trr.sampleProb = 1.0;
        trr.matchThreshold = 8;
        SystemSpec spec(arch, DimmProfile::byId("S1"), trr);
        MemorySystem viaAddr(spec);
        MemorySystem viaHandle(spec);
        const AddressMapping &m = viaAddr.mapping();
        Rng rng(0x3e30 + static_cast<std::uint64_t>(arch));
        auto randomAddr = [&] {
            return rng.uniformInt(0, m.memBytes() - 1);
        };
        auto sameBankPartner = [&](PhysAddr a, std::uint64_t stride) {
            DramAddr d = m.decode(a);
            d.row = (d.row + stride) % m.numRows();
            return m.encode(d);
        };

        std::vector<PhysAddr> stream;
        for (unsigned k = 0; k < 24; ++k) {
            PhysAddr a = randomAddr();
            PhysAddr b = k % 3 == 0   ? randomAddr()
                         : k % 3 == 1 ? sameBankPartner(a, 1ull << (k % 12))
                                      : sameBankPartner(a, 1 + k);
            // Every other third line is a near twin of the first: one
            // low address bit apart, often in another bank.
            PhysAddr c = k % 2 ? a ^ (std::uint64_t{64} << (k % 12))
                               : randomAddr();
            for (unsigned r = 0; r < 40; ++r)
                stream.insert(stream.end(), {a, b});
            for (unsigned r = 0; r < 20; ++r)
                stream.insert(stream.end(), {a, b, c});
            stream.insert(stream.end(), 10, c);
            stream.insert(stream.end(), 5, a);
        }
        for (unsigned k = 0; k < 2000; ++k)
            stream.push_back(randomAddr());

        for (std::size_t i = 0; i < stream.size(); ++i) {
            PhysAddr pa = stream[i];
            Ns got = viaAddr.dramAccess(pa, viaAddr.now() + 12.0);
            Ns want = viaHandle.dramAccessResolved(
                viaHandle.resolveLine(pa), viaHandle.now() + 12.0);
            ASSERT_EQ(got, want) << "access " << i;
            viaAddr.advance(got);
            viaHandle.advance(want);
        }
        EXPECT_EQ(viaAddr.now(), viaHandle.now());
        EXPECT_EQ(viaAddr.dimm().totalActs(), viaHandle.dimm().totalActs());
        EXPECT_EQ(viaAddr.dimm().trrRefreshCount(),
                  viaHandle.dimm().trrRefreshCount());
        EXPECT_GT(viaAddr.dimm().totalActs(), stream.size() / 2);
        EXPECT_GT(viaAddr.dimm().trrRefreshCount(), 0u);
    }
}

namespace
{

/** Pick a pair with the given relationship via the mapping. */
PhysAddr
partnerFor(const AddressMapping &m, PhysAddr a, bool same_bank,
           bool same_row)
{
    DramAddr da = m.decode(a);
    DramAddr db = da;
    if (!same_bank)
        db.bank = (da.bank + 1) % m.numBanks();
    if (!same_row)
        db.row = da.row + 64;
    return m.encode(db);
}

} // namespace

class ProbeCase : public ::testing::TestWithParam<Arch>
{
};

TEST_P(ProbeCase, SbdrSlowerThanSameRowAndDiffBank)
{
    MemorySystem sys(SystemSpec(GetParam(), DimmProfile::byId("S1")));
    TimingProbe probe(sys, 42);
    const auto &m = sys.mapping();
    PhysAddr a = m.encode({3, 1000, 0});

    double sbdr = probe.measurePair(a, partnerFor(m, a, true, false));
    double sr = probe.measurePair(a, partnerFor(m, a, true, true) + 256);
    double db = probe.measurePair(a, partnerFor(m, a, false, false));

    EXPECT_GT(sbdr, sr + 10.0);
    EXPECT_GT(sbdr, db + 10.0);
    EXPECT_NEAR(sr, db, 8.0);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, ProbeCase,
                         ::testing::ValuesIn(allArchs));

TEST(TimingProbe, AdvancesClockAndCountsAccesses)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S2")));
    TimingProbe probe(sys, 7);
    Ns t0 = sys.now();
    probe.measurePair(0x1000, 0x2000, 50);
    EXPECT_EQ(probe.accessCount(), 100u);
    EXPECT_GT(sys.now(), t0 + 100 * 40.0); // >= overhead+latency each
}

TEST(TimingProbe, ZeroRoundsPanics)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S2")));
    TimingProbe probe(sys, 7);
    EXPECT_DEATH(probe.measurePair(0x1000, 0x2000, 0), "rounds");
}

TEST(TimingProbe, MeasurementNoiseIsBounded)
{
    MemorySystem sys(SystemSpec(Arch::CometLake, DimmProfile::byId("S2")));
    TimingProbe probe(sys, 7);
    PhysAddr a = sys.mapping().encode({0, 10, 0});
    PhysAddr b = sys.mapping().encode({0, 500, 0});
    double first = probe.measurePair(a, b);
    for (int i = 0; i < 10; ++i) {
        double again = probe.measurePair(a, b);
        EXPECT_NEAR(again, first, 8.0);
    }
}
