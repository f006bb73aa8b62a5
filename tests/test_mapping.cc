/**
 * @file
 * Tests for the DRAM address-mapping engine and the Table 4 presets:
 * bijectivity, decode/encode round trips, neighbour navigation, and
 * the randomized mapping generator's invariants.
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "mapping/address_mapping.hh"
#include "mapping/mapping_presets.hh"

using namespace rho;

namespace
{

struct Geometry
{
    unsigned sizeGib;
    unsigned ranks;
};

struct PresetCase
{
    Arch arch;
    Geometry geom;
};

std::vector<PresetCase>
allPresets()
{
    std::vector<PresetCase> out;
    for (Arch a : allArchs) {
        for (Geometry g : {Geometry{8, 1}, {16, 2}, {32, 2}})
            out.push_back({a, g});
    }
    return out;
}

} // namespace

class PresetMapping : public ::testing::TestWithParam<PresetCase>
{
};

TEST_P(PresetMapping, IsBijective)
{
    auto [arch, g] = GetParam();
    AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
    EXPECT_TRUE(m.isBijective()) << m.describe();
    EXPECT_EQ(m.memBytes(), std::uint64_t(g.sizeGib) << 30);
    EXPECT_EQ(m.numBanks(), g.ranks * 16u);
}

TEST_P(PresetMapping, EncodeDecodeRoundTrip)
{
    auto [arch, g] = GetParam();
    AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        PhysAddr pa = rng.uniformInt(0, m.memBytes() - 1);
        DramAddr da = m.decode(pa);
        EXPECT_LT(da.bank, m.numBanks());
        EXPECT_LT(da.row, m.numRows());
        EXPECT_EQ(m.encode(da), pa);
    }
    for (int i = 0; i < 200; ++i) {
        DramAddr da;
        da.bank = static_cast<std::uint32_t>(
            rng.uniformInt(0, m.numBanks() - 1));
        da.row = rng.uniformInt(0, m.numRows() - 1);
        da.col = rng.uniformInt(0, m.numCols() - 1);
        EXPECT_EQ(m.decode(m.encode(da)), da);
    }
}

TEST_P(PresetMapping, TableDecodeMatchesBitwiseReference)
{
    // decode() runs on precomputed XOR tables; check it against the
    // bit-by-bit definition of the core over full 64-bit addresses,
    // including bits above physBits (which the core must ignore).
    auto [arch, g] = GetParam();
    AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
    auto reference = [&m](PhysAddr pa) {
        PhysAddr norm = m.normalize(pa);
        DramAddr da;
        const auto &fns = m.bankFnMasks();
        for (std::size_t i = 0; i < fns.size(); ++i)
            da.bank |= static_cast<std::uint32_t>(parity(norm, fns[i])) << i;
        const auto &rows = m.rowBitPositions();
        for (std::size_t i = 0; i < rows.size(); ++i)
            da.row |= bit(norm, rows[i]) << i;
        const auto &cols = m.colBitPositions();
        for (std::size_t i = 0; i < cols.size(); ++i)
            da.col |= bit(norm, cols[i]) << i;
        return da;
    };
    Rng rng(hashCombine(static_cast<std::uint64_t>(arch), g.sizeGib));
    for (int i = 0; i < 100000; ++i) {
        PhysAddr pa = rng.uniformInt(0, ~0ULL);
        DramAddr da = m.decode(pa);
        ASSERT_EQ(da, reference(pa)) << std::hex << pa;
        ASSERT_EQ(m.encode(da), pa & (m.memBytes() - 1)) << std::hex << pa;
    }
}

TEST_P(PresetMapping, RowNeighboursStayInBank)
{
    auto [arch, g] = GetParam();
    AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        std::uint32_t bank = static_cast<std::uint32_t>(
            rng.uniformInt(0, m.numBanks() - 1));
        std::uint64_t row = rng.uniformInt(2, m.numRows() - 3);
        for (int d = -2; d <= 2; ++d) {
            PhysAddr pa = m.rowToPhys(bank, row + d);
            DramAddr da = m.decode(pa);
            EXPECT_EQ(da.bank, bank);
            EXPECT_EQ(da.row, row + d);
        }
    }
}

TEST_P(PresetMapping, RoundTripAtAddressSpaceBoundaries)
{
    auto [arch, g] = GetParam();
    AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);

    // Bottom and top cache lines of the physical space. On Zen 3 the
    // bottom sits BELOW the region base, so normalization
    // wraps around the top of the address space — the decode must
    // still be a clean bijection there.
    std::vector<PhysAddr> edges;
    for (PhysAddr d = 0; d < 4096; d += 64) {
        edges.push_back(d);
        edges.push_back(m.memBytes() - 64 - d);
    }
    // The region base itself and its vicinity (no-op for linear
    // mappings, which report offset 0).
    if (std::uint64_t base = m.regionOffset()) {
        for (PhysAddr d = 0; d < 4096; d += 64) {
            edges.push_back(base + d);
            edges.push_back(base - 64 - d);
        }
    }
    for (PhysAddr pa : edges) {
        DramAddr da = m.decode(pa);
        EXPECT_LT(da.bank, m.numBanks());
        EXPECT_LT(da.row, m.numRows());
        EXPECT_LT(da.col, m.numCols());
        EXPECT_EQ(m.encode(da), pa) << "pa=" << pa;
    }

    // Extreme DRAM coordinates map inside the space and round-trip.
    for (DramAddr da :
         {DramAddr{0, 0, 0},
          DramAddr{static_cast<std::uint32_t>(m.numBanks() - 1),
                   m.numRows() - 1, m.numCols() - 1},
          DramAddr{0, m.numRows() - 1, 0},
          DramAddr{static_cast<std::uint32_t>(m.numBanks() - 1), 0,
                   m.numCols() - 1}}) {
        PhysAddr pa = m.encode(da);
        EXPECT_LT(pa, m.memBytes());
        EXPECT_EQ(m.decode(pa), da);
    }
}

INSTANTIATE_TEST_SUITE_P(Table4, PresetMapping,
                         ::testing::ValuesIn(allPresets()));

TEST(MappingPresets, CometRocketShareScheme)
{
    auto comet = mappingFor(Arch::CometLake, 16, 2);
    auto rocket = mappingFor(Arch::RocketLake, 16, 2);
    EXPECT_TRUE(comet.sameBankAndRowStructure(rocket));
}

TEST(MappingPresets, AlderRaptorShareScheme)
{
    auto alder = mappingFor(Arch::AlderLake, 16, 2);
    auto raptor = mappingFor(Arch::RaptorLake, 16, 2);
    EXPECT_TRUE(alder.sameBankAndRowStructure(raptor));
}

TEST(MappingPresets, SchemesDifferAcrossFamilies)
{
    auto comet = mappingFor(Arch::CometLake, 16, 2);
    auto raptor = mappingFor(Arch::RaptorLake, 16, 2);
    EXPECT_FALSE(comet.sameBankAndRowStructure(raptor));
}

TEST(MappingPresets, CometHasPureRowBitsAlderDoesNot)
{
    // "Pure" row bits appear in no bank function; the paper observed
    // they exist on Comet/Rocket but vanished on Alder/Raptor.
    auto pure_rows = [](const AddressMapping &m) {
        std::uint64_t fn_union = 0;
        for (auto fn : m.bankFnMasks())
            fn_union |= fn;
        unsigned pure = 0;
        for (unsigned b : m.rowBitPositions()) {
            if (!bit(fn_union, b))
                ++pure;
        }
        return pure;
    };
    EXPECT_GT(pure_rows(mappingFor(Arch::CometLake, 16, 2)), 0u);
    EXPECT_EQ(pure_rows(mappingFor(Arch::RaptorLake, 16, 2)), 0u);
    EXPECT_EQ(pure_rows(mappingFor(Arch::AlderLake, 8, 1)), 0u);
}

TEST(MappingPresets, Table4ExactBankFunctions)
{
    auto m = mappingFor(Arch::CometLake, 8, 1);
    std::vector<std::uint64_t> expect = {
        maskOfBits({16, 19}), maskOfBits({15, 18}), maskOfBits({14, 17}),
        maskOfBits({6, 13})};
    auto fns = m.bankFnMasks();
    std::sort(fns.begin(), fns.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fns, expect);
    EXPECT_EQ(m.rowBitPositions().front(), 17u);
    EXPECT_EQ(m.rowBitPositions().back(), 32u);
}

TEST(MappingPresets, UnsupportedGeometryIsFatal)
{
    EXPECT_DEATH(mappingFor(Arch::CometLake, 4, 1), "unsupported");
}

TEST(MappingChecks, MalformedMappingsAreFatal)
{
    // A valid 16-bit linear core: two bank functions, 8 row bits and
    // 6 column bits.
    auto build = [](unsigned phys_bits, std::uint64_t fn0,
                    unsigned top_row, std::uint64_t offset) {
        return AddressMapping(phys_bits, {fn0, 0x2080},
                              {8, 9, 10, 11, 12, 14, 15, top_row},
                              {0, 1, 2, 3, 4, 5}, offset);
    };
    EXPECT_TRUE(build(16, 0x1040, 13, 0).isBijective());
    EXPECT_TRUE(build(16, 0x1040, 13, 0x3000).isBijective());

    EXPECT_DEATH(build(64, 0x1040, 13, 0), "phys_bits 64 too large");
    EXPECT_DEATH(build(17, 0x1040, 13, 0), "!= 17 phys bits");
    // Offsets: outside the space, and a single set bit (an XOR).
    EXPECT_DEATH(build(16, 0x1040, 13, 0x13000), "outside 16-bit space");
    EXPECT_DEATH(build(16, 0x1040, 13, 0x4000), "single-bit offset");
    // Every bank-function, row and column bit lies below phys_bits.
    EXPECT_DEATH(build(16, 0x11040, 13, 0), "bank function 0x11040");
    EXPECT_DEATH(build(16, 0x1040, 16, 0), "bit 16 outside 16-bit space");
    EXPECT_DEATH(AddressMapping(16, {0x1040, 0x2080},
                                {8, 9, 10, 11, 12, 13, 14, 15},
                                {0, 1, 2, 3, 4, 40}),
                 "bit 40 outside 16-bit space");
}

TEST(MappingPresets, DecodeEncodeDigestsArePinned)
{
    // One digest per preset over decode() and encode(decode()) of
    // seeded addresses, half of them drawn from the full 64-bit range
    // (bits at and above physBits must be ignored). Pins the exact
    // function of every preset, Zen's region base included.
    const std::uint64_t want[] = {
        0xf4eb242e3b860414ULL, 0xb5adcfd1edc66f5cULL, 0x5708cd97773c3859ULL, // Comet Lake
        0xddab380c576bfb80ULL, 0x65422f00fb792f9dULL, 0xccbc161422e8592eULL, // Rocket Lake
        0x8654d07f2daca3ffULL, 0xb152c24d5b15919eULL, 0xdd18edc5953a995bULL, // Alder Lake
        0x07fb7589d1ce0131ULL, 0x607d103bb9dfb91fULL, 0x66614f08e54e89eeULL, // Raptor Lake
        0xf70d1e708955715aULL, 0x4abdd8725c449997ULL, 0x4308e8ce68e37a8cULL, // Zen 3
        0x6dc9fe8ceadc3fc8ULL, 0xc994ca696f5ef36bULL, 0x5934527b1ae923e7ULL, // Cortex-A72
    };
    std::vector<PresetCase> presets = allPresets();
    ASSERT_EQ(presets.size(), std::size(want));
    for (std::size_t i = 0; i < presets.size(); ++i) {
        auto [arch, g] = presets[i];
        AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
        Rng rng(hashCombine(0xd19e57ULL, i));
        std::uint64_t d = 0;
        for (int k = 0; k < 4096; ++k) {
            PhysAddr pa = rng.uniformInt(0, k % 2 ? ~0ULL
                                                  : m.memBytes() - 1);
            DramAddr da = m.decode(pa);
            d = hashCombine(d, da.bank);
            d = hashCombine(d, da.row);
            d = hashCombine(d, da.col);
            d = hashCombine(d, m.encode(da));
        }
        EXPECT_EQ(d, want[i]) << "preset " << i << " ("
                              << archName(arch) << ", " << g.sizeGib
                              << " GiB): 0x" << std::hex << d;
    }
}

class RandomizedMapping : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomizedMapping, GeneratorInvariants)
{
    Rng rng(GetParam());
    unsigned fns = 4 + GetParam() % 3;
    unsigned non_row = 1 + GetParam() % 2;
    AddressMapping m = randomizedMapping(rng, 33 + GetParam() % 2, fns,
                                         non_row);
    EXPECT_TRUE(m.isBijective());
    EXPECT_EQ(m.numBankFns(), fns);

    // Requested number of non-row functions (disjoint from row bits).
    std::uint64_t row_mask = maskOfBits(m.rowBitPositions());
    unsigned actually_non_row = 0;
    for (auto fn : m.bankFnMasks()) {
        if ((fn & row_mask) == 0)
            ++actually_non_row;
    }
    EXPECT_GE(actually_non_row, non_row);
    EXPECT_LT(actually_non_row, fns); // at least one row-inclusive

    // Round trip still holds.
    Rng addr_rng(1);
    for (int i = 0; i < 50; ++i) {
        PhysAddr pa = addr_rng.uniformInt(0, m.memBytes() - 1);
        EXPECT_EQ(m.encode(m.decode(pa)), pa);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedMapping,
                         ::testing::Range(0u, 16u));

TEST(ArchNames, Table1Metadata)
{
    EXPECT_EQ(archName(Arch::CometLake), "Comet Lake");
    EXPECT_EQ(archCpu(Arch::RaptorLake), "i7-14700K");
    EXPECT_EQ(archMemFreq(Arch::CometLake), 2933u);
    EXPECT_EQ(archMemFreq(Arch::AlderLake), 3200u);
}

TEST(Describe, MentionsBankFnsAndRows)
{
    auto m = mappingFor(Arch::CometLake, 8, 1);
    auto s = m.describe();
    EXPECT_NE(s.find("Bank Func:"), std::string::npos);
    EXPECT_NE(s.find("Row: 17-32"), std::string::npos);
}
