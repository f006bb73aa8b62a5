/**
 * @file
 * Tests for the OS substrate: buddy allocator invariants, address
 * spaces / pagemap, the reverse-engineering pool, and page tables
 * stored in simulated DRAM.
 */

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "memsys/memory_system.hh"
#include "os/buddy_allocator.hh"
#include "os/page_table.hh"
#include "os/pagemap.hh"

using namespace rho;

TEST(Buddy, AllocFreeRoundTrip)
{
    BuddyAllocator b(1ULL << 30, /*reserved_frac=*/0.0);
    EXPECT_EQ(b.freeBytes(), 1ULL << 30);
    auto p = b.alloc(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(b.freeBytes(), (1ULL << 30) - pageBytes);
    b.free(*p, 0);
    EXPECT_EQ(b.freeBytes(), 1ULL << 30);
}

TEST(Buddy, SplitsAndCoalesces)
{
    BuddyAllocator b(1ULL << 24, 0.0);
    // Allocate two order-0 buddies out of an order-1 split.
    auto a = b.alloc(0);
    auto c = b.alloc(0);
    ASSERT_TRUE(a && c);
    EXPECT_EQ(*c, *a + pageBytes); // lowest-address-first split
    b.free(*a, 0);
    b.free(*c, 0);
    // Everything must have coalesced back into max-order blocks.
    EXPECT_EQ(b.freeBlocksAt(BuddyAllocator::maxOrder),
              (1ULL << 24) / (pageBytes << BuddyAllocator::maxOrder));
}

TEST(Buddy, BlockAlignment)
{
    BuddyAllocator b(1ULL << 26, 0.0);
    for (unsigned order = 0; order <= BuddyAllocator::maxOrder; ++order) {
        auto p = b.alloc(order);
        ASSERT_TRUE(p);
        EXPECT_EQ(*p % (pageBytes << order), 0u) << order;
    }
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator b(pageBytes << BuddyAllocator::maxOrder, 0.0);
    ASSERT_TRUE(b.alloc(BuddyAllocator::maxOrder));
    EXPECT_FALSE(b.alloc(0).has_value());
    EXPECT_FALSE(b.alloc(BuddyAllocator::maxOrder).has_value());
}

TEST(Buddy, DrainBelowEmptiesLowOrders)
{
    BuddyAllocator b(1ULL << 26, 0.0);
    // Create some low-order fragmentation.
    std::vector<PhysAddr> held;
    for (int i = 0; i < 20; ++i)
        held.push_back(*b.alloc(0));
    auto drained = b.drainBelow(3);
    for (unsigned o = 0; o < 3; ++o)
        EXPECT_EQ(b.freeBlocksAt(o), 0u);
    // Returning the drained blocks restores the byte count.
    std::uint64_t before = b.freeBytes();
    for (auto [addr, order] : drained)
        b.free(addr, order);
    EXPECT_GT(b.freeBytes(), before);
}

TEST(Buddy, ReservedHolesReduceFreeBytes)
{
    BuddyAllocator b(1ULL << 28, 0.05, /*seed=*/3);
    double frac = 1.0 - double(b.freeBytes()) / (1ULL << 28);
    EXPECT_NEAR(frac, 0.05, 0.01);
}

TEST(Buddy, MisalignedFreePanics)
{
    BuddyAllocator b(1ULL << 24, 0.0);
    EXPECT_DEATH(b.free(pageBytes / 2, 0), "misaligned");
}

TEST(AddressSpace, MapTranslateUnmap)
{
    BuddyAllocator b(1ULL << 26, 0.0);
    AddressSpace as(b);
    auto mapped = as.mmap(3 * pageBytes);
    ASSERT_TRUE(mapped);
    VirtAddr va = *mapped;
    EXPECT_EQ(as.mappedPages(), 3u);
    auto pa = as.virtToPhys(va + pageBytes + 123);
    ASSERT_TRUE(pa);
    EXPECT_EQ(*pa % pageBytes, 123u);
}

TEST(AddressSpace, DestructorReturnsMemory)
{
    BuddyAllocator b(1ULL << 24, 0.0);
    std::uint64_t before = b.freeBytes();
    {
        AddressSpace as(b);
        ASSERT_TRUE(as.mmap(64 * pageBytes));
        EXPECT_LT(b.freeBytes(), before);
    }
    EXPECT_EQ(b.freeBytes(), before);
}

TEST(PhysPool, CoverageAndMembership)
{
    BuddyAllocator b(1ULL << 28, 0.02);
    PhysPool pool(b, 0.70);
    EXPECT_NEAR(pool.coverage(), 0.70, 0.02);
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(pool.contains(pool.randomAddr(rng)));
}

TEST(PhysPool, PairBaseHonorsMask)
{
    BuddyAllocator b(1ULL << 28, 0.02);
    PhysPool pool(b, 0.70);
    Rng rng(6);
    std::uint64_t mask = (1ULL << 14) | (1ULL << 21);
    for (int i = 0; i < 50; ++i) {
        auto base = pool.pairBase(rng, mask);
        ASSERT_TRUE(base);
        EXPECT_TRUE(pool.contains(*base));
        EXPECT_TRUE(pool.contains(*base ^ mask));
    }
}

namespace
{

/**
 * Digest of the first 10k randomAddr() draws and, per draw, a
 * contains() answer for a near-miss partner address. Pins the pool's
 * sampling stream (the two Rng draws per address) and membership.
 */
std::uint64_t
poolDrawDigest(const PhysPool &pool, std::uint64_t seed)
{
    Rng rng(seed);
    std::uint64_t h = 0;
    for (unsigned i = 0; i < 10000; ++i) {
        PhysAddr a = pool.randomAddr(rng);
        h = hashCombine(h, a);
        h = hashCombine(h, pool.contains(a ^ (1ULL << (12 + i % 18))));
    }
    return h;
}

} // namespace

TEST(PhysPool, DrawStreamPinnedAcrossSeeds)
{
    // Recorded on the per-page pool; the block-based pool must
    // reproduce the exact stream, owned page count and coverage.
    struct Pin
    {
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t pages;
    };
    const Pin pins[] = {
        {1, 0x8a30ded2bd946540ULL, 184320},
        {2, 0x6fbeeaa6a5f057b2ULL, 184320},
        {3, 0x9a21fe90b666e6edULL, 184320},
    };
    for (const Pin &pin : pins) {
        BuddyAllocator b(1ULL << 30, 0.02, pin.seed);
        PhysPool pool(b, 0.70);
        EXPECT_EQ(pool.ownedPages(), pin.pages) << "seed " << pin.seed;
        EXPECT_DOUBLE_EQ(pool.coverage(),
                         static_cast<double>(pin.pages)
                             / ((1ULL << 30) / pageBytes));
        EXPECT_EQ(poolDrawDigest(pool, pin.seed), pin.digest)
            << "seed " << pin.seed;
    }
}

TEST(PhysPool, DrawStreamPinnedUnderAllocationFaults)
{
    // Injected failures make max-order allocations miss, so order-0
    // fallback pages interleave with 4 MiB blocks in the pool.
    BuddyAllocator b(1ULL << 30, 0.02, 4);
    FaultInjector inj(FaultSchedule::allocPressure(0.3, 0.0), 4);
    b.setFaultInjector(&inj);
    PhysPool pool(b, 0.70);
    b.setFaultInjector(nullptr);
    EXPECT_NE(pool.ownedPages() % (1ULL << BuddyAllocator::maxOrder), 0u)
        << "no order-0 fallback pages in the pool";
    EXPECT_EQ(pool.ownedPages(), 184382u);
    EXPECT_EQ(poolDrawDigest(pool, 4), 0x1d9c9bc909048b29ULL);
}

TEST(PhysPool, EmptyPoolHasNoPairs)
{
    // A tiny fraction owns nothing; so does a pool whose allocator
    // fails from the start. Neither may sample out of range.
    BuddyAllocator tiny(1ULL << 28, 0.02);
    PhysPool none(tiny, 0.0);
    BuddyAllocator failing(1ULL << 28, 0.02);
    FaultInjector inj(FaultSchedule::allocPressure(1.0, 0.0), 9);
    failing.setFaultInjector(&inj);
    PhysPool starved(failing, 0.70);
    for (const PhysPool *pool : {&none, &starved}) {
        EXPECT_TRUE(pool->empty());
        EXPECT_EQ(pool->ownedPages(), 0u);
        EXPECT_EQ(pool->coverage(), 0.0);
        EXPECT_FALSE(pool->contains(0));
        Rng rng(1);
        EXPECT_FALSE(pool->pairBase(rng, 1ULL << 13));
    }
    Rng rng(1);
    EXPECT_DEATH(none.randomAddr(rng), "empty pool");
}

TEST(PageTable, MapAndTranslateThroughDram)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02);
    PageTableManager pt(sys, buddy);

    PhysAddr frame = *buddy.allocPage();
    VirtAddr va = 0x500000000000ULL;
    ASSERT_TRUE(pt.mapPage(7, va, frame, true));
    auto xlate = pt.translate(7, va + 77);
    ASSERT_TRUE(xlate);
    EXPECT_EQ(*xlate, frame + 77);
    EXPECT_FALSE(pt.translate(7, va + (pageBytes << 9)).has_value());
    EXPECT_FALSE(pt.translate(8, va).has_value()); // other pid
}

TEST(PageTable, PteLivesInDramAndBitFlipsRedirect)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02);
    PageTableManager pt(sys, buddy);

    PhysAddr frame = *buddy.alloc(5); // aligned so bit 13 of PTE is 0
    VirtAddr va = 0x600000000000ULL;
    ASSERT_TRUE(pt.mapPage(9, va, frame, true));
    auto pte_addr = pt.pteAddrOf(9, va);
    ASSERT_TRUE(pte_addr);

    // Corrupt frame bit 13 directly through the DRAM data path, as a
    // RowHammer flip would.
    std::uint64_t pte = pt.readQword(*pte_addr);
    pt.writeQword(*pte_addr, pte ^ (1ULL << 13));
    auto xlate = pt.translate(9, va);
    ASSERT_TRUE(xlate);
    EXPECT_EQ(pageOf(*xlate), frame ^ (1ULL << 13));
}

TEST(PageTable, SharedTableWithinRegion)
{
    MemorySystem sys(SystemSpec(Arch::AlderLake, DimmProfile::byId("S2")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02);
    PageTableManager pt(sys, buddy);
    VirtAddr base = 0x700000000000ULL;
    ASSERT_TRUE(pt.mapPage(1, base, *buddy.allocPage(), true));
    auto before = pt.ptPagesAllocated();
    ASSERT_TRUE(
        pt.mapPage(1, base + 5 * pageBytes, *buddy.allocPage(), true));
    EXPECT_EQ(pt.ptPagesAllocated(), before); // same 2 MiB region
    ASSERT_TRUE(
        pt.mapPage(1, base + (pageBytes << 9), *buddy.allocPage(), true));
    EXPECT_EQ(pt.ptPagesAllocated(), before + 1);
}

TEST(Buddy, FaultExemptAllocBypassesInjector)
{
    // Rollback paths reclaim frames with fault_exempt=true: an
    // injected failure there would corrupt allocator bookkeeping
    // after the fault was already charged to the rolled-back
    // operation.
    BuddyAllocator b(1ULL << 24, 0.0);
    FaultInjector inj(FaultSchedule::constant({.allocFailProb = 1.0}),
                      /*seed=*/7);
    b.setFaultInjector(&inj);

    std::uint64_t before = b.freeBytes();
    EXPECT_FALSE(b.alloc(0).has_value());
    EXPECT_EQ(b.freeBytes(), before); // injected failure burns nothing

    auto p = b.alloc(0, /*fault_exempt=*/true);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(b.freeBytes(), before - pageBytes);
    b.free(*p, 0);
}
