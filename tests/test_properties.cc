/**
 * @file
 * Cross-cutting property suites: exhaustive bijection checks on small
 * mapping spaces, refresh-phase invariants, buddy allocator stress
 * invariants, disturbance accounting under randomized access streams,
 * and CPU-engine equivalence over fuzzed hammer kernels.
 */

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "cpu/sim_cpu.hh"
#include "differential.hh"
#include "dram/dimm.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "mapping/mapping_presets.hh"
#include "os/buddy_allocator.hh"
#include "os/vm.hh"

using namespace rho;
using namespace rho::test;

/**
 * GF(2) round-trip over every Table 4 preset: for each architecture
 * and supported geometry, addr -> (bank,row,col) -> addr must be the
 * identity, and dram -> addr -> dram likewise.
 */
TEST(MappingRoundTrip, AllTable4PresetsAreIdentity)
{
    struct Geometry
    {
        unsigned sizeGib;
        unsigned ranks;
    };
    const Geometry geometries[] = {{8, 1}, {16, 2}, {32, 2}};

    for (Arch arch : allArchs) {
        for (const Geometry &g : geometries) {
            AddressMapping m = mappingFor(arch, g.sizeGib, g.ranks);
            ASSERT_TRUE(m.isBijective()) << m.describe();

            // Structured probes: walk each physical bit plus dense
            // low addresses, then a pseudo-random spray.
            std::vector<PhysAddr> probes;
            for (unsigned b = 0; b < m.physBits(); ++b)
                probes.push_back(1ULL << b);
            for (PhysAddr pa = 0; pa < 4096; pa += 64)
                probes.push_back(pa);
            Rng rng(hashCombine(static_cast<std::uint64_t>(arch),
                                g.sizeGib));
            for (int i = 0; i < 4096; ++i)
                probes.push_back(rng.uniformInt(0, m.memBytes() - 1));

            for (PhysAddr pa : probes) {
                DramAddr da = m.decode(pa);
                EXPECT_EQ(m.encode(da), pa)
                    << archName(arch) << " " << g.sizeGib << "GiB";
            }

            // And the reverse direction on in-range coordinates.
            for (int i = 0; i < 1024; ++i) {
                DramAddr da;
                da.bank = static_cast<std::uint32_t>(
                    rng.uniformInt(0, m.numBanks() - 1));
                da.row = rng.uniformInt(0, m.numRows() - 1);
                da.col = rng.uniformInt(0, m.numCols() - 1);
                DramAddr rt = m.decode(m.encode(da));
                EXPECT_EQ(rt.bank, da.bank);
                EXPECT_EQ(rt.row, da.row);
                EXPECT_EQ(rt.col, da.col);
            }
        }
    }
}

/** flipsPerMinute must be well-defined before any location ran. */
TEST(SweepResultProperties, FlipsPerMinuteZeroTimeIsZero)
{
    SweepResult res;
    EXPECT_EQ(res.simTimeNs, 0.0);
    EXPECT_EQ(res.flipsPerMinute(), 0.0); // no division by zero / NaN

    // Flips without elapsed time (degenerate merge) still yield 0.
    res.totalFlips = 42;
    EXPECT_EQ(res.flipsPerMinute(), 0.0);

    // With time, the rate is finite and consistent.
    res.simTimeNs = 30e9; // half a minute
    EXPECT_DOUBLE_EQ(res.flipsPerMinute(), 84.0);
}

/** A single-location campaign produces a coherent one-entry result. */
TEST(SweepResultProperties, SingleLocationSweep)
{
    SystemSpec spec(Arch::CometLake, DimmProfile::byId("S4"));
    Rng rng(31);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    SweepParams params;
    params.numLocations = 1;
    params.jobs = 1;

    SweepResult res =
        sweepCampaign(spec, pattern,
                      rhoConfig(Arch::CometLake, true, 120000), params,
                      31);
    ASSERT_EQ(res.flipsPerLocation.size(), 1u);
    ASSERT_EQ(res.cumulativeTimeNs.size(), 1u);
    EXPECT_EQ(res.flipsPerLocation[0], res.totalFlips);
    EXPECT_EQ(res.cumulativeTimeNs[0], res.simTimeNs);
    EXPECT_GT(res.simTimeNs, 0.0);
    EXPECT_GE(res.flipsPerMinute(), 0.0);
    EXPECT_EQ(res.flipList.size(), res.totalFlips);
}

class MappingBijection : public ::testing::TestWithParam<Arch>
{
};

/**
 * Exhaustive bijection over a subsampled coset: for 64k addresses
 * spread across the full space, decode must be injective per
 * (bank,row,col) and encode its exact inverse.
 */
TEST_P(MappingBijection, InjectiveOnLargeSample)
{
    AddressMapping m = mappingFor(GetParam(), 16, 2);
    std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>
        seen;
    Rng rng(77);
    for (int i = 0; i < 65536; ++i) {
        PhysAddr pa = rng.uniformInt(0, m.memBytes() - 1);
        DramAddr da = m.decode(pa);
        auto key = std::make_tuple(da.bank, da.row, da.col);
        // Either new, or the exact same pa mapped twice.
        auto [it, fresh] = seen.insert(key);
        (void)it;
        if (!fresh)
            EXPECT_EQ(m.encode(da), pa);
        EXPECT_EQ(m.encode(da), pa);
    }
}

/** Banks must be perfectly balanced over aligned address ranges. */
TEST_P(MappingBijection, BanksUniformOverAlignedRegion)
{
    AddressMapping m = mappingFor(GetParam(), 8, 1);
    std::map<std::uint32_t, unsigned> counts;
    // A 2^20-byte aligned region covers the lowest bit of every bank
    // function, so banks split it evenly (the paper's Step-0 premise).
    for (PhysAddr pa = 0; pa < (1ULL << 21); pa += cacheLineBytes)
        ++counts[m.decode(pa).bank];
    unsigned lines = (1u << 21) / cacheLineBytes;
    for (auto [bank, n] : counts)
        EXPECT_EQ(n, lines / m.numBanks()) << "bank " << bank;
    EXPECT_EQ(counts.size(), m.numBanks());
}

INSTANTIATE_TEST_SUITE_P(AllArchs, MappingBijection,
                         ::testing::ValuesIn(allArchs));

class RefreshPhase : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Refresh-race property: hammering that accumulates just below the
 * weakest threshold between any two refreshes never flips, regardless
 * of when within the retention window the hammering starts.
 */
TEST_P(RefreshPhase, SubThresholdNeverFlips)
{
    DimmProfile p =
        weakCells(DimmProfile::byId("S4"), 5.0, 3000.0, 0.05, 2600);
    Dimm d(p, DramTiming::ddr4(2666), noTrr());

    std::uint64_t base = 4000 + GetParam() * 64;
    d.fillRow(0, base + 1, 0x55, 0.0);
    // Start at a param-dependent phase within the retention window.
    Ns now = GetParam() * (d.timing().tREFW / 8.0);
    // 1200 pair activations per window << 2600 threshold.
    Ns step = d.timing().tREFW / 1200.0;
    for (int i = 0; i < 4000; ++i) {
        d.access({0, base, 0}, now);
        d.access({0, base + 2, 0}, now + 60.0);
        now += step;
    }
    EXPECT_TRUE(d.diffRow(0, base + 1, 0x55, now).empty());
}

/** And the same pressure delivered fast (within one window) flips. */
TEST_P(RefreshPhase, SuperThresholdFlips)
{
    DimmProfile p =
        weakCells(DimmProfile::byId("S4"), 5.0, 3000.0, 0.05, 2600);
    Dimm d(p, DramTiming::ddr4(2666), noTrr());

    // Three sandwiched victims: the probability that none of them
    // carries an eligible weak cell is negligible.
    std::uint64_t base = 4000 + GetParam() * 64;
    for (std::uint64_t v : {base + 1, base + 3, base + 5})
        d.fillRow(0, v, 0x55, 0.0);
    Ns now = GetParam() * (d.timing().tREFW / 8.0);
    for (int i = 0; i < 8000; ++i) {
        std::uint64_t agg = base + 2 * (i % 4);
        now += d.access({0, agg, 0}, now).latency;
    }
    std::size_t flips = 0;
    for (std::uint64_t v : {base + 1, base + 3, base + 5})
        flips += d.diffRow(0, v, 0x55, now).size();
    EXPECT_GT(flips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Phases, RefreshPhase, ::testing::Range(0u, 8u));

class BuddyStress : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Allocator stress property: random alloc/free sequences never hand
 * out overlapping blocks and always coalesce back to the initial
 * free-byte count.
 */
TEST_P(BuddyStress, NoOverlapAndFullCoalesce)
{
    BuddyAllocator b(1ULL << 26, 0.0);
    std::uint64_t initial = b.freeBytes();
    Rng rng(GetParam());

    std::vector<std::pair<PhysAddr, unsigned>> held;
    std::map<PhysAddr, PhysAddr> extents; // base -> end

    for (int step = 0; step < 2000; ++step) {
        if (held.empty() || rng.chance(0.55)) {
            unsigned order = static_cast<unsigned>(
                rng.uniformInt(0, 6));
            auto blk = b.alloc(order);
            if (!blk)
                continue;
            PhysAddr end = *blk + (pageBytes << order);
            // Overlap check against every held block.
            auto it = extents.lower_bound(*blk);
            if (it != extents.end())
                ASSERT_GE(it->first, end);
            if (it != extents.begin()) {
                --it;
                ASSERT_LE(it->second, *blk);
            }
            extents[*blk] = end;
            held.push_back({*blk, order});
        } else {
            std::size_t i = rng.uniformInt(0, held.size() - 1);
            auto [addr, order] = held[i];
            b.free(addr, order);
            extents.erase(addr);
            held[i] = held.back();
            held.pop_back();
        }
    }
    for (auto [addr, order] : held)
        b.free(addr, order);
    EXPECT_EQ(b.freeBytes(), initial);
    EXPECT_EQ(b.freeBlocksAt(BuddyAllocator::maxOrder),
              (1ULL << 26) / (pageBytes << BuddyAllocator::maxOrder));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyStress, ::testing::Range(0u, 8u));

/**
 * Disturbance bookkeeping: the flip log never reports a flip in a row
 * that was itself activated after its last data write (self-refresh
 * on activation), and diffRow always agrees with the log for rows the
 * attacker planted.
 */
TEST(Disturbance, LogAgreesWithDataDiff)
{
    DimmProfile p =
        weakCells(DimmProfile::byId("S4"), 2.0, 2500.0, 0.2, 1800);
    Dimm d(p, DramTiming::ddr4(2666), noTrr());

    std::vector<std::uint64_t> victims = {1001, 1003, 1005};
    for (auto v : victims)
        d.fillRow(0, v, 0x55, 0.0);
    Ns now = 0.0;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t agg = 1000 + 2 * rng.uniformInt(0, 2); // 1000/2/4
        now += d.access({0, agg, 0}, now).latency;
    }
    std::size_t diffs = 0;
    for (auto v : victims)
        diffs += d.diffRow(0, v, 0x55, now).size();
    std::size_t logged = 0;
    for (const auto &f : d.flipLog())
        logged += f.row == 1001 || f.row == 1003 || f.row == 1005;
    EXPECT_EQ(diffs, logged);
}

// ---------------------------------------------------------------------
// CPU engines over fuzzed kernels
// ---------------------------------------------------------------------

namespace
{

/**
 * A random but well-formed kernel body: arbitrary interleavings of
 * every op kind over a small line pool, guaranteed to contain at
 * least one memory read (run() rejects kernels with none).
 */
HammerKernel
fuzzKernel(Rng &rng)
{
    AddressingMode mode = rng.chance(0.5) ? AddressingMode::CppIndexed
                                          : AddressingMode::JitImmediate;
    HammerKernel k(mode);
    unsigned len = static_cast<unsigned>(rng.uniformInt(4, 40));
    unsigned mem_ops = 0;
    for (unsigned i = 0; i < len; ++i) {
        PhysAddr pa = 0x200000
            + rng.uniformInt(0, 7) * 0x40000; // 8-line pool
        switch (rng.uniformInt(0, 9)) {
          case 0:
            k.pushNops(
                static_cast<unsigned>(rng.uniformInt(1, 1200)));
            break;
          case 1:
            k.push({OpKind::AluDep, 0,
                    static_cast<std::uint32_t>(rng.uniformInt(1, 64))});
            break;
          case 2:
            k.push({OpKind::Lfence, 0, 1});
            break;
          case 3:
            k.push({rng.chance(0.5) ? OpKind::Mfence : OpKind::Cpuid, 0,
                    1});
            break;
          case 4:
            k.push({OpKind::BranchObf, 0, 1});
            break;
          case 5:
            k.push({OpKind::BranchLoop, 0, 1});
            break;
          case 6:
            k.pushMem(OpKind::ClFlushOpt, pa);
            break;
          case 7:
            k.pushMem(OpKind::Load, pa);
            ++mem_ops;
            break;
          default: {
            const OpKind hints[] = {OpKind::PrefetchT0, OpKind::PrefetchT1,
                                    OpKind::PrefetchT2,
                                    OpKind::PrefetchNta};
            k.pushMem(hints[rng.uniformInt(0, 3)], pa);
            ++mem_ops;
            break;
          }
        }
    }
    if (mem_ops == 0)
        k.pushMem(OpKind::PrefetchNta, 0x200000);
    return k;
}

} // namespace

/**
 * For arbitrary kernels, the Blocked engine must issue the identical
 * DRAM access sequence at identical (bit-exact, monotone) timestamps
 * and report identical counters as the Reference engine — batching
 * must never reorder or re-time anything observable.
 */
TEST(CpuEngineProperties, FuzzedKernelsReplayIdentically)
{
    for (std::uint64_t trial = 0; trial < 60; ++trial) {
        Rng fuzz(hashCombine(0xf022, trial));
        HammerKernel k = fuzzKernel(fuzz);
        Arch arch = allArchs[trial % allArchs.size()];
        std::uint64_t seed = hashCombine(trial, 0x5eed);
        Ns start = trial * 1e5;

        RecordingMemory blocked_mem(55.0), ref_mem(55.0);
        expectCoresAgree(arch, seed, k, 1500, blocked_mem, ref_mem,
                         "trial " + std::to_string(trial) + " "
                             + archName(arch),
                         start);
        // The DRAM command stream never travels backwards in time.
        EXPECT_TRUE(std::is_sorted(
            blocked_mem.accesses.begin(), blocked_mem.accesses.end(),
            [](const auto &a, const auto &b) { return a.second < b.second; }))
            << "trial " << trial;
    }
}

/**
 * Stage-2 translation properties, fuzzed over placements and seeds:
 * within each tenant the installed GPA -> HPA map is a bijection onto
 * that tenant's frames (10k random addresses round-trip through
 * gpaToHpa / hpaToGpa with offsets preserved), and across tenants no
 * host page is ever reachable from two VMs (no cross-VM aliasing).
 */
TEST(VmStage2Properties, BijectionPerVmAndNoCrossVmAliasing)
{
    const VmPlacement placements[] = {VmPlacement::Contiguous,
                                      VmPlacement::Interleaved,
                                      VmPlacement::Guarded};
    for (VmPlacement placement : placements) {
        for (bool bank_part : {false, true}) {
            std::uint64_t seed = hashCombine(
                static_cast<std::uint64_t>(placement), bank_part);
            MemorySystem sys(SystemSpec(Arch::RaptorLake,
                                        DimmProfile::byId("S2")));
            BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, seed);
            VmManager vmm(sys, buddy, VmConfig{placement, bank_part});
            ASSERT_TRUE(vmm.createTenants(3, 4ull << 20));

            std::map<std::uint64_t, VmId> host_owner;
            Rng rng(seed);
            for (VmId vm = 1; vm <= 3; ++vm) {
                const std::uint64_t bytes = vmm.gpaBytes(vm);
                std::set<std::uint64_t> host_pages;
                for (int i = 0; i < 10000; ++i) {
                    PhysAddr gpa = rng.uniformInt(0, bytes - 1);
                    auto hpa = vmm.gpaToHpa(vm, gpa);
                    ASSERT_TRUE(hpa.has_value())
                        << "unmapped gpa " << gpa << " vm " << vm;
                    // Offset-preserving, owner-consistent, invertible.
                    EXPECT_EQ(*hpa & (pageBytes - 1),
                              gpa & (pageBytes - 1));
                    EXPECT_EQ(vmm.ownerOf(*hpa), vm);
                    auto back = vmm.hpaToGpa(vm, *hpa);
                    ASSERT_TRUE(back.has_value());
                    EXPECT_EQ(*back, gpa);
                    host_pages.insert(pageOf(*hpa));
                    auto [it, fresh] =
                        host_owner.emplace(pageOf(*hpa), vm);
                    EXPECT_EQ(it->second, vm)
                        << "host page aliased across VMs";
                    (void)fresh;
                }
                // The sampled host pages all lie in the frame list —
                // the codomain of the installed stage-2 map.
                const auto &frames = vmm.framesOf(vm);
                std::set<PhysAddr> frame_set;
                for (PhysAddr f : frames)
                    frame_set.insert(pageOf(f));
                for (std::uint64_t hp : host_pages)
                    EXPECT_TRUE(frame_set.count(hp))
                        << "host page outside the tenant's partition";
            }
        }
    }
}
