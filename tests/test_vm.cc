/**
 * @file
 * Multi-tenant VM layer tests: partition carving under every placement
 * policy, guest paging and stage-2 translation, the cross-VM attack
 * driver, and the two headline suites of the inter-VM work —
 *
 *  - the tenant-isolation differential suite: the cross-VM campaign
 *    scenario of tests/differential.hh run on every modelled
 *    architecture over the engine matrix ({Flat, Reference} row store
 *    x {Blocked, Reference} CPU replay x --jobs {1, 8}) must produce
 *    byte-identical event streams and identical campaign results;
 *
 *  - the fuzzed isolation invariant: no configuration that *claims* to
 *    prevent cross-VM flips (guard rows, per-tenant bank partitioning)
 *    may ever yield one, across seeds, placements and tenant sizes.
 *    Override the seed count via RHO_VM_FUZZ_SEEDS for longer CI legs.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hh"
#include "exploit/cross_vm.hh"
#include "hammer/tuned_configs.hh"
#include "mapping/mapping_presets.hh"
#include "os/vm.hh"

using namespace rho;
using namespace rho::test;

namespace
{

/** A rig with two carved tenants for the unit-level tests. */
struct VmRig
{
    MemorySystem sys;
    BuddyAllocator buddy;
    VmManager vmm;

    VmRig(VmConfig cfg, std::uint64_t seed = 7,
          std::uint64_t bytes_each = 4ull << 20, unsigned tenants = 2)
        : sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S2"))),
          buddy(sys.mapping().memBytes(), 0.02, seed),
          vmm(sys, buddy, cfg)
    {
        EXPECT_TRUE(vmm.createTenants(tenants, bytes_each));
    }
};

} // namespace

// ---------------------------------------------------------------------
// Partition carving
// ---------------------------------------------------------------------

TEST(VmCarve, ContiguousPartitionsAreDisjointAndSized)
{
    VmRig rig(VmConfig{VmPlacement::Contiguous, false});
    ASSERT_EQ(rig.vmm.tenantCount(), 2u);
    std::set<PhysAddr> all;
    for (VmId vm = 1; vm <= 2; ++vm) {
        const auto &frames = rig.vmm.framesOf(vm);
        EXPECT_EQ(frames.size(), (4ull << 20) / pageBytes);
        EXPECT_EQ(rig.vmm.gpaBytes(vm), 4ull << 20);
        for (PhysAddr f : frames) {
            EXPECT_EQ(f & (pageBytes - 1), 0u);
            EXPECT_TRUE(all.insert(f).second)
                << "frame shared between tenants";
            EXPECT_EQ(rig.vmm.ownerOf(f), vm);
            EXPECT_EQ(rig.vmm.ownerOf(f + pageBytes - 1), vm);
        }
    }
    EXPECT_FALSE(rig.vmm.claimsNoCrossVmFlips());
}

TEST(VmCarve, GuardedPlacementSeparatesTenantRows)
{
    // Under guard rows, no tenant row may be within the +-2 blast
    // radius of another tenant's row in the same bank.
    VmRig rig(VmConfig{VmPlacement::Guarded, false});
    EXPECT_TRUE(rig.vmm.claimsNoCrossVmFlips());
    const AddressMapping &map = rig.sys.mapping();
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::set<VmId>>
        rows;
    for (VmId vm = 1; vm <= 2; ++vm) {
        for (PhysAddr f : rig.vmm.framesOf(vm)) {
            for (std::uint64_t off = 0; off < pageBytes;
                 off += cacheLineBytes) {
                DramAddr da = map.decode(f + off);
                rows[{da.bank, da.row}].insert(vm);
            }
        }
    }
    for (const auto &[key, owners] : rows) {
        ASSERT_EQ(owners.size(), 1u)
            << "row shared between tenants, bank " << key.first;
        for (std::uint64_t d = 1; d <= 2; ++d) {
            for (std::uint64_t r : {key.second - d, key.second + d}) {
                auto it = rows.find({key.first, r});
                if (it == rows.end())
                    continue;
                EXPECT_EQ(*it->second.begin(), *owners.begin())
                    << "tenant rows within blast radius, bank "
                    << key.first << " rows " << key.second << "/" << r;
            }
        }
    }
}

TEST(VmCarve, BankPartitionGivesDisjointBankSets)
{
    VmRig rig(VmConfig{VmPlacement::Contiguous, true});
    EXPECT_TRUE(rig.vmm.claimsNoCrossVmFlips());
    const AddressMapping &map = rig.sys.mapping();
    std::vector<std::set<std::uint32_t>> banks(3);
    for (VmId vm = 1; vm <= 2; ++vm) {
        for (PhysAddr f : rig.vmm.framesOf(vm)) {
            for (std::uint64_t off = 0; off < pageBytes;
                 off += cacheLineBytes)
                banks[vm].insert(map.decode(f + off).bank);
        }
    }
    for (std::uint32_t b : banks[1])
        EXPECT_FALSE(banks[2].count(b)) << "shared bank " << b;
}

TEST(VmCarve, InterleavedAlternatesRowBlocks)
{
    VmRig rig(VmConfig{VmPlacement::Interleaved, false});
    // Round-robin order-1 blocks: sorting each tenant's frames, the
    // two partitions interleave at 8 KiB granularity rather than
    // forming two contiguous extents.
    auto f1 = rig.vmm.framesOf(1);
    auto f2 = rig.vmm.framesOf(2);
    std::sort(f1.begin(), f1.end());
    std::sort(f2.begin(), f2.end());
    EXPECT_LT(f2.front(), f1.back());
    EXPECT_LT(f1.front(), f2.back());
}

// ---------------------------------------------------------------------
// Stage-2 + guest paging
// ---------------------------------------------------------------------

TEST(VmPaging, Stage2TranslatesInstalledMap)
{
    VmRig rig(VmConfig{VmPlacement::Contiguous, false});
    const auto &frames = rig.vmm.framesOf(1);
    for (std::uint64_t i : {std::uint64_t{0}, frames.size() / 2,
                            frames.size() - 1}) {
        PhysAddr gpa = i * pageBytes + 123;
        auto hpa = rig.vmm.gpaToHpa(1, gpa);
        ASSERT_TRUE(hpa.has_value());
        EXPECT_EQ(*hpa, frames[i] + 123);
        auto back = rig.vmm.hpaToGpa(1, *hpa);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, gpa);
    }
    EXPECT_FALSE(rig.vmm.gpaToHpa(1, rig.vmm.gpaBytes(1)).has_value());
}

TEST(VmPaging, GuestMapTranslateRoundTrips)
{
    VmRig rig(VmConfig{VmPlacement::Contiguous, false});
    const std::uint64_t pid = 4242;
    VirtAddr va = 0x700000000000ULL;
    auto frame = rig.vmm.allocGuestFrame(1);
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(rig.vmm.vmMapPage(1, pid, va, *frame, true));
    auto host = rig.vmm.vmTranslate(1, pid, va + 77);
    ASSERT_TRUE(host.has_value());
    auto expect = rig.vmm.gpaToHpa(1, *frame + 77);
    ASSERT_TRUE(expect.has_value());
    EXPECT_EQ(*host, *expect);
    // The guest PT page itself lives in a tenant frame, reachable via
    // both its GPA and its stage-2 host address.
    auto pt_gpa = rig.vmm.vmPtPageGpa(1, pid, va);
    ASSERT_TRUE(pt_gpa.has_value());
    auto pt_hpa = rig.vmm.vmPtPageHpa(1, pid, va);
    ASSERT_TRUE(pt_hpa.has_value());
    EXPECT_EQ(rig.vmm.ownerOf(*pt_hpa), 1u);
}

TEST(VmPaging, SteerLandsPtPageOnChosenGpa)
{
    VmRig rig(VmConfig{VmPlacement::Contiguous, false});
    const std::uint64_t pid = 4242;
    // Target a frame deep enough that steering must burn allocations.
    std::uint64_t target = 40 * pageBytes;
    std::uint64_t backing = 3 * pageBytes; // page-aligned GPA
    GuestSteerResult steer =
        rig.vmm.steerGuestPtPage(1, pid, target, backing);
    ASSERT_TRUE(steer.success) << steer.failureReason;
    EXPECT_EQ(steer.ptPageGpa, target);
    EXPECT_EQ(steer.allocationsBurned, 40u);
    EXPECT_GT(steer.timeNs, 0.0);
    auto pt_gpa = rig.vmm.vmPtPageGpa(1, pid, steer.sprayBase);
    ASSERT_TRUE(pt_gpa.has_value());
    EXPECT_EQ(*pt_gpa, target);
    // The spray PTE points at the requested backing frame.
    auto host = rig.vmm.vmTranslate(1, pid, steer.sprayBase);
    ASSERT_TRUE(host.has_value());
    EXPECT_EQ(pageOf(*host), pageOf(*rig.vmm.gpaToHpa(1, backing)));
}

// ---------------------------------------------------------------------
// Cross-VM attack driver
// ---------------------------------------------------------------------

TEST(CrossVm, UndefendedInterleavedPlacementLeaksFlips)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 11);
    VmManager vmm(sys, buddy, VmConfig{VmPlacement::Interleaved, false});
    ASSERT_TRUE(vmm.createTenants(2, 8ull << 20));
    HammerSession session(sys, 11);
    CrossVmParams params;
    params.hammerCfg = rhoConfig(Arch::RaptorLake, false, 120000);
    params.vmCfg = vmm.config();
    params.hammerRuns = 16;
    params.attemptTakeover = false;
    CrossVmResult res = crossVmAttack(session, vmm, params, 11);
    EXPECT_GT(res.totalFlips, 0u);
    EXPECT_GT(res.crossVmFlipsRaw, 0u);
    EXPECT_TRUE(res.success);
    // Every reported cross flip decodes to a victim-owned address.
    for (const CrossVmFlipInfo &f : res.crossFlips) {
        EXPECT_NE(f.owner, 0u);
        EXPECT_NE(f.owner, 2u); // tenant 2 is the attacker
        EXPECT_EQ(vmm.ownerOf(f.hpa), f.owner);
    }
}

TEST(CrossVm, OnDieEccMasksSingleBitEscapes)
{
    // Same machine and seed, ECC off vs on: the raw (array-level)
    // cross-VM flips are identical, but the ECC read path corrects
    // every single-bit-per-codeword escape, so visibility shrinks.
    auto run = [](bool ecc) {
        SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S4"));
        spec.ecc.enabled = ecc;
        MemorySystem sys(spec);
        BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 11);
        VmManager vmm(sys, buddy,
                      VmConfig{VmPlacement::Interleaved, false});
        EXPECT_TRUE(vmm.createTenants(2, 8ull << 20));
        HammerSession session(sys, 11);
        CrossVmParams params;
        params.hammerCfg = rhoConfig(Arch::RaptorLake, false, 120000);
        params.vmCfg = vmm.config();
        params.hammerRuns = 16;
        params.attemptTakeover = false;
        return crossVmAttack(session, vmm, params, 11);
    };
    CrossVmResult off = run(false);
    CrossVmResult on = run(true);
    ASSERT_GT(off.crossVmFlipsRaw, 0u);
    EXPECT_EQ(on.crossVmFlipsRaw, off.crossVmFlipsRaw);
    EXPECT_EQ(off.crossVmFlipsVisible, off.crossVmFlipsRaw);
    EXPECT_LT(on.crossVmFlipsVisible, on.crossVmFlipsRaw);
}

TEST(CrossVm, GuardedPlacementFailsWithStructuredCode)
{
    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::byId("S4")));
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, 11);
    VmManager vmm(sys, buddy, VmConfig{VmPlacement::Guarded, false});
    ASSERT_TRUE(vmm.createTenants(2, 8ull << 20));
    HammerSession session(sys, 11);
    CrossVmParams params;
    params.hammerCfg = rhoConfig(Arch::RaptorLake, false, 120000);
    params.vmCfg = vmm.config();
    params.hammerRuns = 8;
    CrossVmResult res = crossVmAttack(session, vmm, params, 11);
    EXPECT_EQ(res.crossVmFlipsRaw, 0u);
    EXPECT_FALSE(res.success);
    EXPECT_EQ(res.code, FailureCode::CrossVmPlacementFailed);
    EXPECT_FALSE(res.failureReason.empty());
}

// ---------------------------------------------------------------------
// Tenant-isolation differential suite (the headline)
// ---------------------------------------------------------------------

class VmDifferential : public ::testing::TestWithParam<Arch>
{
};

TEST_P(VmDifferential, CampaignIdenticalAcrossEngineMatrixAndJobs)
{
    Arch arch = GetParam();
    SystemSpec spec =
        tracedSpec(arch, nativeDimm(arch, "S4"), CatVm | CatFlip | CatPhase);
    spec.ecc.enabled = true;
    Digest ref = expectMatrixMatches(
        spec, {1u, 8u}, [](const SystemSpec &s, unsigned jobs) {
            return crossVmScenario(s, 42, jobs, 20000, 4);
        });
    // The stream must carry the VM-boundary events or it would not
    // guard the new subsystem.
    std::set<EventKind> kinds;
    for (const TraceEvent &e : traceEvents(ref))
        kinds.insert(e.kind);
    EXPECT_TRUE(kinds.count(EventKind::VmMapped));
}

INSTANTIATE_TEST_SUITE_P(AllArchs, VmDifferential,
                         ::testing::ValuesIn(allArchs), archParamName);

// ---------------------------------------------------------------------
// Fuzzed isolation invariant
// ---------------------------------------------------------------------

TEST(VmIsolation, DefendedConfigsNeverLeakCrossVmFlips)
{
    // Every configuration that claims to prevent cross-VM flips is
    // attacked with a real budget across seeds; a single cross-VM flip
    // falsifies the defense claim. RHO_VM_FUZZ_SEEDS widens the sweep.
    std::uint64_t num_seeds = envKnob("RHO_VM_FUZZ_SEEDS", 3);
    ASSERT_GT(num_seeds, 0u) << "RHO_VM_FUZZ_SEEDS must be positive";
    const VmConfig defended[] = {
        {VmPlacement::Guarded, false},
        {VmPlacement::Contiguous, true},
        {VmPlacement::Interleaved, true},
        {VmPlacement::Guarded, true},
    };
    for (std::uint64_t s = 0; s < num_seeds; ++s) {
        std::uint64_t seed = hashCombine(0x150fa7e, s);
        for (const VmConfig &cfg : defended) {
            MemorySystem sys(SystemSpec(Arch::RaptorLake,
                                        DimmProfile::byId("S4")));
            BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, seed);
            VmManager vmm(sys, buddy, cfg);
            ASSERT_TRUE(vmm.claimsNoCrossVmFlips());
            ASSERT_TRUE(vmm.createTenants(2, 8ull << 20));
            HammerSession session(sys, seed);
            CrossVmParams params;
            params.hammerCfg =
                rhoConfig(Arch::RaptorLake, false, 120000);
            params.vmCfg = cfg;
            params.hammerRuns = 8;
            params.attemptTakeover = false;
            CrossVmResult res =
                crossVmAttack(session, vmm, params, seed);
            EXPECT_EQ(res.crossVmFlipsRaw, 0u)
                << "defense leaked: placement "
                << vmPlacementName(cfg.placement) << " bankPartition "
                << cfg.bankPartition << " seed " << seed;
        }
    }
}
