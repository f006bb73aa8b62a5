/**
 * @file
 * Differential oracle for the CPU replay engines: CpuModelKind::Blocked
 * (block-cached replay) must be byte-identical to
 * CpuModelKind::Reference (the original op-by-op interpreter) — same
 * PerfCounters including the floating-point clock, same DRAM command
 * stream, same golden trace, same flips, same randomness consumption —
 * across architectures, kernel shapes, seeds and campaign job counts.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/arch_params.hh"
#include "cpu/kernel.hh"
#include "cpu/sim_cpu.hh"
#include "dram/dimm_profile.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "trace/golden.hh"
#include "trace/tracer.hh"

using namespace rho;

// ---------------------------------------------------------------------
// SimCpu differential: Blocked vs Reference
// ---------------------------------------------------------------------

namespace
{

/** Fixed-latency backend recording the DRAM command stream. */
class RecordingMemory : public MemoryBackend
{
  public:
    Ns
    dramAccess(PhysAddr pa, Ns now) override
    {
        accesses.push_back({pa, now});
        return 60.0;
    }

    std::vector<std::pair<PhysAddr, Ns>> accesses;
};

/** The kernel shapes the paper's attack variants produce. */
HammerKernel
shapedKernel(const std::string &shape)
{
    AddressingMode mode = shape == "jit" ? AddressingMode::JitImmediate
                                         : AddressingMode::CppIndexed;
    HammerKernel k(mode);
    for (unsigned i = 0; i < 6; ++i) {
        PhysAddr pa = 0x100000 + i * 0x10000;
        if (shape == "obfuscated")
            k.push({OpKind::BranchObf, 0, 1});
        if (shape == "nop-padded")
            k.pushNops(800);
        if (shape == "load")
            k.pushMem(OpKind::Load, pa);
        else
            k.pushMem(OpKind::PrefetchNta, pa);
        k.pushMem(OpKind::ClFlushOpt, pa);
        if (shape == "fenced")
            k.push({OpKind::Lfence, 0, 1});
    }
    k.push({OpKind::BranchLoop, 0, 1});
    return k;
}

const char *const kKernelShapes[] = {"plain",  "jit",        "obfuscated",
                                     "nop-padded", "load",   "fenced"};

/** Assert every PerfCounters field matches, including the fp clock. */
void
expectSameCounters(const PerfCounters &a, const PerfCounters &b,
                   const std::string &what)
{
    EXPECT_EQ(a.memReads, b.memReads) << what;
    EXPECT_EQ(a.dramAccesses, b.dramAccesses) << what;
    EXPECT_EQ(a.cacheHits, b.cacheHits) << what;
    EXPECT_EQ(a.pfQueueDrops, b.pfQueueDrops) << what;
    EXPECT_EQ(a.flushes, b.flushes) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << what;
    EXPECT_EQ(a.nops, b.nops) << what;
    // Bit-identical simulated time, not approximately equal: the
    // blocked engine hoists expressions but never reassociates them.
    EXPECT_EQ(a.timeNs, b.timeNs) << what;
}

} // namespace

TEST(CpuOracle, CountersAndDramStreamIdenticalEverywhere)
{
    for (Arch arch : allArchs) {
        for (const char *shape : kKernelShapes) {
            for (std::uint64_t seed : {1ULL, 99ULL}) {
                HammerKernel k = shapedKernel(shape);
                RecordingMemory blocked_mem, ref_mem;
                SimCpu blocked(ArchParams::forArch(arch), seed,
                               CpuModelKind::Blocked);
                SimCpu ref(ArchParams::forArch(arch), seed,
                           CpuModelKind::Reference);
                PerfCounters bc = blocked.run(k, blocked_mem, 4000);
                PerfCounters rc = ref.run(k, ref_mem, 4000);

                std::string what = archName(arch) + std::string("/")
                    + shape + "/seed " + std::to_string(seed);
                expectSameCounters(bc, rc, what);
                ASSERT_EQ(blocked_mem.accesses.size(),
                          ref_mem.accesses.size())
                    << what;
                for (std::size_t i = 0; i < ref_mem.accesses.size(); ++i) {
                    ASSERT_EQ(blocked_mem.accesses[i].first,
                              ref_mem.accesses[i].first)
                        << what << " access " << i;
                    // Same address AND same bit-exact issue time.
                    ASSERT_EQ(blocked_mem.accesses[i].second,
                              ref_mem.accesses[i].second)
                        << what << " access " << i;
                }
            }
        }
    }
}

namespace
{

/**
 * Backend whose latency comes from a small repeating set, picked by a
 * hash of (pa, access index). Fills then release far out of issue
 * order, and the repeated 60 ns entry produces tied release times, so
 * the fill-buffer pool sees the orderings a fixed latency never does.
 */
class VariableLatencyMemory : public MemoryBackend
{
  public:
    Ns
    dramAccess(PhysAddr pa, Ns now) override
    {
        static constexpr Ns kLatencies[] = {14.0, 60.0, 60.0, 210.0};
        Ns lat = kLatencies[hashCombine(pa, accesses.size()) & 3];
        accesses.push_back({pa, now});
        return lat;
    }

    std::vector<std::pair<PhysAddr, Ns>> accesses;
};

/**
 * Loads and NTA prefetches interleaved over 24 lines: more lines than
 * any arch has fill buffers, so the pool fills with distinct fills.
 */
HammerKernel
mixedKernel()
{
    HammerKernel k(AddressingMode::JitImmediate);
    for (unsigned i = 0; i < 24; ++i) {
        PhysAddr pa = 0x100000 + i * 0x10000;
        k.pushMem(i % 2 ? OpKind::Load : OpKind::PrefetchNta, pa);
        k.pushMem(OpKind::ClFlushOpt, pa);
    }
    k.push({OpKind::BranchLoop, 0, 1});
    return k;
}

} // namespace

TEST(CpuOracle, VariableLatencyBackendIdenticalEverywhere)
{
    for (Arch arch : allArchs) {
        for (std::uint64_t seed : {3ULL, 71ULL}) {
            HammerKernel k = mixedKernel();
            VariableLatencyMemory blocked_mem, ref_mem;
            SimCpu blocked(ArchParams::forArch(arch), seed,
                           CpuModelKind::Blocked);
            SimCpu ref(ArchParams::forArch(arch), seed,
                       CpuModelKind::Reference);
            PerfCounters bc = blocked.run(k, blocked_mem, 20000);
            PerfCounters rc = ref.run(k, ref_mem, 20000);

            std::string what = archName(arch) + std::string("/mixed/seed ")
                + std::to_string(seed);
            expectSameCounters(bc, rc, what);
            // The pool must have filled, or no release order was tested.
            EXPECT_GT(rc.dramAccesses,
                      ArchParams::forArch(arch).lfbSize * 10)
                << what;
            ASSERT_EQ(blocked_mem.accesses, ref_mem.accesses) << what;
        }
    }
}

TEST(CpuOracle, RngStreamHandoffSpansRuns)
{
    // Back-to-back runs on one core: the blocked engine borrows the
    // rng stream and must hand it back exactly where the reference
    // engine would have left it, or the second run diverges.
    for (const char *shape : {"obfuscated", "plain"}) {
        HammerKernel k = shapedKernel(shape);
        RecordingMemory m1, m2;
        SimCpu blocked(ArchParams::forArch(Arch::RaptorLake), 5,
                       CpuModelKind::Blocked);
        SimCpu ref(ArchParams::forArch(Arch::RaptorLake), 5,
                   CpuModelKind::Reference);
        blocked.run(k, m1, 3000);
        ref.run(k, m2, 3000);
        PerfCounters b2 = blocked.run(k, m1, 3000, 1e6);
        PerfCounters r2 = ref.run(k, m2, 3000, 1e6);
        expectSameCounters(b2, r2, std::string("second run, ") + shape);
    }
}

TEST(CpuOracle, ZeroBudgetMatchesReferenceEdge)
{
    HammerKernel k = shapedKernel("plain");
    RecordingMemory m1, m2;
    SimCpu blocked(ArchParams::forArch(Arch::AlderLake), 3,
                   CpuModelKind::Blocked);
    SimCpu ref(ArchParams::forArch(Arch::AlderLake), 3,
               CpuModelKind::Reference);
    PerfCounters bc = blocked.run(k, m1, 0);
    PerfCounters rc = ref.run(k, m2, 0);
    expectSameCounters(bc, rc, "zero budget");
    EXPECT_EQ(m1.accesses.size(), m2.accesses.size());
}

TEST(CpuOracle, GoldenTraceIdenticalWhenTraced)
{
    // Traced runs exercise the Traced replay specialization (no NOP
    // fusion, per-event emission); the serialized trace must match the
    // reference byte for byte — CPU retire/stall/cache events included.
    auto traced = [](CpuModelKind kind) {
        MemorySystem sys(SystemSpec(Arch::RaptorLake,
                                    DimmProfile::byId("S4")));
        Tracer tracer(TraceConfig{true, CatAll, std::size_t{1} << 22});
        sys.attachTracer(&tracer);
        SimCpu cpu(sys.cpuParams(), 11, kind);
        cpu.setTracer(&tracer);
        HammerKernel k = shapedKernel("obfuscated");
        cpu.run(k, sys, 3000);
        sys.attachTracer(nullptr);
        EXPECT_EQ(tracer.dropped(), 0u);
        return goldenSerialize(tracer.events());
    };
    EXPECT_EQ(traced(CpuModelKind::Blocked),
              traced(CpuModelKind::Reference));
}

namespace
{

/** The pinned quickstart campaign, through either CPU engine. */
SweepResult
campaignRun(unsigned jobs, CpuModelKind kind,
            std::vector<TraceEvent> &trace)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    spec.cpuModel = kind;
    spec.trace.enabled = true;
    spec.trace.categories = CatDram | CatTrr | CatFlip | CatPhase;
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 2000);
    Rng rng(42);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    SweepParams params;
    params.numLocations = 2;
    params.jobs = jobs;
    trace.clear();
    return sweepCampaign(spec, pattern, cfg, params, 42, nullptr,
                         nullptr, &trace);
}

bool
sameFlips(const std::vector<FlipRecord> &a,
          const std::vector<FlipRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].bank != b[i].bank || a[i].row != b[i].row
            || a[i].bitOffset != b[i].bitOffset
            || a[i].toOne != b[i].toOne || a[i].when != b[i].when)
            return false;
    }
    return true;
}

} // namespace

TEST(CpuOracle, CampaignFlipsAndTracesIdenticalAcrossModesAndJobs)
{
    for (unsigned jobs : {1u, 8u}) {
        std::vector<TraceEvent> blocked_tr, ref_tr;
        SweepResult blocked =
            campaignRun(jobs, CpuModelKind::Blocked, blocked_tr);
        SweepResult ref =
            campaignRun(jobs, CpuModelKind::Reference, ref_tr);
        EXPECT_EQ(goldenSerialize(blocked_tr), goldenSerialize(ref_tr))
            << "trace diverged, jobs " << jobs;
        EXPECT_TRUE(sameFlips(blocked.flipList, ref.flipList))
            << "flip list diverged, jobs " << jobs;
        EXPECT_EQ(blocked.totalFlips, ref.totalFlips);
        EXPECT_EQ(blocked.simTimeNs, ref.simTimeNs);
    }
}

TEST(CpuOracle, Sec53ShapedSessionIdentical)
{
    // The sec53_end_to_end workload shape (single-bank rho config on
    // S4): full HammerSession through both engines must agree on acts,
    // flips and the simulated clock.
    auto sessionRun = [](CpuModelKind kind, std::vector<FlipRecord> &fl) {
        SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S4"));
        spec.cpuModel = kind;
        MemorySystem sys(spec);
        HammerSession session(sys, 17);
        HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 60000);
        HammerPattern pattern = HammerPattern::doubleSided();
        HammerLocation loc =
            session.tryRandomLocation(pattern, cfg).loc.value();
        session.hammer(pattern, loc, cfg);
        fl = sys.dimm().flipLog();
        struct
        {
            std::uint64_t acts;
            Ns clock;
        } out{sys.dimm().totalActs(), sys.now()};
        return std::pair<std::uint64_t, Ns>{out.acts, out.clock};
    };
    std::vector<FlipRecord> blocked_fl, ref_fl;
    auto blocked = sessionRun(CpuModelKind::Blocked, blocked_fl);
    auto ref = sessionRun(CpuModelKind::Reference, ref_fl);
    EXPECT_EQ(blocked.first, ref.first);
    EXPECT_EQ(blocked.second, ref.second); // bit-identical sim clock
    EXPECT_TRUE(sameFlips(blocked_fl, ref_fl));
}
