/**
 * @file
 * Differential oracle for the CPU replay engines: CpuModelKind::Blocked
 * (block-cached replay) must be byte-identical to
 * CpuModelKind::Reference (the original op-by-op interpreter) — same
 * PerfCounters including the floating-point clock, same DRAM command
 * stream, same golden trace, same flips, same randomness consumption —
 * across architectures, kernel shapes and seeds. Campaign-level cells
 * run in the engine matrix of tests/differential.hh.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/kernel.hh"
#include "differential.hh"

using namespace rho;
using namespace rho::test;

// ---------------------------------------------------------------------
// SimCpu differential: Blocked vs Reference
// ---------------------------------------------------------------------

namespace
{

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

} // namespace

TEST(CpuOracle, CountersAndDramStreamIdenticalEverywhere)
{
    for (Arch arch : allArchs) {
        for (const char *shape : kKernelShapes) {
            for (std::uint64_t seed : {1ULL, 99ULL}) {
                RecordingMemory blocked_mem(60.0), ref_mem(60.0);
                expectCoresAgree(arch, seed, shapedKernel(shape), 4000,
                                 blocked_mem, ref_mem,
                                 archName(arch) + "/" + shape + "/seed "
                                     + std::to_string(seed));
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
class VariableLatencyMemory : public RecordingMemory
{
  public:
    VariableLatencyMemory() : RecordingMemory(0.0) {}

    Ns
    dramAccess(PhysAddr pa, Ns now) override
    {
        static constexpr Ns kLatencies[] = {14.0, 60.0, 60.0, 210.0};
        Ns lat = kLatencies[hashCombine(pa, accesses.size()) & 3];
        RecordingMemory::dramAccess(pa, now);
        return lat;
    }
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
            VariableLatencyMemory blocked_mem, ref_mem;
            std::string what = archName(arch) + std::string("/mixed/seed ")
                + std::to_string(seed);
            PerfCounters rc = expectCoresAgree(arch, seed, mixedKernel(),
                                               20000, blocked_mem, ref_mem,
                                               what);
            // The pool must have filled, or no release order was tested.
            EXPECT_GT(rc.dramAccesses,
                      ArchParams::forArch(arch).lfbSize * 10)
                << what;
        }
    }
}

TEST(CpuOracle, RngStreamHandoffSpansRuns)
{
    // Back-to-back runs on one core draw from one rng stream: each run
    // must leave it exactly where the reference engine would, or the
    // next run diverges. A zero budget runs the reference loop on the
    // Blocked core too, so its middle run mixes both loops on one
    // stream; in the obfuscated kernel that run's one op is a branch
    // that draws.
    for (const char *shape : {"obfuscated", "plain"}) {
        HammerKernel k = shapedKernel(shape);
        RecordingMemory m1(60.0), m2(60.0);
        SimCpu blocked(ArchParams::forArch(Arch::RaptorLake), 5,
                       CpuModelKind::Blocked);
        SimCpu ref(ArchParams::forArch(Arch::RaptorLake), 5,
                   CpuModelKind::Reference);
        blocked.run(k, m1, 3000);
        ref.run(k, m2, 3000);
        PerfCounters b0 = blocked.run(k, m1, 0, 5e5);
        PerfCounters r0 = ref.run(k, m2, 0, 5e5);
        expectSameCounters(b0, r0, std::string("zero-budget run, ") + shape);
        PerfCounters b2 = blocked.run(k, m1, 3000, 1e6);
        PerfCounters r2 = ref.run(k, m2, 3000, 1e6);
        expectSameCounters(b2, r2, std::string("third run, ") + shape);
    }
}

TEST(CpuOracle, ZeroBudgetMatchesReferenceEdge)
{
    RecordingMemory m1(60.0), m2(60.0);
    expectCoresAgree(Arch::AlderLake, 3, shapedKernel("plain"), 0, m1, m2,
                     "zero budget");
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

TEST(CpuOracle, Sec53ShapedSessionIdentical)
{
    // The sec53_end_to_end workload shape (single-bank rho config on
    // S4): full HammerSession through both engines must agree on the
    // device totals, the flip log and the simulated clock.
    auto sessionRun = [](CpuModelKind kind) {
        SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S4"));
        spec.cpuModel = kind;
        MemorySystem sys(spec);
        HammerSession session(sys, 17);
        HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 60000);
        HammerPattern pattern = HammerPattern::doubleSided();
        HammerLocation loc =
            session.tryRandomLocation(pattern, cfg).loc.value();
        session.hammer(pattern, loc, cfg);
        return deviceDigest(sys);
    };
    expectSameDigest(sessionRun(CpuModelKind::Blocked),
                     sessionRun(CpuModelKind::Reference), "sec53 session");
}
