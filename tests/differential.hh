/**
 * @file
 * The differential harness shared by the test suites.
 *
 * Every fast engine (Flat row store, Blocked CPU replay, the parallel
 * campaign runner) must stay bit-exact with its Reference oracle. The
 * harness states that once:
 *
 *  - a *scenario* is a pinned run, a function of (SystemSpec, seed,
 *    jobs, budget) returning a Digest: device totals, the flip list,
 *    the simulated clock, scenario-specific results and the golden
 *    bytes of the event stream. The golden traces in
 *    tests/test_trace.cc call the same scenarios with their own
 *    categories and budgets;
 *  - the *matrix* is kEngines (row store x CPU engine) crossed with a
 *    jobs axis. expectMatrixMatches() runs a scenario on every cell
 *    and compares each cell's Digest against one reference cell, the
 *    default stack (Flat + Blocked) at jobs 1.
 *
 * Alongside sit the small fixtures the suites share: DIMM
 * profiles and TRR configs, the arch-token gtest parameter names the
 * CI backend legs filter on, the recording memories and counter
 * checks of the CPU oracle suites, and strict parsing of the suites'
 * environment knobs.
 */

#ifndef RHO_TESTS_DIFFERENTIAL_HH
#define RHO_TESTS_DIFFERENTIAL_HH

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/sim_cpu.hh"
#include "dram/dimm.hh"
#include "dram/dimm_profile.hh"
#include "exploit/cross_vm.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "memsys/timing_probe.hh"
#include "os/buddy_allocator.hh"
#include "os/pagemap.hh"
#include "trace/golden.hh"
#include "trace/metrics.hh"
#include "trace/tracer.hh"

namespace rho::test
{

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

inline TrrConfig
noTrr()
{
    TrrConfig t;
    t.enabled = false;
    return t;
}

/** An aggressive sampler that uniform hammering cannot stay under. */
inline TrrConfig
aggressiveTrr()
{
    TrrConfig trr;
    trr.sampleProb = 0.5;
    trr.matchThreshold = 8;
    trr.maxRefreshesPerTick = 4;
    return trr;
}

/**
 * `p` with a synthetic weak-cell field: `perRow` cells per row on
 * average, thresholds log-normal around `hcMedian` with log-spread
 * `sigma`, clamped below at `hcMin`.
 */
inline DimmProfile
weakCells(DimmProfile p, double perRow, double hcMedian, double sigma,
          std::uint32_t hcMin)
{
    p.weakCellsPerRow = perRow;
    p.hcLogMean = std::log(hcMedian);
    p.hcLogSigma = sigma;
    p.hcMin = hcMin;
    return p;
}

/** Dense weak-cell field on S4: a double-sided hammer flips fast. */
inline DimmProfile
denseProfile()
{
    return weakCells(DimmProfile::byId("S4"), 4.0, 2000.0, 0.1, 1500);
}

/** Denser still, so ECC codewords collect multi-bit errors. */
inline DimmProfile
multiBitProfile()
{
    DimmProfile p = weakCells(DimmProfile::byId("S4"), 40.0, 1500.0, 0.2, 800);
    p.id = "dense";
    return p;
}

/**
 * Double-sided hammer of `victim` in bank 0: `rounds` ACTs on each
 * neighbour, alternating, each issued when the previous one completes.
 * Returns the time after the last access.
 */
inline Ns
hammerVictim(Dimm &d, std::uint64_t victim, Ns now, int rounds = 3000)
{
    for (int i = 0; i < rounds; ++i) {
        now += d.access({0, victim - 1, 0}, now).latency;
        now += d.access({0, victim + 1, 0}, now).latency;
    }
    return now;
}

/**
 * The DIMM a backend runs on: the LPDDR4 sample board on the ARM core,
 * DDR4 module `ddr4` (a Table 2 id) on the desktop parts.
 */
inline const DimmProfile &
nativeDimm(Arch arch, const char *ddr4)
{
    return arch == Arch::CortexA72 ? DimmProfile::lpddr4Sample()
                                   : DimmProfile::byId(ddr4);
}

/**
 * gtest parameter name for an Arch: its enum identifier ("Zen3",
 * "CortexA72", ...), so CI legs filter by the backend's name suffix
 * rather than by parameter index.
 */
inline std::string
archParamName(const ::testing::TestParamInfo<Arch> &info)
{
    switch (info.param) {
#define RHO_ARCH_TOKEN_CASE(name)                                       \
    case Arch::name:                                                    \
        return #name;
        RHO_ARCH_LIST(RHO_ARCH_TOKEN_CASE)
#undef RHO_ARCH_TOKEN_CASE
    }
    return "Unknown";
}

/**
 * An unsigned decimal test knob from the environment, or `fallback`
 * when `name` is unset. A value that is empty, signed, non-numeric,
 * has trailing input or overflows fails the calling test (and the
 * fallback is used), instead of being coerced to some number.
 */
inline std::uint64_t
envKnob(const char *name, std::uint64_t fallback)
{
    const char *s = std::getenv(name);
    if (!s)
        return fallback;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0'
        || errno == ERANGE) {
        ADD_FAILURE() << name << "=\"" << s
                      << "\" is not an unsigned decimal integer";
        return fallback;
    }
    return v;
}

// ---------------------------------------------------------------------
// CPU oracle support
// ---------------------------------------------------------------------

/** Fixed-latency backend recording the DRAM command stream. */
class RecordingMemory : public MemoryBackend
{
  public:
    explicit RecordingMemory(Ns latencyNs) : latency(latencyNs) {}

    Ns
    dramAccess(PhysAddr pa, Ns now) override
    {
        accesses.push_back({pa, now});
        return latency;
    }

    std::vector<std::pair<PhysAddr, Ns>> accesses;

  private:
    Ns latency;
};

/** Assert every PerfCounters field matches, including the fp clock. */
inline void
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

/**
 * Replay `k` on a Blocked and a Reference core built alike (arch,
 * seed, budget, start time) against `blocked_mem` / `ref_mem`, and
 * require identical counters and an identical DRAM command stream:
 * same addresses at bit-exact issue times. Returns the reference
 * counters.
 */
inline PerfCounters
expectCoresAgree(Arch arch, std::uint64_t seed, const HammerKernel &k,
                 std::uint64_t budget, RecordingMemory &blocked_mem,
                 RecordingMemory &ref_mem, const std::string &what,
                 Ns start = 0.0)
{
    SimCpu blocked(ArchParams::forArch(arch), seed, CpuModelKind::Blocked);
    SimCpu ref(ArchParams::forArch(arch), seed, CpuModelKind::Reference);
    PerfCounters bc = blocked.run(k, blocked_mem, budget, start);
    PerfCounters rc = ref.run(k, ref_mem, budget, start);
    expectSameCounters(bc, rc, what);
    EXPECT_EQ(blocked_mem.accesses, ref_mem.accesses) << what;
    return rc;
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/** Everything a scenario run is compared on. */
struct Digest
{
    std::uint64_t acts = 0;         //!< dram.acts
    std::uint64_t trrRefreshes = 0; //!< targeted TRR refreshes
    std::uint64_t rfmCommands = 0;
    std::uint64_t pracAlerts = 0;
    std::uint64_t flips = 0;
    Ns simTimeNs = 0.0;
    std::vector<FlipRecord> flipList;
    /** Scenario-specific results (per-location flips, VM outcomes). */
    std::vector<std::uint64_t> outcome;
    std::string trace; //!< goldenSerialize() of the event stream
};

/** The event stream a Digest's trace bytes encode. */
inline std::vector<TraceEvent>
traceEvents(const Digest &d)
{
    std::vector<TraceEvent> events;
    EXPECT_TRUE(goldenParse(d.trace, events));
    return events;
}

/** A device's totals and flip log (no clock: a Dimm keeps none). */
inline Digest
dimmDigest(const Dimm &dimm)
{
    Digest d;
    d.acts = dimm.totalActs();
    d.trrRefreshes = dimm.trrRefreshCount();
    d.rfmCommands = dimm.rfmCommandCount();
    d.pracAlerts = dimm.pracAlertCount();
    d.flips = dimm.flipLog().size();
    d.flipList = dimm.flipLog();
    return d;
}

/** The device totals, flip log and clock of one machine. */
inline Digest
deviceDigest(const MemorySystem &sys)
{
    Digest d = dimmDigest(sys.dimm());
    d.simTimeNs = sys.now();
    return d;
}

/**
 * Run `script(d)` with `categories` traced on `d` and return the
 * device's Digest, stream included. A dropped event fails the test.
 */
template <typename Script>
Digest
traceDimm(Dimm &d, std::uint32_t categories, Script script)
{
    Tracer tracer(TraceConfig{true, categories, std::size_t{1} << 22});
    d.setTracer(&tracer);
    script(d);
    d.setTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    Digest g = dimmDigest(d);
    g.trace = goldenSerialize(tracer.events());
    return g;
}

/** `arch` on `dimm`, tracing `categories`. */
inline SystemSpec
tracedSpec(Arch arch, const DimmProfile &dimm, std::uint32_t categories,
           const TrrConfig &trr = TrrConfig{})
{
    SystemSpec spec(arch, dimm, trr);
    spec.trace.enabled = true;
    spec.trace.categories = categories;
    return spec;
}

/**
 * Raptor Lake on the DDR5 sample with both DDR5 mitigations armed:
 * RFM at the Strict level and PRAC at threshold 64 with 3 ABO slots,
 * low enough that a short hammer raises several ALERTs per bank.
 */
inline SystemSpec
ddr5MitigationSpec(std::uint32_t categories)
{
    SystemSpec spec = tracedSpec(Arch::RaptorLake,
                                 DimmProfile::ddr5Sample(), categories);
    spec.rfm = RfmConfig::forLevel(RfmLevel::Strict);
    spec.prac.enabled = true;
    spec.prac.threshold = 64;
    spec.prac.aboSlots = 3;
    return spec;
}

/**
 * Quickstart pipeline: the sweep campaign examples/quickstart.cc runs,
 * scaled down to two locations of one seeded non-uniform pattern.
 */
inline Digest
quickstartScenario(const SystemSpec &spec, std::uint64_t seed,
                   unsigned jobs, std::uint64_t budget)
{
    Rng rng(seed);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    SweepParams params;
    params.numLocations = 2;
    params.jobs = jobs;
    MetricsRegistry m;
    std::vector<TraceEvent> events;
    SweepResult r =
        sweepCampaign(spec, pattern, rhoConfig(spec.arch, true, budget),
                      params, seed, nullptr, &m, &events);
    Digest d;
    d.acts = m.value("dram.acts");
    d.trrRefreshes = m.value("dram.refreshes.trr");
    d.rfmCommands = m.value("dram.refreshes.rfm");
    d.pracAlerts = m.value("dram.alerts.prac");
    d.flips = r.totalFlips;
    d.simTimeNs = r.simTimeNs;
    d.flipList = r.flipList;
    d.outcome = r.flipsPerLocation;
    d.trace = goldenSerialize(events);
    return d;
}

/**
 * TRR evasion: one machine hammered double-sided (the sampler catches
 * it), then with a seeded non-uniform pattern (it evades the sampler).
 * A single session, so `jobs` has nothing to fan out. The stream
 * records spec.trace.categories; a dropped event fails the test.
 */
inline Digest
trrEvasionScenario(const SystemSpec &spec, std::uint64_t seed,
                   unsigned /*jobs*/, std::uint64_t budget)
{
    MemorySystem sys(spec);
    Tracer tracer(TraceConfig{true, spec.trace.categories,
                              std::size_t{1} << 22});
    sys.attachTracer(&tracer);

    HammerSession session(sys, seed);
    HammerConfig cfg = rhoConfig(spec.arch, true, budget);
    Rng rng(seed);
    HammerPattern uniform = HammerPattern::doubleSided();
    session.hammer(uniform,
                   session.tryRandomLocation(uniform, cfg).loc.value(), cfg);
    HammerPattern evading = HammerPattern::randomNonUniform(rng);
    session.hammer(evading,
                   session.tryRandomLocation(evading, cfg).loc.value(), cfg);

    sys.attachTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    Digest d = deviceDigest(sys);
    d.trace = goldenSerialize(tracer.events());
    return d;
}

/**
 * Cross-VM campaign: two trials, each a fresh machine with two
 * interleaved 4 MiB tenants whose attacker runs `hammerRuns` hammers.
 * The campaign reports no device totals or flip list; its Digest holds
 * the flip count, the clock and the per-trial outcome.
 */
inline Digest
crossVmScenario(const SystemSpec &spec, std::uint64_t seed, unsigned jobs,
                std::uint64_t budget, unsigned hammerRuns)
{
    CrossVmCampaignParams params;
    params.attack.hammerCfg = rhoConfig(spec.arch, false, budget);
    params.attack.vmCfg = VmConfig{VmPlacement::Interleaved, false};
    params.attack.bytesPerTenant = 4ull << 20;
    params.attack.hammerRuns = hammerRuns;
    params.trials = 2;
    params.jobs = jobs;
    std::vector<TraceEvent> events;
    CrossVmCampaignResult r =
        crossVmCampaign(spec, params, seed, nullptr, &events);
    Digest d;
    d.flips = r.totalFlips;
    d.simTimeNs = r.simTimeNs;
    d.outcome = {r.trials, r.successes, r.crossVmFlipsRaw,
                 r.crossVmFlipsVisible, r.takeovers};
    for (FailureCode c : r.codes)
        d.outcome.push_back(static_cast<std::uint64_t>(c));
    d.trace = goldenSerialize(events);
    return d;
}

/**
 * Broad-row SBDR probing, the device path of reverse engineering:
 * `budget` TimingProbe pair trains of 50 rounds over pairs drawn from a
 * PhysPool. A third of the pairs are random, a third are moved into one
 * bank, and a third sit in one bank a power-of-two row stride apart
 * (the strides that alias in a cache indexed by the low row bits). The
 * two rows beside each train's first line are filled before it and
 * diffed after it, so weak cells materialize, flip and (with ECC on)
 * decode in rows created moments earlier. Halfway, Dimm::reset() runs
 * and the second half re-probes the first half's pairs, so state that
 * outlived the reset would show. One machine, so `jobs` has nothing to
 * fan out. The outcome holds each train's latency bits and every
 * diffed flip.
 */
inline Digest
broadRowScenario(const SystemSpec &spec, std::uint64_t seed,
                 unsigned /*jobs*/, std::uint64_t budget)
{
    MemorySystem sys(spec);
    Tracer tracer(TraceConfig{true, spec.trace.categories,
                              std::size_t{1} << 22});
    sys.attachTracer(&tracer);
    BuddyAllocator buddy(sys.mapping().memBytes(), 0.02, seed);
    PhysPool pool(buddy, 0.70);
    TimingProbe probe(sys, seed);
    const AddressMapping &m = sys.mapping();
    Dimm &dimm = sys.dimm();
    const auto row_bits =
        static_cast<std::uint64_t>(std::bit_width(m.numRows() - 1));
    Rng rng(seed);
    std::vector<std::uint64_t> outcome;
    for (std::uint64_t i = 0; i < budget; ++i) {
        if (i == budget / 2) {
            dimm.reset();
            rng = Rng(seed); // re-probe the first half's pairs
        }
        PhysAddr a = pool.randomAddr(rng);
        PhysAddr b = pool.randomAddr(rng);
        DramAddr da = m.decode(a);
        if (i % 3 != 2) {
            DramAddr db = m.decode(b);
            db.bank = da.bank;
            if (i % 3 == 0)
                db.row = da.row ^ std::uint64_t{1}
                                      << rng.uniformInt(0, row_bits - 1);
            b = m.encode(db);
        }
        std::vector<std::uint64_t> victims;
        for (std::uint64_t v : {da.row - 1, da.row + 1}) {
            if (v < m.numRows())
                victims.push_back(v);
        }
        auto pattern = static_cast<std::uint8_t>(0x55 ^ i);
        for (std::uint64_t v : victims)
            dimm.fillRow(da.bank, v, pattern, sys.now());
        outcome.push_back(std::bit_cast<std::uint64_t>(
            probe.measurePair(a, b, 50)));
        for (std::uint64_t v : victims) {
            for (const FlipRecord &f :
                 dimm.diffRow(da.bank, v, pattern, sys.now()))
                outcome.push_back(f.row << 16 | f.bitOffset);
        }
    }
    sys.attachTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    Digest d = deviceDigest(sys);
    d.outcome = std::move(outcome);
    d.trace = goldenSerialize(tracer.events());
    return d;
}

/** Require `got` to match `ref` field for field, trace byte for byte. */
inline void
expectSameDigest(const Digest &got, const Digest &ref,
                 const std::string &what)
{
    EXPECT_TRUE(got.trace == ref.trace)
        << what << ": trace diverged (" << got.trace.size() << " vs "
        << ref.trace.size() << " bytes)";
    EXPECT_TRUE(got.flipList == ref.flipList)
        << what << ": flip list diverged (" << got.flipList.size()
        << " vs " << ref.flipList.size() << " flips)";
    EXPECT_EQ(got.acts, ref.acts) << what;
    EXPECT_EQ(got.trrRefreshes, ref.trrRefreshes) << what;
    EXPECT_EQ(got.rfmCommands, ref.rfmCommands) << what;
    EXPECT_EQ(got.pracAlerts, ref.pracAlerts) << what;
    EXPECT_EQ(got.flips, ref.flips) << what;
    EXPECT_EQ(got.simTimeNs, ref.simTimeNs) << what;
    EXPECT_EQ(got.outcome, ref.outcome) << what;
}

// ---------------------------------------------------------------------
// The engine matrix
// ---------------------------------------------------------------------

/** One row-store x CPU-engine pair. */
struct Engines
{
    bool referenceRowStore;
    CpuModelKind cpu;
    const char *name;
};

/** kEngines[0], the default fast stack, is the reference cell's. */
inline constexpr Engines kEngines[] = {
    {false, CpuModelKind::Blocked, "flat+blocked"},
    {false, CpuModelKind::Reference, "flat+reference"},
    {true, CpuModelKind::Blocked, "reference+blocked"},
    {true, CpuModelKind::Reference, "reference+reference"},
};

/**
 * Run `scenario`, a callable (const SystemSpec &, unsigned jobs) ->
 * Digest, on `base` for every kEngines x `jobsAxis` cell, and compare
 * each against the reference cell: kEngines[0] at jobs 1, run once.
 * Returns the reference Digest for the caller's own checks.
 */
template <typename Scenario>
Digest
expectMatrixMatches(const SystemSpec &base,
                    std::initializer_list<unsigned> jobsAxis,
                    Scenario scenario)
{
    auto onEngines = [&base](const Engines &e) {
        SystemSpec spec = base;
        spec.referenceRowStore = e.referenceRowStore;
        spec.cpuModel = e.cpu;
        return spec;
    };
    Digest ref = scenario(onEngines(kEngines[0]), 1);
    for (unsigned jobs : jobsAxis) {
        for (const Engines &e : kEngines) {
            if (jobs == 1 && &e == &kEngines[0])
                continue;
            expectSameDigest(scenario(onEngines(e), jobs), ref,
                             std::string(e.name) + " jobs "
                                 + std::to_string(jobs));
        }
    }
    return ref;
}

} // namespace rho::test

#endif // RHO_TESTS_DIFFERENTIAL_HH
