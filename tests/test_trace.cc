/**
 * @file
 * Trace/metrics subsystem tests: event plumbing, the golden-trace
 * regression harness, cross-run/cross-jobs byte-identity, and causal
 * invariants replayed from recorded streams.
 *
 * Golden traces
 * -------------
 * The committed goldens live in tests/goldens/ (the build bakes the
 * path in via RHO_GOLDEN_DIR). A golden test runs a pinned scenario,
 * serializes the event stream and byte-compares it against the file —
 * any change to simulation behaviour that alters the stream fails the
 * comparison.
 *
 * When a behaviour change is *intended*, regenerate the goldens and
 * commit them together with the change:
 *
 *     ./test_trace --regen-goldens
 *     # or: RHO_REGEN_GOLDENS=1 ./test_trace
 *
 * Regeneration rewrites the golden files in the source tree and
 * reports each test as skipped; rerun without the flag to verify the
 * fresh goldens pass.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hh"
#include "dram/dimm.hh"
#include "dram/timing.hh"
#include "exploit/cross_vm.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "os/vm.hh"
#include "trace/chrome_trace.hh"
#include "trace/golden.hh"
#include "trace/metrics.hh"
#include "trace/metrics_adapters.hh"
#include "trace/tracer.hh"

using namespace rho;
using namespace rho::test;

namespace
{

bool regenGoldens = false;

#ifndef RHO_GOLDEN_DIR
#define RHO_GOLDEN_DIR "tests/goldens"
#endif

std::string
goldenPath(const std::string &name)
{
    return std::string(RHO_GOLDEN_DIR) + "/" + name;
}

// ---------------------------------------------------------------------
// Pinned scenarios. Everything feeding these is explicit (arch, DIMM,
// seeds, budgets, categories) so the streams are pure functions of the
// code under test.
// ---------------------------------------------------------------------

/**
 * Scaled-down quickstart pipeline: the harness's quickstart scenario
 * on the Raptor Lake + S2 cell, small enough that the golden stays a
 * few thousand events.
 */
std::vector<TraceEvent>
quickstartTrace(unsigned jobs)
{
    return traceEvents(quickstartScenario(
        tracedSpec(Arch::RaptorLake, DimmProfile::byId("S2"),
                   CatDram | CatTrr | CatFlip | CatPhase),
        42, jobs, 2000));
}

/**
 * TRR-evasion scenario on Raptor Lake + S2: the stream shows the
 * mitigation working (double-sided is caught) and being worked around
 * (the non-uniform pattern evades it).
 */
std::vector<TraceEvent>
trrEvasionTrace(std::uint64_t seed, std::uint32_t categories,
                std::uint64_t budget)
{
    return traceEvents(trrEvasionScenario(
        tracedSpec(Arch::RaptorLake, DimmProfile::byId("S2"), categories,
                   aggressiveTrr()),
        seed, 1, budget));
}

/**
 * DDR5 mitigation scenario: the sample DDR5 DIMM with default-level
 * RFM and PRAC/ABO both armed, hammered with a non-uniform pattern.
 * The stream exercises every mitigation event kind — RfmRefresh,
 * PracAlert, AboRefresh and MitigationStall.
 */
std::vector<TraceEvent>
ddr5MitigationTrace(std::uint64_t seed, std::uint32_t categories,
                    std::uint64_t budget)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::ddr5Sample(), TrrConfig{},
                    RfmConfig::forLevel(RfmLevel::Default));
    spec.prac.enabled = true;
    spec.prac.threshold = 256;
    MemorySystem sys(spec);
    Tracer tracer(TraceConfig{true, categories, std::size_t{1} << 22});
    sys.attachTracer(&tracer);

    HammerSession session(sys, seed);
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, budget);
    Rng rng(seed);
    HammerPattern evading = HammerPattern::randomNonUniform(rng);
    session.hammer(evading,
                   session.tryRandomLocation(evading, cfg).loc.value(), cfg);

    sys.attachTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    return tracer.events();
}

/**
 * Inter-VM scenario: the harness's cross-VM campaign (two interleaved
 * tenants, on-die ECC on) at a longer budget, whose stream covers the
 * VM-boundary event kinds — VmMapped for every stage-2 install,
 * CrossVmFlip for every flip that lands in another tenant's partition,
 * EccCorrected on the controller-visible scrub.
 */
std::vector<TraceEvent>
interVmTrace(unsigned jobs)
{
    SystemSpec spec = tracedSpec(Arch::RaptorLake, DimmProfile::byId("S4"),
                                 CatVm | CatFlip | CatPhase);
    spec.ecc.enabled = true;
    return traceEvents(crossVmScenario(spec, 77, jobs, 120000, 10));
}

/**
 * ECC-miscorrection scenario: a synthetic dense weak-cell field makes
 * multi-bit codewords common, so the read-path decoder exercises the
 * EccMiscorrect path alongside routine corrections.
 */
std::vector<TraceEvent>
eccMiscorrectTrace()
{
    EccConfig ecc;
    ecc.enabled = true;
    const DimmProfile prof = multiBitProfile(); // Dimm keeps a reference
    Dimm d(prof, DramTiming::ddr4(2666), noTrr(), RfmConfig{}, PracConfig{},
           ecc);
    return traceEvents(traceDimm(d, CatFlip, [](Dimm &d) {
        for (std::uint64_t r = 4998; r <= 5006; ++r)
            d.fillRow(0, r, 0xA5, 0.0);
        Ns now = 1.0;
        for (int i = 0; i < 3000; ++i) {
            now += d.access({0, 5000, 0}, now).latency;
            now += d.access({0, 5002, 0}, now).latency;
            now += d.access({0, 5004, 0}, now).latency;
        }
        for (std::uint64_t r : {4998, 4999, 5001, 5003, 5005, 5006})
            d.diffRow(0, r, 0xA5, 1e9);
    }));
}

/**
 * Byte-compare a stream against its committed golden, or rewrite the
 * golden in regen mode.
 */
void
checkGolden(const std::string &name,
            const std::vector<TraceEvent> &events)
{
    std::string path = goldenPath(name);
    if (regenGoldens) {
        ASSERT_TRUE(goldenWrite(path, events)) << path;
        GTEST_SKIP() << "regenerated " << path << " (" << events.size()
                     << " events, digest " << std::hex
                     << goldenDigest(events) << ")";
    }
    std::string bytes;
    ASSERT_TRUE(goldenReadFile(path, bytes))
        << "missing golden " << path
        << " — generate it with: ./test_trace --regen-goldens";
    std::vector<TraceEvent> want;
    ASSERT_TRUE(goldenParse(bytes, want)) << "corrupt golden " << path;
    ASSERT_EQ(goldenSerialize(events), bytes)
        << "trace diverged from golden " << path << ": got "
        << events.size() << " events (digest " << std::hex
        << goldenDigest(events) << "), golden has " << std::dec
        << want.size() << " (digest " << std::hex << goldenDigest(want)
        << "). If the behaviour change is intended, regenerate with "
           "./test_trace --regen-goldens and commit the new golden.";
}

} // namespace

// ---------------------------------------------------------------------
// Event / tracer plumbing
// ---------------------------------------------------------------------

TEST(TraceEvent, IsCompactPodWithStableNames)
{
    EXPECT_EQ(sizeof(TraceEvent), 32u);
    double x = -1234.5678e9;
    EXPECT_EQ(traceReal(traceBits(x)), x);
    for (unsigned k = 0; k < numEventKinds; ++k) {
        EventKind kind = static_cast<EventKind>(k);
        EXPECT_STRNE(eventKindName(kind), "");
        TraceCategory cat = categoryOf(kind);
        EXPECT_NE(cat & CatAll, 0u);
        EXPECT_STRNE(categoryName(cat), "");
    }
    EXPECT_EQ(categoryOf(EventKind::DramAct), CatDram);
    EXPECT_EQ(categoryOf(EventKind::TrrSample), CatTrr);
    EXPECT_EQ(categoryOf(EventKind::BitFlip), CatFlip);
    // The default mask excludes the two hot per-op categories.
    EXPECT_EQ(CatDefault & CatCpu, 0u);
    EXPECT_EQ(CatDefault & CatDisturb, 0u);
    EXPECT_NE(CatDefault & CatDram, 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.wants(CatDram));
    RHO_TRACE(&off, 1.0, EventKind::DramAct, 0, 0, 0, 0);
    EXPECT_EQ(off.size(), 0u);
    // Null tracer pointers are fine too (the common un-attached case).
    Tracer *null_tr = nullptr;
    RHO_TRACE(null_tr, 1.0, EventKind::DramAct, 0, 0, 0, 0);
}

TEST(Tracer, CategoryMaskFiltersAtEmission)
{
    Tracer tr(TraceConfig{true, CatTrr | CatPhase, 64});
    RHO_TRACE(&tr, 1.0, EventKind::DramAct, 0, 1, 2, 0);     // filtered
    RHO_TRACE(&tr, 2.0, EventKind::TrrSample, 0, 1, 2, 3);   // kept
    RHO_TRACE(&tr, 3.0, EventKind::Disturb, 0, 1, 2, 0);     // filtered
    RHO_TRACE(&tr, 4.0, EventKind::PhaseBegin, 0, 0, 0, 0);  // kept
    auto ev = tr.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].kind, EventKind::TrrSample);
    EXPECT_EQ(ev[0].c, 3u);
    EXPECT_EQ(ev[1].kind, EventKind::PhaseBegin);
}

TEST(Tracer, RingDropsOldestAndCounts)
{
    Tracer tr(TraceConfig{true, CatAll, 4});
    for (std::uint64_t i = 0; i < 10; ++i)
        tr.record(static_cast<Ns>(i), EventKind::DramAct, 0, 0, i, 0);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    auto ev = tr.events();
    ASSERT_EQ(ev.size(), 4u);
    // Oldest surviving first: rows 6,7,8,9.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(ev[i].b, 6 + i);
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracer, AppendRestampedMergesInCallOrder)
{
    Tracer a(TraceConfig{true, CatAll, 16});
    Tracer b(TraceConfig{true, CatAll, 16});
    a.record(1.0, EventKind::DramAct, 0, 0, 11, 0);
    b.record(2.0, EventKind::DramAct, 0, 0, 22, 0);
    std::vector<TraceEvent> merged;
    appendRestamped(merged, a, 0);
    appendRestamped(merged, b, 1);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0].tid, 0u);
    EXPECT_EQ(merged[0].b, 11u);
    EXPECT_EQ(merged[1].tid, 1u);
    EXPECT_EQ(merged[1].b, 22u);
}

// ---------------------------------------------------------------------
// Golden binary format
// ---------------------------------------------------------------------

TEST(GoldenFormat, RoundTripsBitExactly)
{
    std::vector<TraceEvent> ev;
    TraceEvent e;
    e.when = 1.5e9;
    e.kind = EventKind::BitFlip;
    e.flags = 1;
    e.tid = 7;
    e.a = 3;
    e.b = 12345;
    e.c = traceBits(2.25);
    ev.push_back(e);
    e.kind = EventKind::PhaseEnd;
    ev.push_back(e);

    std::string img = goldenSerialize(ev);
    EXPECT_EQ(img.size(), 24u + 32u * ev.size());
    std::vector<TraceEvent> back;
    ASSERT_TRUE(goldenParse(img, back));
    ASSERT_EQ(back.size(), ev.size());
    EXPECT_EQ(std::memcmp(back.data(), ev.data(),
                          ev.size() * sizeof(TraceEvent)),
              0);
    EXPECT_EQ(goldenDigest(back), goldenDigest(ev));
}

TEST(GoldenFormat, RejectsCorruptImages)
{
    std::vector<TraceEvent> ev(3);
    std::string img = goldenSerialize(ev);
    std::vector<TraceEvent> out;

    std::string bad_magic = img;
    bad_magic[0] = 'X';
    EXPECT_FALSE(goldenParse(bad_magic, out));
    EXPECT_TRUE(out.empty());

    std::string bad_version = img;
    bad_version[8] = 99;
    EXPECT_FALSE(goldenParse(bad_version, out));

    std::string truncated = img.substr(0, img.size() - 1);
    EXPECT_FALSE(goldenParse(truncated, out));

    std::string padded = img + "x";
    EXPECT_FALSE(goldenParse(padded, out));

    EXPECT_FALSE(goldenParse("short", out));
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

TEST(ChromeTrace, EmitsPerfettoLoadableJson)
{
    std::vector<TraceEvent> ev;
    TraceEvent begin;
    begin.when = 1000.0;
    begin.kind = EventKind::PhaseBegin;
    begin.a = static_cast<std::uint32_t>(SimPhase::Hammer);
    ev.push_back(begin);
    TraceEvent flip;
    flip.when = 1500.0;
    flip.kind = EventKind::BitFlip;
    flip.flags = 1;
    flip.a = 2;
    flip.b = 77;
    flip.c = 129;
    ev.push_back(flip);
    TraceEvent end = begin;
    end.kind = EventKind::PhaseEnd;
    end.when = 2000.0;
    end.c = 1;
    ev.push_back(end);

    std::string json = chromeTraceJson(ev);
    ASSERT_GE(json.size(), 4u);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    // Phase pairs become duration events, others instants.
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"hammer\""), std::string::npos);
    EXPECT_NE(json.find("\"bit_flip\""), std::string::npos);
    // Timestamps are microseconds with fixed formatting.
    EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
    // The export itself is deterministic.
    EXPECT_EQ(json, chromeTraceJson(ev));
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(Metrics, AddMergeAndSubtreeDump)
{
    MetricsRegistry m;
    m.add("dram.acts", 10);
    m.add("dram.acts", 5);
    m.add("dram.refreshes.trr", 2);
    m.add("dramatic.acts", 99); // must NOT match the "dram" subtree
    m.set("parallel.jobs", 4);
    EXPECT_EQ(m.value("dram.acts"), 15u);
    EXPECT_EQ(m.value("unknown"), 0u);
    EXPECT_FALSE(m.has("unknown"));

    MetricsRegistry other;
    other.add("dram.acts", 1);
    other.add("hammer.flips", 3);
    m.merge(other);
    EXPECT_EQ(m.value("dram.acts"), 16u);
    EXPECT_EQ(m.value("hammer.flips"), 3u);

    std::string sub = m.dump("dram");
    EXPECT_NE(sub.find("dram.acts = 16"), std::string::npos);
    EXPECT_NE(sub.find("dram.refreshes.trr = 2"), std::string::npos);
    EXPECT_EQ(sub.find("dramatic.acts"), std::string::npos);
    EXPECT_EQ(sub.find("hammer.flips"), std::string::npos);
    // Full dump is name-ordered and therefore deterministic.
    EXPECT_EQ(m.dump(), m.dump());
}

// ---------------------------------------------------------------------
// Golden-trace regression
// ---------------------------------------------------------------------

TEST(GoldenTrace, QuickstartPipeline)
{
    checkGolden("quickstart.trace", quickstartTrace(2));
}

TEST(GoldenTrace, TrrEvasionScenario)
{
    checkGolden("trr_evasion.trace",
                trrEvasionTrace(9, CatTrr | CatFlip | CatPhase, 3000));
}

TEST(GoldenTrace, Ddr5MitigationScenario)
{
    auto events =
        ddr5MitigationTrace(9, CatTrr | CatFlip | CatPhase, 30000);
    // The scenario must pin all four mitigation event kinds, or the
    // golden would not guard them.
    std::set<EventKind> kinds;
    for (const TraceEvent &e : events)
        kinds.insert(e.kind);
    EXPECT_TRUE(kinds.count(EventKind::RfmRefresh));
    EXPECT_TRUE(kinds.count(EventKind::PracAlert));
    EXPECT_TRUE(kinds.count(EventKind::AboRefresh));
    EXPECT_TRUE(kinds.count(EventKind::MitigationStall));
    checkGolden("ddr5_mitigations.trace", events);
}

TEST(GoldenTrace, InterVmScenario)
{
    auto events = interVmTrace(1);
    // The scenario must pin the VM-boundary kinds, or the golden would
    // not guard the multi-tenant subsystem.
    std::set<EventKind> kinds;
    for (const TraceEvent &e : events)
        kinds.insert(e.kind);
    EXPECT_TRUE(kinds.count(EventKind::VmMapped));
    EXPECT_TRUE(kinds.count(EventKind::BitFlip));
    EXPECT_TRUE(kinds.count(EventKind::CrossVmFlip));
    EXPECT_TRUE(kinds.count(EventKind::EccCorrected));
    checkGolden("inter_vm.trace", events);
}

TEST(GoldenTrace, EccMiscorrectScenario)
{
    auto events = eccMiscorrectTrace();
    std::set<EventKind> kinds;
    for (const TraceEvent &e : events)
        kinds.insert(e.kind);
    EXPECT_TRUE(kinds.count(EventKind::EccCorrected));
    EXPECT_TRUE(kinds.count(EventKind::EccMiscorrect));
    checkGolden("ecc_miscorrect.trace", events);
}

// ---------------------------------------------------------------------
// Determinism: byte-identical streams across runs and --jobs
// ---------------------------------------------------------------------

TEST(TraceDeterminism, ByteIdenticalAcrossRuns)
{
    std::string a = goldenSerialize(quickstartTrace(2));
    std::string b = goldenSerialize(quickstartTrace(2));
    EXPECT_EQ(a, b);
}

TEST(TraceDeterminism, FuzzCampaignTraceIndependentOfJobs)
{
    SystemSpec spec(Arch::CometLake, DimmProfile::byId("S4"));
    spec.trace.enabled = true;
    spec.trace.categories = CatTrr | CatFlip | CatPhase;
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, 2000);
    FuzzParams params;
    params.numPatterns = 4;
    params.locationsPerPattern = 1;

    params.jobs = 1;
    std::vector<TraceEvent> ref;
    fuzzCampaign(spec, cfg, params, 33, nullptr, nullptr, &ref);
    EXPECT_FALSE(ref.empty());
    for (unsigned jobs : {2u, 8u}) {
        params.jobs = jobs;
        std::vector<TraceEvent> got;
        fuzzCampaign(spec, cfg, params, 33, nullptr, nullptr, &got);
        EXPECT_EQ(goldenSerialize(got), goldenSerialize(ref))
            << "jobs " << jobs;
    }
}

TEST(TraceDeterminism, InterVmTraceIndependentOfJobs)
{
    std::string ref = goldenSerialize(interVmTrace(1));
    for (unsigned jobs : {2u, 8u}) {
        EXPECT_EQ(goldenSerialize(interVmTrace(jobs)), ref)
            << "jobs " << jobs;
    }
}

// ---------------------------------------------------------------------
// Causal invariants, replayed from recorded streams
// ---------------------------------------------------------------------

namespace
{

using RowKey = std::pair<std::uint32_t, std::uint64_t>;

/**
 * Replay one stream's disturb machinery: the accumulated disturbance
 * reconstructed from Disturb/DisturbReset/FlipSuppressed events must
 * match the recorded reset amounts exactly, and every BitFlip must be
 * preceded by enough accumulated disturbance to cross the flipped
 * cell's threshold.
 *
 * `flips_checked` counts BitFlip events verified (out-param so the
 * gtest ASSERT macros can be used — they require a void function).
 */
void
replayDisturbInvariant(const std::vector<TraceEvent> &events,
                       const DimmProfile &prof, unsigned &flips_checked)
{
    std::map<RowKey, double> acc;
    for (const TraceEvent &e : events) {
        RowKey key{e.a, e.b};
        switch (e.kind) {
          case EventKind::Disturb:
            acc[key] += traceReal(e.c);
            break;
          case EventKind::DisturbReset:
          case EventKind::FlipSuppressed:
            // The recorded dropped charge is exactly what the replay
            // accumulated: every mutation of the device's counter is
            // in the stream.
            EXPECT_DOUBLE_EQ(traceReal(e.c), acc[key])
                << eventKindName(e.kind) << " bank " << e.a << " row "
                << e.b << " at " << e.when;
            acc[key] = 0.0;
            break;
          case EventKind::BitFlip: {
            auto cells = prof.weakCellsFor(e.a, e.b);
            auto cell = std::find_if(
                cells.begin(), cells.end(), [&](const WeakCell &c) {
                    return c.bitOffset == e.c;
                });
            ASSERT_NE(cell, cells.end())
                << "flip at bank " << e.a << " row " << e.b
                << " bit " << e.c << " hit no weak cell";
            EXPECT_GE(acc[key], cell->threshold)
                << "flip before threshold at bank " << e.a << " row "
                << e.b;
            // Direction matches the cell type (true cell discharges
            // to 0, anti cell charges to 1).
            EXPECT_EQ(e.flags != 0, !cell->trueCell);
            ++flips_checked;
            break;
          }
          default:
            break;
        }
    }
}

/**
 * Replay the TRR sampler: a targeted refresh of (bank, row) requires
 * that, since the last targeted refresh of that row, some sample
 * raised its Misra-Gries counter to at least the match threshold.
 * `refreshes_checked` counts the targeted refreshes verified.
 */
void
replayTrrInvariant(const std::vector<TraceEvent> &events,
                   std::uint32_t match_threshold,
                   unsigned &refreshes_checked)
{
    std::map<RowKey, std::uint32_t> max_count;
    for (const TraceEvent &e : events) {
        RowKey key{e.a, e.b};
        if (e.kind == EventKind::TrrSample) {
            max_count[key] = std::max(
                max_count[key], static_cast<std::uint32_t>(e.c));
        } else if (e.kind == EventKind::TrrTargetedRefresh) {
            EXPECT_GE(max_count[key], match_threshold)
                << "targeted refresh without a qualifying sample, bank "
                << e.a << " row " << e.b << " at " << e.when;
            max_count[key] = 0; // counters restart after the refresh
            ++refreshes_checked;
        }
    }
}

} // namespace

TEST(CausalInvariants, DisturbAccumulatesBeforeEveryFlip)
{
    const DimmProfile &prof = DimmProfile::byId("S2");
    unsigned total_flips = 0;
    for (std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
        auto events = trrEvasionTrace(
            seed, CatDram | CatDisturb | CatFlip | CatTrr | CatPhase,
            150000);
        replayDisturbInvariant(events, prof, total_flips);
    }
    // The scenario must actually exercise the flip path.
    EXPECT_GT(total_flips, 0u);
}

TEST(CausalInvariants, SampleReachesThresholdBeforeTargetedRefresh)
{
    unsigned total_refreshes = 0;
    for (std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
        auto events =
            trrEvasionTrace(seed, CatTrr | CatPhase, 20000);
        replayTrrInvariant(events, aggressiveTrr().matchThreshold,
                           total_refreshes);
    }
    // The uniform half of the scenario must actually trip the sampler.
    EXPECT_GT(total_refreshes, 0u);
}

TEST(CausalInvariants, PracAlertsCrossThresholdAndAboRidesAlert)
{
    // Matches the threshold pinned inside ddr5MitigationTrace().
    const std::uint64_t threshold = 256;
    auto events = ddr5MitigationTrace(7, CatTrr | CatPhase, 60000);
    unsigned alerts = 0, abo_refreshes = 0;
    Ns last_alert_at = -1.0;
    for (const TraceEvent &e : events) {
        if (e.kind == EventKind::PracAlert) {
            // The recorded peak is the counter value that pulled
            // ALERT_n, so it can never be below the threshold.
            EXPECT_GE(e.c, threshold)
                << "alert below threshold, bank " << e.a << " row "
                << e.b << " at " << e.when;
            last_alert_at = e.when;
            ++alerts;
        } else if (e.kind == EventKind::AboRefresh) {
            // Back-off services are only issued while an alert is
            // being handled, never on their own.
            EXPECT_EQ(e.when, last_alert_at)
                << "orphan ABO refresh at " << e.when;
            ++abo_refreshes;
        }
    }
    EXPECT_GT(alerts, 0u);
    // Every alert services at least the crossing row.
    EXPECT_GE(abo_refreshes, alerts);
}

namespace
{

/**
 * Replay the on-die-ECC read path: a correction can only ever undo a
 * raw flip that the stream has already committed — every EccCorrected
 * (bank, row, bit) must be preceded (per task) by a BitFlip of exactly
 * that cell; every EccMiscorrect requires a multi-bit error, i.e. at
 * least two prior raw flips in the toggled bit's codeword; and every
 * CrossVmFlip restates a prior BitFlip whose owner differs from the
 * hammering tenant. `checked` counts the ECC/VM events verified.
 */
void
replayCorrectionInvariant(const std::vector<TraceEvent> &events,
                          std::uint32_t codeword_bits,
                          unsigned &checked)
{
    using Cell = std::tuple<std::uint16_t, std::uint32_t, std::uint64_t,
                            std::uint64_t>; // tid, bank, row, bit
    std::set<Cell> flipped;
    for (const TraceEvent &e : events) {
        switch (e.kind) {
          case EventKind::BitFlip:
            flipped.insert({e.tid, e.a, e.b, e.c});
            break;
          case EventKind::EccCorrected:
            EXPECT_TRUE(flipped.count({e.tid, e.a, e.b, e.c}))
                << "correction of a never-flipped cell, bank " << e.a
                << " row " << e.b << " bit " << e.c << " at " << e.when;
            ++checked;
            break;
          case EventKind::EccMiscorrect: {
            std::uint64_t cw = e.c / codeword_bits;
            unsigned raw_in_cw = 0;
            for (std::uint64_t bit = cw * codeword_bits;
                 bit < (cw + 1) * codeword_bits; ++bit)
                raw_in_cw += flipped.count({e.tid, e.a, e.b, bit});
            EXPECT_GE(raw_in_cw, 2u)
                << "miscorrection without a multi-bit error, bank "
                << e.a << " row " << e.b << " bit " << e.c;
            ++checked;
            break;
          }
          case EventKind::CrossVmFlip: {
            std::uint64_t bit = e.c & ((1ULL << 48) - 1);
            EXPECT_TRUE(flipped.count({e.tid, e.a, e.b, bit}))
                << "cross-VM flip without a raw flip, bank " << e.a
                << " row " << e.b << " bit " << bit;
            EXPECT_NE(static_cast<std::uint64_t>(e.flags), e.c >> 48)
                << "tenant reported as its own victim at " << e.when;
            ++checked;
            break;
          }
          default:
            break;
        }
    }
}

} // namespace

TEST(CausalInvariants, EccCorrectionsTargetPriorRawFlips)
{
    unsigned checked = 0;
    replayCorrectionInvariant(interVmTrace(1), 16 * 8, checked);
    EXPECT_GT(checked, 0u);
    unsigned dense_checked = 0;
    replayCorrectionInvariant(eccMiscorrectTrace(), 16 * 8,
                              dense_checked);
    EXPECT_GT(dense_checked, 0u);
}

TEST(CausalInvariants, PhaseBracketsAreBalanced)
{
    auto events = quickstartTrace(1);
    std::map<std::uint16_t, std::vector<std::uint32_t>> stack;
    unsigned pairs = 0;
    for (const TraceEvent &e : events) {
        if (e.kind == EventKind::PhaseBegin) {
            stack[e.tid].push_back(e.a);
        } else if (e.kind == EventKind::PhaseEnd) {
            ASSERT_FALSE(stack[e.tid].empty());
            EXPECT_EQ(stack[e.tid].back(), e.a);
            stack[e.tid].pop_back();
            ++pairs;
        }
    }
    for (auto &[tid, open] : stack)
        EXPECT_TRUE(open.empty()) << "unclosed phase in task " << tid;
    EXPECT_GT(pairs, 0u);
}

// ---------------------------------------------------------------------
// Campaign metrics wiring
// ---------------------------------------------------------------------

TEST(CampaignTrace, MetricsMatchDeviceTotalsAndTids)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    spec.trace.enabled = true;
    spec.trace.categories = CatDram | CatTrr | CatFlip | CatPhase;
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 2000);
    Rng rng(42);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    SweepParams params;
    params.numLocations = 3;
    params.jobs = 2;

    MetricsRegistry metrics;
    std::vector<TraceEvent> trace;
    ParallelStats stats;
    sweepCampaign(spec, pattern, cfg, params, 42, &stats, &metrics,
                  &trace);

    // The merged stream carries per-task tids, in task order.
    std::set<std::uint16_t> tids;
    std::uint16_t last = 0;
    std::uint64_t act_events = 0;
    for (const TraceEvent &e : trace) {
        EXPECT_GE(e.tid, last); // task-ordered merge never interleaves
        last = e.tid;
        tids.insert(e.tid);
        if (e.kind == EventKind::DramAct)
            ++act_events;
    }
    EXPECT_EQ(tids.size(), params.numLocations);

    // The unified counters agree with the stream itself.
    EXPECT_EQ(metrics.value("dram.acts"), act_events);
    EXPECT_EQ(metrics.value("campaign.locations"), params.numLocations);
    EXPECT_GT(metrics.value("cpu.dram_accesses"), 0u);

    // And the ParallelStats adapter lands them under parallel.*.
    MetricsRegistry pm;
    addMetrics(pm, stats);
    EXPECT_EQ(pm.value("parallel.tasks_run"), params.numLocations);
    EXPECT_EQ(pm.value("parallel.jobs"), 2u);
}

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--regen-goldens")
            regenGoldens = true;
    }
    if (const char *env = std::getenv("RHO_REGEN_GOLDENS")) {
        if (*env && std::string(env) != "0")
            regenGoldens = true;
    }
    return RUN_ALL_TESTS();
}
