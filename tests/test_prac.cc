/**
 * @file
 * PRAC / Alert Back-Off property suite (paper section 6).
 *
 * The centrepiece is the provisioning safety invariant: with the alert
 * threshold T below the DIMM's minimum hammer count divided by the
 * worst-case neighbour amplification, *no* fuzzed non-uniform pattern
 * can flip a bit — and the causal trace proves the stronger statement
 * that no victim row ever accumulates more than the analytic
 * disturbance bound between refreshes:
 *
 *     bound(T) = 2 * T * 1.0 + 2 * T * w_half = 2.16 * T
 *
 * (two distance-1 aggressors at weight 1.0 plus two distance-2 at the
 * half-double weight 0.08; each aggressor contributes at most T ACTs
 * between services because its own threshold crossing refreshes the
 * victim's neighbourhood).
 */

#include <gtest/gtest.h>

#include <map>

#include "differential.hh"
#include "dram/dimm.hh"
#include "dram/prac.hh"
#include "hammer/hammer_session.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;
using namespace rho::test;

namespace
{

// Dimm::halfDoubleWeight (private); the analytic bound mirrors it.
constexpr double kHalfDoubleWeight = 0.08;

constexpr double
disturbBound(std::uint32_t threshold)
{
    return 2.0 * threshold * 1.0
        + 2.0 * threshold * kHalfDoubleWeight;
}

} // namespace

// ---------------------------------------------------------------------
// PracEngine unit behaviour
// ---------------------------------------------------------------------

TEST(PracEngine, AlertsAtExactThreshold)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 4;
    cfg.aboSlots = 1;
    PracEngine prac(cfg, 1);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(prac.observeAct(0, 9).protect.empty());
    PracAlertAction a = prac.observeAct(0, 9);
    ASSERT_EQ(a.protect.size(), 1u);
    EXPECT_EQ(a.protect[0].row, 9u);
    EXPECT_EQ(a.peak, 4u);
    EXPECT_EQ(prac.alerts(), 1u);
    // The serviced counter restarts from zero.
    EXPECT_EQ(prac.rowCount(0, 9), 0u);
    EXPECT_TRUE(prac.observeAct(0, 9).protect.empty());
}

TEST(PracEngine, AboServicesHottestRowsAboveHalfThreshold)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 8;
    cfg.aboSlots = 3;
    PracEngine prac(cfg, 1);
    auto heat = [&](std::uint64_t row, unsigned acts) {
        for (unsigned i = 0; i < acts; ++i)
            prac.observeAct(0, row);
    };
    heat(10, 7); // >= threshold/2: eligible, hottest
    heat(20, 5); // >= threshold/2: eligible
    heat(30, 3); // below half threshold: not serviced
    heat(40, 8); // crosses -> alert
    // The crossing fired on row 40's 8th ACT; its action carried the
    // two hottest eligible rows.
    EXPECT_EQ(prac.alerts(), 1u);
    EXPECT_EQ(prac.rowCount(0, 10), 0u); // serviced
    EXPECT_EQ(prac.rowCount(0, 20), 0u); // serviced
    EXPECT_EQ(prac.rowCount(0, 30), 3u); // untouched
    EXPECT_EQ(prac.rowCount(0, 40), 0u);
}

TEST(PracEngine, AboTieBreaksOnLowerRow)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 6;
    cfg.aboSlots = 2; // crossing row + one extra slot
    PracEngine prac(cfg, 1);
    for (int i = 0; i < 3; ++i) {
        prac.observeAct(0, 50); // equal heat
        prac.observeAct(0, 44); // equal heat, lower row
    }
    for (int i = 0; i < 6; ++i)
        prac.observeAct(0, 70);
    // One extra slot, two equally hot candidates: lower row wins.
    EXPECT_EQ(prac.rowCount(0, 44), 0u);
    EXPECT_EQ(prac.rowCount(0, 50), 3u);
}

TEST(PracEngine, CountsPerBankIndependently)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 8;
    PracEngine prac(cfg, 4);
    for (int i = 0; i < 28; ++i)
        EXPECT_TRUE(prac.observeAct(i % 4, 123).protect.empty());
    EXPECT_EQ(prac.alerts(), 0u);
    EXPECT_EQ(prac.rowCount(0, 123), 7u);
}

TEST(PracEngine, DisabledIsTransparent)
{
    PracEngine prac(PracConfig{}, 1);
    for (int i = 0; i < 5000; ++i)
        EXPECT_TRUE(prac.observeAct(0, 1).protect.empty());
    EXPECT_EQ(prac.alerts(), 0u);
    EXPECT_EQ(prac.rowCount(0, 1), 0u); // disabled engine tracks nothing
}

TEST(PracEngine, RejectsDegenerateConfig)
{
    PracConfig zero_thr;
    zero_thr.enabled = true;
    zero_thr.threshold = 0;
    EXPECT_DEATH(PracEngine(zero_thr, 1), "threshold");
    PracConfig zero_slots;
    zero_slots.enabled = true;
    zero_slots.aboSlots = 0;
    EXPECT_DEATH(PracEngine(zero_slots, 1), "aboSlots");
}

TEST(PracEngine, ResetDropsCountersAndAlerts)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 4;
    PracEngine prac(cfg, 1);
    for (int i = 0; i < 5; ++i)
        prac.observeAct(0, 3);
    EXPECT_EQ(prac.alerts(), 1u);
    prac.reset();
    EXPECT_EQ(prac.alerts(), 0u);
    EXPECT_EQ(prac.rowCount(0, 3), 0u);
}

// ---------------------------------------------------------------------
// Device-level PRAC semantics
// ---------------------------------------------------------------------

TEST(PracDimm, CountersPersistAcrossRefreshWindows)
{
    // The defining property vs sampler-based TRR: PRAC counters live
    // in the rows, so regular REF cannot launder an aggressor's
    // history. Hammer slowly — far below the threshold per refresh
    // interval — and the alert still fires once the cumulative count
    // crosses.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const TrrConfig no_trr = noTrr();
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 64;
    Dimm d(d1, DramTiming::ddr5(4800), no_trr, RfmConfig{}, prac);

    Ns now = 0.0;
    const Ns trefi = d.timing().tREFI;
    for (int i = 0; i < 64; ++i) {
        now += d.access({0, 7000, 0}, now).latency;
        now += d.access({0, 7004, 0}, now).latency; // close the row
        now += 2.0 * trefi; // several REF ticks between each ACT pair
    }
    EXPECT_GE(d.pracAlertCount(), 1u);
    EXPECT_GT(d.aboStallNs(), 0.0);
}

TEST(PracDimm, AlertProtectsVictimsBeforeFlip)
{
    // Uniform double-sided hammering on the DDR5 sample: with the
    // threshold provisioned under hcMin / 2.16, the victim can never
    // reach its flip threshold.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const TrrConfig no_trr = noTrr();
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 512;
    ASSERT_LT(disturbBound(prac.threshold), d1.hcMin);

    Dimm with_prac(d1, DramTiming::ddr5(4800), no_trr, RfmConfig{}, prac);
    Dimm without(d1, DramTiming::ddr5(4800), no_trr);

    auto hammer = [](Dimm &d) {
        d.fillRow(0, 5001, 0x55, 0.0);
        Ns now = 0.0;
        now = hammerVictim(d, 5001, now, 20000);
        return d.diffRow(0, 5001, 0x55, now).size();
    };

    EXPECT_GT(hammer(without), 0u);
    EXPECT_EQ(hammer(with_prac), 0u);
    EXPECT_GT(with_prac.pracAlertCount(), 10u);
}

// ---------------------------------------------------------------------
// The provisioning safety invariant, fuzzed
// ---------------------------------------------------------------------

TEST(PracProperty, SafetyInvariantHoldsForFuzzedPatterns)
{
    // >= 200 random non-uniform patterns across >= 3 seeds, each
    // hammered on a fresh PRAC-protected DDR5 system with every other
    // mitigation off. Checked per pattern:
    //   1. zero bit flips;
    //   2. trace replay: no row's accumulated disturbance ever
    //      exceeds bound(T) — the analytic ceiling — which is itself
    //      below the DIMM's minimum flip threshold.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 512;
    const double bound = disturbBound(prac.threshold);
    ASSERT_LT(bound, static_cast<double>(d1.hcMin));

    const TrrConfig no_trr = noTrr();

    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 40000);
    PatternParams pparams; // stock fuzzer generation knobs

    TraceConfig tcfg;
    tcfg.enabled = true;
    tcfg.categories = CatDram | CatDisturb | CatTrr | CatFlip;
    tcfg.capacity = std::size_t{1} << 20;

    std::uint64_t total_alerts = 0;
    double max_accum = 0.0;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        Rng pattern_rng(seed);
        for (unsigned p = 0; p < 70; ++p) {
            HammerPattern pattern =
                HammerPattern::randomNonUniform(pattern_rng, pparams);
            SystemSpec spec(Arch::RaptorLake, d1, no_trr);
            spec.prac = prac;
            MemorySystem sys(spec);
            HammerSession session(sys, seed * 1000 + p);
            Tracer tracer(tcfg);
            sys.attachTracer(&tracer);
            HammerLocation loc =
                session.tryRandomLocation(pattern, cfg).loc.value();
            HammerOutcome out = session.hammer(pattern, loc, cfg);
            sys.attachTracer(nullptr);

            ASSERT_EQ(out.flips, 0u)
                << "pattern " << p << " seed " << seed << " flipped";
            ASSERT_EQ(tracer.dropped(), 0u)
                << "trace truncated; invariant replay incomplete";
            total_alerts += sys.dimm().pracAlertCount();

            // Causal replay: accumulate Disturb, zero on any reset.
            std::map<std::pair<std::uint32_t, std::uint64_t>, double>
                accum;
            for (const TraceEvent &e : tracer.events()) {
                auto key = std::make_pair(e.a, e.b);
                if (e.kind == EventKind::Disturb) {
                    double &v = accum[key];
                    v += traceReal(e.c);
                    max_accum = std::max(max_accum, v);
                    ASSERT_LE(v, bound + 1e-6)
                        << "row " << e.b << " exceeded the disturb "
                        << "bound at t=" << e.when;
                } else if (e.kind == EventKind::DisturbReset
                           || e.kind == EventKind::FlipSuppressed) {
                    accum[key] = 0.0;
                }
            }
        }
    }
    // The invariant must not hold vacuously: PRAC had to work for it.
    EXPECT_GT(total_alerts, 0u);
    // And the hammer genuinely pressed against the ceiling.
    EXPECT_GT(max_accum, 0.5 * bound);
}

// ---------------------------------------------------------------------
// RAA metamorphic check: increments are exactly the ACT stream
// ---------------------------------------------------------------------

TEST(RfmProperty, RaaIncrementsMatchActStreamPerBank)
{
    // Metamorphic relation: however a pattern schedules its accesses,
    // the RFM engine's per-bank increment accounting must equal the
    // per-bank DramAct counts observed in the trace — RAA bookkeeping
    // observes every ACT exactly once.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    RfmConfig rfm;
    rfm.enabled = true;
    MemorySystem sys(SystemSpec(Arch::RaptorLake, d1, TrrConfig{}, rfm));
    HammerSession session(sys, 97);

    TraceConfig tcfg;
    tcfg.enabled = true;
    tcfg.categories = CatDram;
    tcfg.capacity = std::size_t{1} << 20;
    Tracer tracer(tcfg);
    sys.attachTracer(&tracer);

    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 60000);
    cfg.numBanks = 4; // spread the pattern over several banks
    Rng rng(5);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    HammerLocation loc = session.tryRandomLocation(pattern, cfg).loc.value();
    session.hammer(pattern, loc, cfg);
    sys.attachTracer(nullptr);
    ASSERT_EQ(tracer.dropped(), 0u);

    std::map<std::uint32_t, std::uint64_t> acts_per_bank;
    std::uint64_t total_acts = 0;
    for (const TraceEvent &e : tracer.events()) {
        if (e.kind == EventKind::DramAct) {
            ++acts_per_bank[e.a];
            ++total_acts;
        }
    }
    ASSERT_GT(total_acts, 0u);
    EXPECT_GT(acts_per_bank.size(), 1u); // multi-bank really happened

    const RfmEngine &eng = sys.dimm().rfmEngine();
    for (const auto &[bank, count] : acts_per_bank)
        EXPECT_EQ(eng.raaIncrements(bank), count) << "bank " << bank;
    EXPECT_EQ(eng.totalRaaIncrements(), total_acts);
    EXPECT_EQ(eng.totalRaaIncrements(), sys.dimm().totalActs());
}

// ---------------------------------------------------------------------
// Dimm::reset() parity with the DDR5 mitigations enabled
// ---------------------------------------------------------------------

TEST(PracDimm, ResetDeviceMatchesFreshDeviceWithRfmAndPrac)
{
    // A reset device must replay exactly like a new one when RFM RAA
    // counters, PRAC row counters and the stall accounting are all in
    // play — byte-identical event stream included.
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    TrrConfig trr;
    trr.matchThreshold = 1u << 30; // exercise sampler rng, never fire
    RfmConfig rfm;
    rfm.enabled = true;
    rfm.raaimt = 64;
    PracConfig prac;
    prac.enabled = true;
    prac.threshold = 256;

    auto script = [](Dimm &d) {
        Ns now = 0.0;
        d.fillRow(0, 5001, 0x55, now);
        now = hammerVictim(d, 5001, now);
    };
    const std::uint32_t cats = CatDram | CatDisturb | CatTrr | CatFlip;
    Dimm fresh(d1, DramTiming::ddr5(4800), trr, rfm, prac);
    Digest want = traceDimm(fresh, cats, script);

    Dimm reused(d1, DramTiming::ddr5(4800), trr, rfm, prac);
    traceDimm(reused, cats, script); // dirty RAA, PRAC counters, stalls
    reused.reset();
    EXPECT_EQ(reused.totalActs(), 0u);
    EXPECT_EQ(reused.rfmCommandCount(), 0u);
    EXPECT_EQ(reused.pracAlertCount(), 0u);
    EXPECT_EQ(reused.rfmStallNs(), 0.0);
    EXPECT_EQ(reused.aboStallNs(), 0.0);

    expectSameDigest(traceDimm(reused, cats, script), want, "reset device");
    EXPECT_EQ(fresh.rfmStallNs(), reused.rfmStallNs());
    EXPECT_EQ(fresh.aboStallNs(), reused.aboStallNs());

    // The scenario must exercise all three new machinery paths.
    EXPECT_GT(want.rfmCommands, 0u);
    EXPECT_GT(want.pracAlerts, 0u);
    std::size_t alerts = 0, abo = 0, stalls = 0;
    for (const TraceEvent &e : traceEvents(want)) {
        alerts += e.kind == EventKind::PracAlert;
        abo += e.kind == EventKind::AboRefresh;
        stalls += e.kind == EventKind::MitigationStall;
    }
    EXPECT_GT(alerts, 0u);
    EXPECT_GT(abo, 0u);
    EXPECT_GT(stalls, 0u);
}
