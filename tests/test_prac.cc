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

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

/** One ALERT: the crossing row, its count and the serviced rows. */
struct AlertRecord
{
    std::uint32_t bank;
    std::uint64_t row;
    std::uint64_t peak;
    std::vector<std::uint64_t> serviced; //!< in service order

    bool operator==(const AlertRecord &) const = default;
};

/** The ALERTs of a CatTrr event stream, with their AboRefresh rows. */
std::vector<AlertRecord>
alertsInTrace(const std::vector<TraceEvent> &events)
{
    std::vector<AlertRecord> alerts;
    for (const TraceEvent &e : events) {
        if (e.kind == EventKind::PracAlert) {
            alerts.push_back({e.a, e.b, e.c, {}});
        } else if (e.kind == EventKind::AboRefresh) {
            EXPECT_FALSE(alerts.empty());
            EXPECT_EQ(e.a, alerts.back().bank);
            alerts.back().serviced.push_back(e.b);
        }
    }
    return alerts;
}

/**
 * A DDR5 Dimm with PRAC as its only mitigation, driven one ACT at a
 * time: with REF blocking on, act() lands each access in the next
 * tREFI window, whose REF has closed the bank's open row, so every
 * call activates its row exactly once.
 */
class PracDevice
{
  public:
    explicit PracDevice(const PracConfig &cfg)
        : dimm(DimmProfile::ddr5Sample(), refClosing(), noTrr(),
               RfmConfig{}, cfg),
          tracer(TraceConfig{true, CatTrr, 1024})
    {
        dimm.setTracer(&tracer);
    }

    /** One ACT of (bank, row): the ALERT it raised, if any. */
    std::optional<AlertRecord>
    act(std::uint32_t bank, std::uint64_t row)
    {
        tracer.clear();
        now += dimm.timing().tREFI;
        EXPECT_TRUE(dimm.access({bank, row, 0}, now).act);
        std::vector<AlertRecord> alerts = alertsInTrace(tracer.events());
        EXPECT_LE(alerts.size(), 1u);
        if (alerts.empty())
            return std::nullopt;
        return alerts.front();
    }

    std::uint32_t
    count(std::uint32_t bank, std::uint64_t row) const
    {
        return dimm.pracCount(bank, row);
    }

    Dimm dimm;

  private:
    static DramTiming
    refClosing()
    {
        DramTiming t = DramTiming::ddr5(4800);
        t.refBlocking = true;
        return t;
    }

    Tracer tracer;
    Ns now = 0.0;
};

} // namespace

// ---------------------------------------------------------------------
// PracEngine behaviour, counted in the device's row state
// ---------------------------------------------------------------------

TEST(PracEngine, AlertsAtExactThreshold)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 4;
    cfg.aboSlots = 1;
    PracDevice prac(cfg);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(prac.act(0, 9));
    std::optional<AlertRecord> a = prac.act(0, 9);
    ASSERT_TRUE(a);
    ASSERT_EQ(a->serviced.size(), 1u);
    EXPECT_EQ(a->serviced[0], 9u);
    EXPECT_EQ(a->peak, 4u);
    EXPECT_EQ(prac.dimm.pracAlertCount(), 1u);
    // The serviced counter restarts from zero.
    EXPECT_EQ(prac.count(0, 9), 0u);
    EXPECT_FALSE(prac.act(0, 9));
}

TEST(PracEngine, AboServicesHottestRowsAboveHalfThreshold)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 8;
    cfg.aboSlots = 3;
    PracDevice prac(cfg);
    auto heat = [&](std::uint64_t row, unsigned acts) {
        for (unsigned i = 0; i < acts; ++i)
            prac.act(0, row);
    };
    heat(10, 7); // >= threshold/2: eligible, hottest
    heat(20, 5); // >= threshold/2: eligible
    heat(30, 3); // below half threshold: not serviced
    heat(40, 8); // crosses -> alert
    // The crossing fired on row 40's 8th ACT; its action carried the
    // two hottest eligible rows.
    EXPECT_EQ(prac.dimm.pracAlertCount(), 1u);
    EXPECT_EQ(prac.count(0, 10), 0u); // serviced
    EXPECT_EQ(prac.count(0, 20), 0u); // serviced
    EXPECT_EQ(prac.count(0, 30), 3u); // untouched
    EXPECT_EQ(prac.count(0, 40), 0u);
}

TEST(PracEngine, AboTieBreaksOnLowerRow)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 6;
    cfg.aboSlots = 2; // crossing row + one extra slot
    PracDevice prac(cfg);
    for (int i = 0; i < 3; ++i) {
        prac.act(0, 50); // equal heat
        prac.act(0, 44); // equal heat, lower row
    }
    for (int i = 0; i < 6; ++i)
        prac.act(0, 70);
    // One extra slot, two equally hot candidates: lower row wins.
    EXPECT_EQ(prac.count(0, 44), 0u);
    EXPECT_EQ(prac.count(0, 50), 3u);
}

TEST(PracEngine, CountsPerBankIndependently)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 8;
    PracDevice prac(cfg);
    for (int i = 0; i < 28; ++i)
        EXPECT_FALSE(prac.act(i % 4, 123));
    EXPECT_EQ(prac.dimm.pracAlertCount(), 0u);
    EXPECT_EQ(prac.count(0, 123), 7u);
}

TEST(PracEngine, DisabledIsTransparent)
{
    PracDevice prac(PracConfig{});
    for (int i = 0; i < 5000; ++i)
        EXPECT_FALSE(prac.act(0, 1));
    EXPECT_EQ(prac.dimm.pracAlertCount(), 0u);
    EXPECT_EQ(prac.count(0, 1), 0u); // disabled engine tracks nothing
}

TEST(PracEngine, RejectsDegenerateConfig)
{
    PracConfig zero_thr;
    zero_thr.enabled = true;
    zero_thr.threshold = 0;
    EXPECT_DEATH(PracEngine{zero_thr}, "threshold");
    PracConfig zero_slots;
    zero_slots.enabled = true;
    zero_slots.aboSlots = 0;
    EXPECT_DEATH(PracEngine{zero_slots}, "aboSlots");
}

TEST(PracEngine, ResetDropsCountersAndAlerts)
{
    PracConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 4;
    PracDevice prac(cfg);
    for (int i = 0; i < 5; ++i)
        prac.act(0, 3);
    EXPECT_EQ(prac.dimm.pracAlertCount(), 1u);
    EXPECT_EQ(prac.count(0, 3), 1u);
    prac.dimm.reset();
    EXPECT_EQ(prac.dimm.pracAlertCount(), 0u);
    EXPECT_EQ(prac.count(0, 3), 0u);
}

// ---------------------------------------------------------------------
// ABO oracle: the device's alerts vs a per-bank std::map model
// ---------------------------------------------------------------------

namespace
{

/**
 * PRAC in its plainest form: a std::map<row, count> per bank; on
 * ALERT the crossing row is serviced first, then a sort of every other
 * counter at or above half threshold (hottest first, lower row on
 * ties) fills the remaining ABO slots.
 */
class PracModel
{
  public:
    PracModel(const PracConfig &cfg, std::uint32_t banks)
        : cfg(cfg), counts(banks)
    {
    }

    std::optional<AlertRecord>
    observeAct(std::uint32_t bank, std::uint64_t row)
    {
        auto &table = counts[bank];
        std::uint32_t &count = table[row];
        if (++count < cfg.threshold)
            return std::nullopt;
        AlertRecord alert{bank, row, count, {row}};
        count = 0;
        std::vector<std::pair<std::uint32_t, std::uint64_t>> hot;
        for (const auto &[r, c] : table) {
            if (r != row && c >= cfg.threshold / 2 && c > 0)
                hot.push_back({c, r});
        }
        std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
            return a.first != b.first ? a.first > b.first
                                      : a.second < b.second;
        });
        std::size_t extra =
            std::min<std::size_t>(cfg.aboSlots - 1, hot.size());
        if (extra > 0 && extra < hot.size()
            && hot[extra - 1].first == hot[extra].first)
            ++tiesAtCut;
        for (std::size_t i = 0; i < extra; ++i) {
            alert.serviced.push_back(hot[i].second);
            table[hot[i].second] = 0;
        }
        return alert;
    }

    void
    reset()
    {
        for (auto &table : counts)
            table.clear();
    }

    /** ALERTs whose last ABO slot was decided by the row tie-break. */
    std::size_t tiesAtCut = 0;

  private:
    PracConfig cfg;
    std::vector<std::map<std::uint64_t, std::uint32_t>> counts;
};

/**
 * Feed one seeded ACT stream over 4 banks to a DDR5 Dimm (PRAC only,
 * `store` rows) and to PracModel, with a Dimm::reset() halfway: the
 * device's PracAlert/AboRefresh events must be the model's ALERTs.
 * The stream cycles round-robin over 2-6 distinct rows of a bank, so
 * counters tie, and mixes in random rows. Returns the model's count
 * of tie-decided ALERTs.
 */
std::size_t
expectPracMatchesModel(const PracConfig &cfg, RowStoreKind store,
                       std::uint64_t seed, unsigned acts)
{
    constexpr std::uint32_t kBanks = 4;
    Dimm d(DimmProfile::ddr5Sample(), DramTiming::ddr5(4800), noTrr(),
           RfmConfig{}, cfg);
    d.setRowStore(store);
    PracModel model(cfg, kBanks);
    Tracer tracer(TraceConfig{true, CatTrr, std::size_t{1} << 22});
    d.setTracer(&tracer);

    std::vector<AlertRecord> want;
    std::size_t alerts_before_reset = 0;
    Rng rng(seed);
    std::vector<std::uint64_t> cycle;
    std::uint32_t cycle_bank = 0;
    std::size_t pos = 0;
    unsigned left = 0;
    Ns now = 0.0;
    for (unsigned done = 0; done < acts;) {
        if (done == acts / 2 && alerts_before_reset == 0) {
            alerts_before_reset = want.size();
            d.reset();
            model.reset();
            now = 0.0;
        }
        if (left == 0) {
            cycle_bank = static_cast<std::uint32_t>(rng.uniformInt(0, 3));
            unsigned k = static_cast<unsigned>(rng.uniformInt(2, 6));
            std::uint64_t base = rng.uniformInt(1000, 1100);
            std::uint64_t stride = rng.uniformInt(1, 8);
            cycle.clear();
            for (unsigned j = 0; j < k; ++j)
                cycle.push_back(base + j * stride);
            left = k * static_cast<unsigned>(rng.uniformInt(1, 60));
            pos = 0;
        }
        std::uint32_t bank = cycle_bank;
        std::uint64_t row;
        if (rng.chance(0.05)) {
            bank = static_cast<std::uint32_t>(rng.uniformInt(0, 3));
            row = rng.uniformInt(1000, 1200);
        } else {
            row = cycle[pos++ % cycle.size()];
            --left;
        }
        DramAccessResult r = d.access({bank, row, 0}, now);
        now += r.latency;
        if (!r.act)
            continue;
        ++done;
        if (auto alert = model.observeAct(bank, row))
            want.push_back(*alert);
    }
    d.setTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_GT(alerts_before_reset, 0u);
    EXPECT_EQ(d.pracAlertCount(), want.size() - alerts_before_reset);
    EXPECT_TRUE(alertsInTrace(tracer.events()) == want)
        << "device ALERTs diverged from the model";

    // Several ALERTs per bank, so later ones see counters the earlier
    // services left behind.
    std::vector<std::size_t> per_bank(kBanks, 0);
    for (const AlertRecord &a : want)
        ++per_bank[a.bank];
    for (std::uint32_t b = 0; b < kBanks; ++b)
        EXPECT_GE(per_bank[b], 2u) << "bank " << b;
    return model.tiesAtCut;
}

} // namespace

TEST(PracOracle, AlertsMatchMapModelOnBothRowStores)
{
    std::size_t ties = 0;
    std::uint64_t seed = 1;
    for (std::uint32_t threshold : {1u, 16u, 64u}) {
        for (unsigned slots : {1u, 2u, 3u, 5u}) {
            PracConfig cfg;
            cfg.enabled = true;
            cfg.threshold = threshold;
            cfg.aboSlots = slots;
            for (RowStoreKind store :
                 {RowStoreKind::Flat, RowStoreKind::Reference}) {
                SCOPED_TRACE("threshold " + std::to_string(threshold)
                             + " slots " + std::to_string(slots)
                             + (store == RowStoreKind::Flat ? " flat"
                                                            : " reference"));
                ties += expectPracMatchesModel(cfg, store, seed, 20000);
            }
            ++seed;
        }
    }
    // The tie-break on the lower row really decided some ABO slots.
    EXPECT_GT(ties, 0u);
}

TEST(PracDifferential, Ddr5MitigationsIdenticalAcrossEngineMatrix)
{
    // PRAC counters and the RFM recency state must evolve identically
    // on both row stores and both CPU engines.
    Digest ref = expectMatrixMatches(
        ddr5MitigationSpec(CatDram | CatDisturb | CatTrr | CatFlip
                           | CatPhase),
        {1u}, [](const SystemSpec &spec, unsigned jobs) {
            return trrEvasionScenario(spec, 13, jobs, 60000);
        });
    EXPECT_GT(ref.pracAlerts, 1u);
    EXPECT_GT(ref.rfmCommands, 0u);
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
