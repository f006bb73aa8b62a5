/**
 * @file
 * sweep_ddr4: the paper's headline attack (Fig. 11 templating). Seeded
 * non-uniform patterns are each hammered with the rho-tuned multi-bank
 * prefetch config at consecutive sweepLocationAt() locations, all on
 * one HammerSession over Raptor Lake + DDR4 S2 with default TRR.
 * Serial; host time goes to CPU replay and the hot-row device path over
 * a few dozen rows. Bypasses per-task setup, the thread pool,
 * unresolved address decode, RFM and PRAC.
 *
 * A pattern's ACT count and host time depend on its seed (with one
 * pattern per repetition, sim_acts_per_s spread 28% over five seeds),
 * so a repetition sweeps several patterns and a run's figures do not
 * hinge on one draw.
 */

#include <algorithm>

#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "workload.hh"

namespace rhobench
{

using namespace rho;

namespace
{

class SweepDdr4 : public Workload
{
  public:
    explicit SweepDdr4(const Options &opts)
        : spec(Arch::RaptorLake, DimmProfile::byId("S2")),
          seed(opts.seed)
    {
        const bool tiny = opts.size == Size::Tiny;
        unsigned num_patterns = tiny ? 2 : 16;
        locationsPerPattern = tiny ? 1 : 2;
        oracleSteps = tiny ? 1 : 3;
        cfg = rhoConfig(Arch::RaptorLake, true, tiny ? 40000 : 150000);
        sysSeed = hashCombine(seed, 2);
        for (unsigned p = 0; p < num_patterns; ++p) {
            patterns.push_back(makePattern(p));
            for (unsigned l = 0; l < locationsPerPattern; ++l)
                steps.push_back({p, locationAt(p, l)});
        }
    }

    void
    warmUp() override
    {
        // A throwaway machine hammers locations the timed run never
        // uses, so the timed machines stay factory-fresh.
        std::uint64_t s = hashCombine(sysSeed, 0xa);
        MemorySystem sys = spec.instantiate(s);
        HammerSession session(sys, s);
        for (unsigned p = 0; p < std::min<std::size_t>(8, patterns.size());
             ++p)
            session.hammer(patterns[p], locationAt(p, locationsPerPattern),
                           cfg);
    }

    RepResult
    runRep() override
    {
        return sweepOn(spec, steps.size());
    }

    std::vector<UnitDigest>
    oracle() override
    {
        SystemSpec ref = spec;
        ref.referenceRowStore = true;
        ref.cpuModel = CpuModelKind::Reference;
        // Device state carries over between steps, so the slice is a
        // prefix of the sweep.
        RepResult r = sweepOn(ref, oracleSteps);
        std::vector<UnitDigest> out;
        for (std::size_t i = 0; i < r.units.size(); ++i)
            out.push_back({i, r.units[i].digest});
        return out;
    }

    TracedResult
    traced(const RepResult &rep, SpanRecorder &spans) override
    {
        TracedResult res;
        HammerTally tally;
        for (unsigned p = 0; p < patterns.size(); ++p) {
            ScopedSpan gen(spans, "hammer.pattern_gen");
            makePattern(p);
        }
        std::uint64_t t0 = nowNs();
        {
            std::int32_t inst = spans.begin("memsys.instantiate");
            MemorySystem sys = spec.instantiate(sysSeed);
            spans.end(inst);
            HammerSession session(sys, sysSeed);
            for (std::size_t i = 0; i < steps.size(); ++i) {
                HammerOutcome out =
                    tracedHammer(session, patterns[steps[i].pattern],
                                 steps[i].loc, cfg, spans, tally);
                res.checks.push_back(
                    {hammerDigest(out, sys), rep.units[i].digest});
            }
        }
        res.tracedS = secondsSince(t0) - tally.recordNs * 1e-9;

        reportHammerLayers(tally, spans, res.layers);
        DeviceCosts dev;
        dev.add(spec, tally.stream);
        dev.report(res.layers);

        traceOverhead(res.layers);
        return res;
    }

    Manifest
    manifest() const override
    {
        return {
            {"arch", archName(spec.arch)},
            {"dimm", spec.dimm->id},
            {"mitigations", "trr-default"},
            {"ecc", "off"},
            {"cpu_engine", "blocked"},
            {"row_store", "flat"},
            {"jobs", "1"},
            {"patterns", std::to_string(patterns.size())},
            {"locations_per_pattern", std::to_string(locationsPerPattern)},
            {"access_budget", std::to_string(cfg.accessBudget)},
            {"pattern_shape", "8 pairs, period 64"},
        };
    }

  private:
    /** One hammer() call of the sweep. */
    struct Step
    {
        unsigned pattern;
        HammerLocation loc;
    };

    /**
     * Pattern p. A fixed shape (8 pairs, period 64) keeps the work per
     * location alike; frequencies, phases and amplitudes are seeded.
     */
    HammerPattern
    makePattern(unsigned p) const
    {
        PatternParams params;
        params.minPairs = params.maxPairs = 8;
        params.minPeriodLog2 = params.maxPeriodLog2 = 6;
        Rng rng(hashCombine(seed, 0x5eed + p));
        return HammerPattern::randomNonUniform(rng, params);
    }

    HammerLocation
    locationAt(unsigned p, unsigned l) const
    {
        return sweepLocationAt(spec.dimm->geom, patterns[p],
                               hashCombine(seed, 0x10c + p), l);
    }

    /** The first `count` steps of the sweep on a fresh machine. */
    RepResult
    sweepOn(const SystemSpec &s, std::size_t count)
    {
        RepResult r;
        MemorySystem sys = s.instantiate(sysSeed);
        HammerSession session(sys, sysSeed);
        for (std::size_t i = 0; i < count; ++i) {
            HammerOutcome out =
                session.hammer(patterns[steps[i].pattern], steps[i].loc, cfg);
            r.units.push_back({hammerDigest(out, sys), 1, 0});
            r.flips += out.flips;
        }
        const Dimm &dimm = sys.dimm();
        r.acts = dimm.totalActs();
        r.trrRefreshes = dimm.trrRefreshCount();
        r.rfmCommands = dimm.rfmCommandCount();
        r.pracAlerts = dimm.pracAlertCount();
        return r;
    }

    /**
     * The program's own Tracer attached vs detached on the first step
     * of a fresh machine: the median of three alternating pairs.
     */
    void
    traceOverhead(std::map<std::string, double> &layers)
    {
        TraceConfig tc;
        tc.enabled = true;
        Tracer tracer(tc);
        std::vector<double> ratios;
        std::uint64_t dropped = 0;
        for (int i = 0; i < 3; ++i) {
            double plain = 0.0, traced = 0.0;
            for (bool on : {false, true}) {
                MemorySystem sys = spec.instantiate(sysSeed);
                HammerSession session(sys, sysSeed);
                if (on) {
                    tracer.clear();
                    sys.attachTracer(&tracer);
                }
                std::uint64_t t0 = nowNs();
                session.hammer(patterns[steps[0].pattern], steps[0].loc, cfg);
                (on ? traced : plain) = secondsSince(t0);
                if (on) {
                    dropped = std::max(dropped, tracer.dropped());
                    sys.attachTracer(nullptr);
                }
            }
            ratios.push_back(traced / plain - 1.0);
        }
        std::sort(ratios.begin(), ratios.end());
        layers["trace.overhead_frac"] = ratios[1];
        layers["trace.dropped"] = static_cast<double>(dropped);
    }

    SystemSpec spec;
    std::uint64_t seed;
    std::uint64_t sysSeed = 0;
    unsigned locationsPerPattern = 0;
    std::size_t oracleSteps = 0;
    HammerConfig cfg;
    std::vector<HammerPattern> patterns;
    std::vector<Step> steps;
};

} // namespace

std::unique_ptr<Workload>
makeSweepDdr4(const Options &opts)
{
    return std::make_unique<SweepDdr4>(opts);
}

} // namespace rhobench
