/**
 * @file
 * bypass_ddr5: the section 6 reproduction. One blind fuzzCampaign per
 * mitigationFrontier() config, from trr-only to rfm-strict+prac, on
 * Raptor Lake + the DDR5 sample DIMM with on-die ECC on (as DDR5 parts
 * ship), over min(nproc, 4) workers. Many mid-size trials, each on a
 * fresh cold system, so per-task setup, fill/verify with ECC decode,
 * RFM/PRAC and the fork-join pool weigh far more here than in
 * sweep_ddr4. Each config is a barrier: its slowest trial sets its
 * wall time.
 */

#include <algorithm>
#include <thread>

#include "common/parallel.hh"
#include "hammer/bypass_search.hh"
#include "hammer/tuned_configs.hh"
#include "workload.hh"

namespace rhobench
{

using namespace rho;

namespace
{

class BypassDdr5 : public Workload
{
  public:
    explicit BypassDdr5(const Options &opts) : seed(opts.seed)
    {
        const bool tiny = opts.size == Size::Tiny;
        frontier = mitigationFrontier();
        for (const MitigationConfig &mit : frontier) {
            SystemSpec spec(Arch::RaptorLake, DimmProfile::ddr5Sample(),
                            mit.trr, mit.rfm);
            spec.prac = mit.prac;
            spec.ecc.enabled = true;
            specs.push_back(spec);
        }
        cfg = rhoConfig(Arch::RaptorLake, true, tiny ? 20000 : 100000);
        unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        params.jobs = std::min(hw, 4u);
        params.numPatterns = tiny ? 2 : 32;
        params.locationsPerPattern = tiny ? 1 : 2;
        campaignSeed = hashCombine(seed, 0xb1a5);
    }

    void
    warmUp() override
    {
        // Grows every worker's allocator arena once, so the first
        // timed campaign does not pay for it.
        FuzzParams warm = params;
        warm.numPatterns = 16;
        fuzzCampaign(specs.front(), cfg, warm,
                     hashCombine(campaignSeed, 0xa));
    }

    RepResult
    runRep() override
    {
        RepResult r;
        for (const SystemSpec &spec : specs) {
            ParallelStats st;
            MetricsRegistry m;
            FuzzResult fr =
                fuzzCampaign(spec, cfg, params, campaignSeed, &st, &m);
            Unit u;
            u.digest = campaignDigest(fr, m);
            u.ops = params.numPatterns;
            u.failedOps = fr.ok() ? fr.unplaceablePatterns : u.ops;
            r.units.push_back(u);
            r.acts += m.value("dram.acts");
            r.trrRefreshes += m.value("dram.refreshes.trr");
            r.rfmCommands += m.value("dram.refreshes.rfm");
            r.pracAlerts += m.value("dram.alerts.prac");
            r.flips += fr.totalFlips;
            r.trials += params.numPatterns;
            r.effective += fr.effectivePatterns;
            r.poolTaskMs += st.taskWallMs.sum();
            r.poolCapacityMs += st.jobs * st.wallNs / 1e6;
            r.poolTasks += st.tasksRun;
            r.poolSteals += st.steals;
        }
        return r;
    }

    std::vector<UnitDigest>
    oracle() override
    {
        // Held-out slice: one whole frontier config, rotating with the
        // seed.
        std::size_t c = seed % specs.size();
        SystemSpec ref = specs[c];
        ref.referenceRowStore = true;
        ref.cpuModel = CpuModelKind::Reference;
        MetricsRegistry m;
        FuzzResult fr =
            fuzzCampaign(ref, cfg, params, campaignSeed, nullptr, &m);
        return {{c, campaignDigest(fr, m)}};
    }

    TracedResult
    traced(const RepResult &, SpanRecorder &spans) override
    {
        TracedResult res;
        HammerTally tally;
        DeviceCosts dev;
        for (std::size_t c = 0; c < specs.size(); ++c) {
            unsigned k = static_cast<unsigned>(hashCombine(seed, c)
                                               % params.numPatterns);
            std::uint64_t t0 = nowNs();
            std::uint64_t untraced = untracedTrial(specs[c], k);
            res.untracedS += secondsSince(t0);

            std::size_t from = tally.stream.size();
            double record_ns = tally.recordNs;
            t0 = nowNs();
            std::uint64_t traced = tracedTrial(specs[c], k, spans, tally);
            res.tracedS +=
                secondsSince(t0) - (tally.recordNs - record_ns) * 1e-9;
            res.checks.push_back({traced, untraced});

            std::vector<Command> trial(tally.stream.begin() + from,
                                       tally.stream.end());
            dev.add(specs[c], trial);
        }

        reportHammerLayers(tally, spans, res.layers);
        dev.report(res.layers);
        return res;
    }

    Manifest
    manifest() const override
    {
        std::string names;
        for (const MitigationConfig &mit : frontier) {
            if (!names.empty())
                names += '|';
            names += mit.name;
        }
        return {
            {"arch", archName(Arch::RaptorLake)},
            {"dimm", DimmProfile::ddr5Sample().id},
            {"mitigations", names},
            {"ecc", "on-die SEC, 16-byte codewords"},
            {"cpu_engine", "blocked"},
            {"row_store", "flat"},
            {"jobs", std::to_string(params.jobs)},
            {"patterns_per_config", std::to_string(params.numPatterns)},
            {"locations_per_pattern",
             std::to_string(params.locationsPerPattern)},
            {"access_budget", std::to_string(cfg.accessBudget)},
        };
    }

  private:
    static std::uint64_t
    campaignDigest(const FuzzResult &fr, const MetricsRegistry &m)
    {
        Digest d;
        d.add(fr.totalFlips);
        d.add(fr.bestPatternFlips);
        d.add(fr.bestPattern ? fr.bestPattern->id() : 0);
        d.add(fr.effectivePatterns);
        d.add(fr.unplaceablePatterns);
        d.addDouble(fr.simTimeNs);
        d.add(fr.dramAccesses);
        d.add(static_cast<std::uint64_t>(fr.failure));
        for (const auto &[name, v] : m.all()) {
            for (char ch : name)
                d.add(static_cast<std::uint64_t>(ch));
            d.add(v);
        }
        return d.value();
    }

    static std::uint64_t
    trialDigest(std::uint64_t flips, std::uint64_t dram_accesses, Ns sim_ns,
                std::uint64_t acts, std::uint64_t trr, std::uint64_t rfm,
                std::uint64_t prac, std::uint64_t unplaceable)
    {
        Digest d;
        d.add(flips);
        d.add(dram_accesses);
        d.addDouble(sim_ns);
        d.add(acts);
        d.add(trr);
        d.add(rfm);
        d.add(prac);
        d.add(unplaceable);
        return d.value();
    }

    /** Trial k of a config, run alone by the real campaign engine. */
    std::uint64_t
    untracedTrial(const SystemSpec &spec, unsigned k)
    {
        std::vector<std::uint8_t> mask(params.numPatterns, 0);
        mask[k] = 1;
        FuzzParams one = params;
        one.taskMask = &mask;
        one.jobs = 1;
        MetricsRegistry m;
        FuzzResult fr = fuzzCampaign(spec, cfg, one, campaignSeed, nullptr,
                                     &m);
        return trialDigest(fr.totalFlips, fr.dramAccesses, fr.simTimeNs,
                           m.value("dram.acts"),
                           m.value("dram.refreshes.trr"),
                           m.value("dram.refreshes.rfm"),
                           m.value("dram.alerts.prac"),
                           fr.unplaceablePatterns);
    }

    /** The same trial rebuilt from public calls, with spans. */
    std::uint64_t
    tracedTrial(const SystemSpec &spec, unsigned k, SpanRecorder &spans,
                HammerTally &tally)
    {
        std::uint64_t task_seed = hashCombine(campaignSeed, k);
        ScopedSpan trial(spans, "hammer.trial");
        std::int32_t gen = spans.begin("hammer.pattern_gen");
        Rng pattern_rng(task_seed);
        HammerPattern pattern = HammerPattern::randomNonUniform(
            pattern_rng, params.patternParams);
        spans.end(gen);
        std::int32_t inst = spans.begin("memsys.instantiate");
        MemorySystem sys = spec.instantiate(task_seed);
        spans.end(inst);
        HammerSession session(sys, task_seed);

        Ns t0 = sys.now();
        std::uint64_t flips = 0, dram_accesses = 0, unplaceable = 0;
        for (unsigned l = 0; l < params.locationsPerPattern; ++l) {
            LocationPick pick = session.tryRandomLocation(pattern, cfg);
            if (!pick.ok()) {
                unplaceable = 1;
                break;
            }
            HammerOutcome out =
                tracedHammer(session, pattern, *pick.loc, cfg, spans, tally);
            flips += out.flips;
            dram_accesses += out.perf.dramAccesses;
        }
        const Dimm &dimm = sys.dimm();
        return trialDigest(flips, dram_accesses,
                           sys.now() - t0, dimm.totalActs(),
                           dimm.trrRefreshCount(), dimm.rfmCommandCount(),
                           dimm.pracAlertCount(), unplaceable);
    }

    std::uint64_t seed;
    std::uint64_t campaignSeed = 0;
    std::vector<MitigationConfig> frontier;
    std::vector<SystemSpec> specs;
    HammerConfig cfg;
    FuzzParams params;
};

} // namespace

std::unique_ptr<Workload>
makeBypassDdr5(const Options &opts)
{
    return std::make_unique<BypassDdr5>(opts);
}

} // namespace rhobench
