#include "hammer/bypass_search.hh"

#include "common/logging.hh"
#include "common/table.hh"

namespace rho
{

const char *
bypassEngineName(BypassEngine engine)
{
    switch (engine) {
      case BypassEngine::Blind: return "blind";
      case BypassEngine::Evolved: return "evolved";
    }
    return "unknown";
}

std::vector<MitigationConfig>
mitigationFrontier()
{
    std::vector<MitigationConfig> frontier;

    // DDR4 baseline: the probabilistic sampler alone. Non-uniform
    // fuzzing finds patterns that evade it (paper Table 6).
    {
        MitigationConfig c;
        c.name = "trr-only";
        frontier.push_back(c);
    }

    for (RfmLevel level :
         {RfmLevel::Relaxed, RfmLevel::Default, RfmLevel::Strict}) {
        MitigationConfig c;
        c.name = std::string("rfm-") + rfmLevelName(level);
        c.rfm = RfmConfig::forLevel(level);
        frontier.push_back(c);
    }

    // Deliberately weak PRAC: the threshold sits above the weakest
    // cells' flip threshold, so the exact counters fire too late and
    // fuzzing can still find flips. Included so the bench demonstrates
    // that PRAC's guarantee is conditional on correct provisioning.
    {
        MitigationConfig c;
        c.name = "prac-weak";
        c.prac.enabled = true;
        c.prac.threshold = 8192;
        frontier.push_back(c);
    }

    // Correctly provisioned PRAC: threshold well below the minimum
    // hammer count, so no row can accumulate a flipping disturbance
    // between ALERT services.
    {
        MitigationConfig c;
        c.name = "prac-512";
        c.prac.enabled = true;
        c.prac.threshold = 512;
        frontier.push_back(c);
    }

    // Belt and braces: strict RFM plus provisioned PRAC.
    {
        MitigationConfig c;
        c.name = "rfm-strict+prac";
        c.rfm = RfmConfig::forLevel(RfmLevel::Strict);
        c.prac.enabled = true;
        c.prac.threshold = 512;
        frontier.push_back(c);
    }

    return frontier;
}

BypassReport
bypassSearch(Arch arch, const DimmProfile &dimm, const HammerConfig &cfg,
             const std::vector<MitigationConfig> &frontier,
             const BypassParams &params, MetricsRegistry *metrics)
{
    BypassReport report;
    report.configs.reserve(frontier.size());

    for (const MitigationConfig &mit : frontier) {
        SystemSpec spec(arch, dimm, mit.trr, mit.rfm);
        spec.prac = mit.prac;

        MetricsRegistry local;
        BypassConfigResult r;
        r.name = mit.name;
        if (params.engine == BypassEngine::Blind) {
            FuzzParams fuzz = params.fuzz;
            // One journal file per frontier point: the journal header
            // carries a single campaign key, so sharing one file
            // across configurations would discard the previous
            // configuration's records on every switch.
            if (!fuzz.checkpointPath.empty())
                fuzz.checkpointPath += "." + mit.name;
            r.fuzz = fuzzCampaign(spec, cfg, fuzz, params.seed, nullptr,
                                  &local);
            r.trialsRun = r.fuzz.failure == FailureCode::None
                              ? params.fuzz.numPatterns
                              : 0;
        } else {
            EvoParams evo = params.evo;
            if (!evo.checkpointPath.empty())
                evo.checkpointPath += "." + mit.name;
            EvoResult er = evolvedFuzzCampaign(spec, cfg, evo,
                                               params.seed, nullptr,
                                               &local);
            r.trialsRun = er.trialsRun;
            r.generationBestFlips = std::move(er.bestFlipsPerGeneration);
            r.fuzz = std::move(er); // the FuzzResult part of both engines
        }
        if (r.fuzz.failure != FailureCode::None &&
            report.failure == FailureCode::None) {
            report.failure = r.fuzz.failure;
            report.failureReason =
                mit.name + ": " + r.fuzz.failureReason;
        }
        r.acts = local.value("dram.acts");
        r.trrRefreshes = local.value("dram.refreshes.trr");
        r.rfmCommands = local.value("dram.refreshes.rfm");
        r.pracAlerts = local.value("dram.alerts.prac");
        r.bypassed = r.fuzz.totalFlips > 0;
        if (r.fuzz.simTimeNs > 0.0) {
            r.flipsPerMinute = static_cast<double>(r.fuzz.totalFlips)
                / (r.fuzz.simTimeNs / 6.0e10);
        }

        if (metrics) {
            metrics->merge(local);
            const std::string p = "bypass." + mit.name + ".";
            metrics->set(p + "flips", r.fuzz.totalFlips);
            metrics->set(p + "effective_patterns",
                         r.fuzz.effectivePatterns);
            metrics->set(p + "rfm_commands", r.rfmCommands);
            metrics->set(p + "prac_alerts", r.pracAlerts);
            metrics->set(p + "bypassed", r.bypassed ? 1 : 0);
        }
        report.configs.push_back(std::move(r));
    }
    return report;
}

std::string
renderBypassBoundary(const BypassReport &blind,
                     const BypassReport &evolved)
{
    if (blind.configs.size() != evolved.configs.size())
        panic("renderBypassBoundary: reports cover different frontiers");

    TextTable table({"config", "blind flips", "blind best", "evo flips",
                     "evo best", "evo curve", "RFMs", "ALERTn",
                     "verdict"});
    for (std::size_t i = 0; i < blind.configs.size(); ++i) {
        const BypassConfigResult &b = blind.configs[i];
        const BypassConfigResult &e = evolved.configs[i];
        if (b.name != e.name)
            panic("renderBypassBoundary: config order mismatch (%s vs "
                  "%s)",
                  b.name.c_str(), e.name.c_str());

        std::string curve;
        for (std::uint64_t f : e.generationBestFlips) {
            if (!curve.empty())
                curve += "-";
            curve += strFormat("%llu", (unsigned long long)f);
        }
        if (curve.empty())
            curve = "n/a";

        const char *verdict;
        if (b.bypassed && e.bypassed)
            verdict = "open";
        else if (e.bypassed)
            verdict = "evo-only";
        else if (b.bypassed)
            verdict = "blind-only";
        else
            verdict = "sealed";

        table.addRow(
            {b.name,
             strFormat("%llu", (unsigned long long)b.fuzz.totalFlips),
             strFormat("%llu",
                       (unsigned long long)b.fuzz.bestPatternFlips),
             strFormat("%llu", (unsigned long long)e.fuzz.totalFlips),
             strFormat("%llu",
                       (unsigned long long)e.fuzz.bestPatternFlips),
             curve, strFormat("%llu", (unsigned long long)e.rfmCommands),
             strFormat("%llu", (unsigned long long)e.pracAlerts),
             verdict});
    }
    return table.render();
}

} // namespace rho
