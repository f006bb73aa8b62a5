#include "hammer/pattern_fuzzer.hh"

#include <sstream>

#include "hammer/sweep.hh"

namespace rho
{

namespace
{

/**
 * Hammer `pattern` at up to `locations` random placements, stopping
 * at the first placement that does not fit (the trial is then
 * unplaceable). Flips and DRAM accesses accumulate; the caller owns
 * the time and device totals.
 */
HammerTrial
hammerAtRandomLocations(HammerSession &session, const HammerPattern &pattern,
                        const HammerConfig &cfg, unsigned locations)
{
    HammerTrial t;
    for (unsigned l = 0; l < locations; ++l) {
        LocationPick pick = session.tryRandomLocation(pattern, cfg);
        if (!pick.ok()) {
            t.unplaceable = 1;
            break;
        }
        HammerOutcome out = session.hammer(pattern, *pick.loc, cfg);
        t.flips += out.flips;
        t.dramAccesses += out.perf.dramAccesses;
    }
    return t;
}

} // namespace

PatternFuzzer::PatternFuzzer(HammerSession &session_, std::uint64_t seed)
    : session(session_), rng(seed)
{
}

bool
FuzzResult::absorb(const HammerTrial &t)
{
    unplaceablePatterns += t.unplaceable;
    if (t.flips > 0) {
        ++effectivePatterns;
        totalFlips += t.flips;
    }
    dramAccesses += t.dramAccesses;
    simTimeNs += t.simTimeNs;
    if (t.flips <= bestPatternFlips)
        return false;
    bestPatternFlips = t.flips;
    return true;
}

void
FuzzResult::checkPlaceable(unsigned trials)
{
    if (trials > 0 && unplaceablePatterns == trials) {
        failure = FailureCode::PatternUnplaceable;
        failureReason =
            "every pattern footprint exceeded the bank's row space";
    }
}

FuzzResult
PatternFuzzer::run(const HammerConfig &cfg, const FuzzParams &params)
{
    FuzzResult res;
    if (std::string err = patternParamsError(params.patternParams);
        !err.empty()) {
        res.failure = FailureCode::InvalidPatternParams;
        res.failureReason = err;
        return res;
    }
    Ns t0 = session.system().now();

    for (unsigned i = 0; i < params.numPatterns; ++i) {
        HammerPattern pattern =
            HammerPattern::randomNonUniform(rng, params.patternParams);
        if (res.absorb(hammerAtRandomLocations(
                session, pattern, cfg, params.locationsPerPattern)))
            res.bestPattern = pattern;
    }
    res.simTimeNs = session.system().now() - t0;
    res.checkPlaceable(params.numPatterns);
    return res;
}

HammerTrial
runHammerTrial(const SystemSpec &spec, const HammerPattern &pattern,
               const HammerConfig &cfg, unsigned locations,
               std::uint64_t task_seed, Tracer *tracer)
{
    MemorySystem sys(spec);
    HammerSession session(sys, task_seed);
    if (tracer)
        sys.attachTracer(tracer);
    Ns t0 = sys.now();
    HammerTrial t =
        hammerAtRandomLocations(session, pattern, cfg, locations);
    t.simTimeNs = sys.now() - t0;
    t.device = DeviceTotals::of(sys.dimm());
    return t;
}

/**
 * The payload is the numeric outcome only; the pattern is a pure
 * function of the campaign and is regenerated on replay. Earlier
 * fuzz formats ("fuzz" .. "fuzz3", without the placement flag) are
 * discarded via the journal kind mismatch.
 */
std::string
serializeTrial(const HammerTrial &t)
{
    std::ostringstream out;
    out << t.flips << " " << t.dramAccesses << " "
        << encodeDouble(t.simTimeNs) << " " << t.device.acts << " "
        << t.device.trrRefreshes << " " << t.device.rfmCommands << " "
        << t.device.pracAlerts << " " << t.unplaceable;
    return out.str();
}

bool
parseTrial(const std::string &payload, HammerTrial &t)
{
    std::istringstream in(payload);
    std::string sim_hex;
    if (!(in >> t.flips >> t.dramAccesses >> sim_hex >> t.device.acts
          >> t.device.trrRefreshes >> t.device.rfmCommands
          >> t.device.pracAlerts >> t.unplaceable))
        return false;
    auto sim = decodeDouble(sim_hex);
    if (!sim)
        return false;
    t.simTimeNs = *sim;
    return true;
}

namespace
{

/**
 * The pattern of the fuzz task seeded `task_seed`. The merge rebuilds
 * the best task's pattern from its seed, so none is stored.
 */
HammerPattern
fuzzPattern(std::uint64_t task_seed, const PatternParams &pp)
{
    Rng pattern_rng(task_seed);
    return HammerPattern::randomNonUniform(pattern_rng, pp);
}

} // namespace

std::uint64_t
fuzzJournalKey(const SystemSpec &spec, const HammerConfig &cfg,
               const FuzzParams &params, std::uint64_t seed)
{
    std::uint64_t key = campaignKey(spec, cfg, seed);
    key = hashCombine(key, params.numPatterns);
    key = hashCombine(key, params.locationsPerPattern);
    return hashPatternParams(key, params.patternParams);
}

FuzzResult
fuzzCampaign(const SystemSpec &spec, const HammerConfig &cfg,
             const FuzzParams &params, std::uint64_t seed,
             ParallelStats *stats, MetricsRegistry *metrics,
             std::vector<TraceEvent> *trace)
{
    FuzzResult res;
    if (std::string err = patternParamsError(params.patternParams);
        !err.empty()) {
        res.failure = FailureCode::InvalidPatternParams;
        res.failureReason = err;
        return res;
    }
    CampaignRunner<HammerTrial> runner(
        {.seed = seed,
         .jobs = params.jobs,
         .taskMask = params.taskMask,
         .trace = &spec.trace,
         .checkpointPath = params.checkpointPath,
         .journalKey = fuzzJournalKey(spec, cfg, params, seed),
         .journal = params.journal},
        {FuzzJournalKind, serializeTrial, parseTrial}, stats, trace);

    std::optional<unsigned> best;
    unsigned merged = runner.run(
        0, params.numPatterns,
        [&](unsigned, std::uint64_t task_seed, Tracer *tracer) {
            return runHammerTrial(
                spec, fuzzPattern(task_seed, params.patternParams), cfg,
                params.locationsPerPattern, task_seed, tracer);
        },
        [&](unsigned i, const HammerTrial &t) {
            if (res.absorb(t))
                best = i;
            if (metrics)
                addTaskMetrics(*metrics, t.device, t.dramAccesses,
                               t.flips);
        });
    if (best) {
        res.bestPattern = fuzzPattern(campaignTaskSeed(seed, *best),
                                      params.patternParams);
    }
    if (metrics)
        metrics->add("campaign.patterns", merged);
    runner.finish(res.simTimeNs);
    res.checkPlaceable(merged);
    return res;
}

} // namespace rho
