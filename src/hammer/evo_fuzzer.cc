#include "hammer/evo_fuzzer.hh"

#include <algorithm>
#include <numeric>

#include "common/table.hh"
#include "hammer/sweep.hh"

namespace rho
{

std::string
evoParamsError(const EvoParams &params)
{
    std::string pattern_err = patternParamsError(params.patternParams);
    if (!pattern_err.empty())
        return pattern_err;
    if (params.populationSize < 1)
        return "populationSize must be >= 1";
    if (params.generations < 1)
        return "generations must be >= 1";
    if (params.elites >= params.populationSize)
        return strFormat("elites (%u) must be < populationSize (%u)",
                         params.elites, params.populationSize);
    if (params.tournamentSize < 1)
        return "tournamentSize must be >= 1";
    if (params.crossoverProb < 0.0 || params.crossoverProb > 1.0)
        return "crossoverProb must be in [0, 1]";
    if (params.immigrantProb < 0.0 || params.immigrantProb > 1.0)
        return "immigrantProb must be in [0, 1]";
    return "";
}

namespace
{

/**
 * Fitness of one evaluated genome: flips dominate, then TRR sampler
 * churn (a pattern the sampler keeps chasing has found the decoy
 * balance the next mutation can exploit), then raw activations (a
 * throughput proxy — patterns that stall the bus breed out).
 */
struct Fitness
{
    std::uint64_t flips = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t acts = 0;

    bool
    operator<(const Fitness &o) const
    {
        if (flips != o.flips)
            return flips < o.flips;
        if (trrRefreshes != o.trrRefreshes)
            return trrRefreshes < o.trrRefreshes;
        return acts < o.acts;
    }
};

/** Order-sensitive digest of a generation's genomes. */
std::uint64_t
populationDigest(unsigned generation,
                 const std::vector<HammerPattern> &pop)
{
    std::uint64_t d = hashCombine(0xe70d16e5ULL, generation);
    for (const HammerPattern &p : pop) {
        d = hashCombine(d, p.id());
        d = hashCombine(d, p.genomeFingerprint());
    }
    return d;
}

} // namespace

std::uint64_t
evoJournalKey(const SystemSpec &spec, const HammerConfig &cfg,
              const EvoParams &params, std::uint64_t seed)
{
    std::uint64_t key = campaignKey(spec, cfg, seed);
    key = hashCombine(key, 0xe70ULL);
    key = hashCombine(key, params.populationSize);
    key = hashCombine(key, params.generations);
    key = hashCombine(key, params.elites);
    key = hashCombine(key, params.tournamentSize);
    key = hashCombine(key, std::bit_cast<std::uint64_t>(
                               params.crossoverProb));
    key = hashCombine(key, std::bit_cast<std::uint64_t>(
                               params.immigrantProb));
    key = hashCombine(key, params.locationsPerPattern);
    return hashPatternParams(key, params.patternParams);
}

EvoResult
evolvedFuzzCampaign(const SystemSpec &spec, const HammerConfig &cfg,
                    const EvoParams &params, std::uint64_t seed,
                    ParallelStats *stats, MetricsRegistry *metrics)
{
    EvoResult res;
    if (std::string err = evoParamsError(params); !err.empty()) {
        res.failure = FailureCode::InvalidPatternParams;
        res.failureReason = err;
        return res;
    }
    CampaignRunner<HammerTrial> runner(
        {.seed = seed,
         .jobs = params.jobs,
         .checkpointPath = params.checkpointPath,
         .journalKey = evoJournalKey(spec, cfg, params, seed),
         .journal = params.journal},
        {EvoJournalKind, serializeTrial, parseTrial}, stats, nullptr);

    const unsigned pop_size = params.populationSize;
    const PatternParams &pp = params.patternParams;

    // Master rng: ALL genetics draw from here, serially, so the
    // trajectory is a pure function of (seed, restored fitness) no
    // matter how the evaluations are scheduled.
    Rng evo(hashCombine(seed, 0xe701ULL));

    std::vector<HammerPattern> pop;
    pop.reserve(pop_size);
    for (unsigned j = 0; j < pop_size; ++j) {
        HammerPattern p = HammerPattern::randomGenome(evo, pp);
        if (j % 2 == 0) {
            // Anchor half the seed population on the uniform-stride
            // layout the blind sampler uses: disjoint pairs with
            // sandwiched victims are a known-good geometry, so
            // evolution starts at the blind baseline and explores
            // spread offsets from there instead of having to
            // rediscover non-overlapping placements.
            std::vector<PairGene> genome = p.genome();
            for (unsigned k = 0; k < genome.size(); ++k)
                genome[k].rowOffset =
                    std::min(k * p.stride(), pp.maxRowSpread);
            p = HammerPattern::fromGenome(
                p.id(), static_cast<unsigned>(p.slots().size()),
                std::move(genome));
        }
        pop.push_back(std::move(p));
    }

    auto tournament = [&](const std::vector<Fitness> &fit) -> unsigned {
        unsigned best = static_cast<unsigned>(
            evo.uniformInt(0, pop_size - 1));
        for (unsigned k = 1; k < params.tournamentSize; ++k) {
            unsigned c = static_cast<unsigned>(
                evo.uniformInt(0, pop_size - 1));
            if (fit[best] < fit[c])
                best = c;
        }
        return best;
    };

    for (unsigned g = 0; g < params.generations; ++g) {
        // Restored trial records are trusted only while every
        // generation digest matches the replayed trajectory; after a
        // mismatch the journal is from a diverged run and the tail
        // re-executes live.
        runner.gate(g, strFormat("%016llx", (unsigned long long)
                                                populationDigest(g, pop)));

        // Merge in trial order: the earliest strict maximum (across
        // the whole search) keeps the best-pattern slot.
        std::vector<Fitness> fit(pop_size);
        res.trialsRun += runner.run(
            g * pop_size, pop_size,
            [&](unsigned j, std::uint64_t task_seed, Tracer *) {
                return runHammerTrial(spec, pop[j], cfg,
                                      params.locationsPerPattern,
                                      task_seed, nullptr);
            },
            [&](unsigned j, const HammerTrial &t) {
                if (res.absorb(t))
                    res.bestPattern = pop[j];
                fit[j] = Fitness{t.flips, t.device.trrRefreshes,
                                 t.device.acts};
                if (metrics)
                    addTaskMetrics(*metrics, t.device, t.dramAccesses,
                                   t.flips);
            });
        res.bestFlipsPerGeneration.push_back(res.bestPatternFlips);

        if (g + 1 == params.generations)
            break;

        // Breed the next generation (serial; master rng only).
        std::vector<unsigned> order(pop_size);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return fit[b] < fit[a];
                         });
        std::vector<HammerPattern> next;
        next.reserve(pop_size);
        for (unsigned e = 0; e < params.elites; ++e)
            next.push_back(pop[order[e]]);
        while (next.size() < pop_size) {
            if (evo.chance(params.immigrantProb)) {
                next.push_back(HammerPattern::randomGenome(evo, pp));
                continue;
            }
            unsigned a = tournament(fit);
            if (evo.chance(params.crossoverProb)) {
                unsigned b = tournament(fit);
                HammerPattern child =
                    HammerPattern::crossover(evo, pop[a], pop[b]);
                next.push_back(child.mutate(evo, pp));
            } else {
                next.push_back(pop[a].mutate(evo, pp));
            }
        }
        pop = std::move(next);
    }

    runner.finish(res.simTimeNs);
    if (metrics) {
        metrics->add("campaign.patterns", res.trialsRun);
        metrics->add("campaign.generations", params.generations);
    }
    res.checkPlaceable(static_cast<unsigned>(res.trialsRun));
    return res;
}

} // namespace rho
