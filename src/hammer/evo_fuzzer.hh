/**
 * @file
 * Evolutionary pattern search: a feedback-driven alternative to the
 * blind sampler in pattern_fuzzer. Generations of genome-backed
 * patterns (hammer/pattern PairGene) are evaluated on the device
 * model, then bred — elitism keeps the strongest genomes verbatim,
 * tournament selection picks parents, and uniform crossover plus
 * point mutation produce the next generation. Fitness feeds on the
 * observed device response: bit flips first, then TRR sampler churn
 * (targeted refreshes the pattern provoked — a pattern the sampler
 * chases is learning the sampler's blind spots), then raw activations.
 *
 * Determinism contract (the campaign runner's, hammer/campaign.hh):
 * all genetics (seeding, selection, breeding) run serially on a master
 * Rng derived from the campaign seed, and each generation is one
 * runner round over trial indices generation * populationSize +
 * individual, each a runHammerTrial() seeded campaignTaskSeed(seed,
 * trial_index). Results merge in trial order, so the search is
 * bit-identical for any `jobs` value.
 *
 * Resume contract: each evaluated trial is journaled exactly like a
 * fuzz task, and each generation's population digest is the runner's
 * phase gate (a `meta` record). On resume the digest is recomputed
 * from the replayed genetics and must match the journaled one before
 * any of that generation's trial records are trusted — a mismatch
 * (journal from a diverged trajectory) falls back to live evaluation
 * from that generation on.
 */

#ifndef RHO_HAMMER_EVO_FUZZER_HH
#define RHO_HAMMER_EVO_FUZZER_HH

#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/stats.hh"
#include "hammer/hammer_session.hh"
#include "hammer/pattern_fuzzer.hh"
#include "trace/metrics.hh"

namespace rho
{

/** Journal kind tag for evolvedFuzzCampaign() checkpoints. */
inline constexpr const char *EvoJournalKind = "evofuzz1";

/** Evolutionary search sizing and genetics knobs. */
struct EvoParams
{
    unsigned populationSize = 10;
    unsigned generations = 4;
    unsigned elites = 2;        //!< copied unchanged into the next gen
    unsigned tournamentSize = 3;
    double crossoverProb = 0.6; //!< child from two parents vs one
    double immigrantProb = 0.15; //!< fresh random genome per child slot

    unsigned locationsPerPattern = 3;
    unsigned jobs = 0; //!< evaluation workers; 0 = hw concurrency
    PatternParams patternParams;

    /**
     * When non-empty, trial outcomes and generation digests journal
     * here; a killed search resumes bit-identically (see file
     * comment). Same path conventions as FuzzParams::checkpointPath.
     */
    std::string checkpointPath;
    JournalOptions journal{};

    /** Trials this search will run (the blind-sampler equivalent of
     *  FuzzParams::numPatterns, for equal-budget comparisons). */
    unsigned trialBudget() const { return populationSize * generations; }
};

/**
 * Merged outcome of an evolutionary search: the blind campaign's
 * totals (effective/unplaceable counts are per trial) plus the
 * search's own progress.
 */
struct EvoResult : FuzzResult
{
    std::uint64_t trialsRun = 0;    //!< evaluations merged (all gens)

    /** Best per-trial flip count seen up to and including each
     *  generation — the search's learning curve. */
    std::vector<std::uint64_t> bestFlipsPerGeneration;
};

/**
 * Rejection reason for degenerate EvoParams ("" when usable): checks
 * patternParamsError plus the genetics knobs (population/generation
 * counts, elite count below the population, tournament size,
 * probabilities in [0, 1]).
 */
std::string evoParamsError(const EvoParams &params);

/**
 * Run the evolutionary search against one system configuration.
 * Deterministic for (spec, cfg, params, seed) — any jobs value, any
 * kill/resume point (see file comment).
 *
 * @param stats optional scheduling counters, accumulated across
 *        generations (tasksRun excludes journal-restored trials).
 * @param metrics optional unified counters (same keys as
 *        fuzzCampaign, plus "campaign.generations").
 */
EvoResult evolvedFuzzCampaign(const SystemSpec &spec,
                              const HammerConfig &cfg,
                              const EvoParams &params, std::uint64_t seed,
                              ParallelStats *stats = nullptr,
                              MetricsRegistry *metrics = nullptr);

/** The journal key evolvedFuzzCampaign() opens its checkpoint with. */
std::uint64_t evoJournalKey(const SystemSpec &spec,
                            const HammerConfig &cfg,
                            const EvoParams &params, std::uint64_t seed);

} // namespace rho

#endif // RHO_HAMMER_EVO_FUZZER_HH
