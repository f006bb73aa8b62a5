/**
 * @file
 * The fuzzing operation (paper section 4.1): generate pseudo-random
 * non-uniform patterns, trial each at a few physical locations, and
 * track total/best bit flips — the metric reported in Table 6 and
 * Fig. 9.
 *
 * Two drivers are provided:
 *  - PatternFuzzer::run(): the single-session serial path (device
 *    state carries over between patterns);
 *  - fuzzCampaign(): one runHammerTrial() per pattern through the
 *    campaign runner (hammer/campaign.hh); results merge in task
 *    order, so totalFlips / bestPatternFlips and the best-pattern
 *    choice are bit-identical for any `jobs` count.
 */

#ifndef RHO_HAMMER_PATTERN_FUZZER_HH
#define RHO_HAMMER_PATTERN_FUZZER_HH

#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/stats.hh"
#include "hammer/campaign.hh"
#include "hammer/hammer_session.hh"
#include "trace/metrics.hh"

namespace rho
{

/** Journal kind tag for fuzzCampaign() checkpoints. */
inline constexpr const char *FuzzJournalKind = "fuzz4";

/** Fuzzing campaign sizing. */
struct FuzzParams
{
    unsigned numPatterns = 40;
    unsigned locationsPerPattern = 3;
    unsigned jobs = 0; //!< fuzzCampaign() workers; 0 = hw concurrency
    PatternParams patternParams;

    /**
     * When non-empty, completed pattern trials are journaled here and
     * a killed campaign resumes from its last completed task on the
     * next run with the same parameters — merged output stays
     * bit-identical to an uninterrupted run for any `jobs` value.
     * Patterns are not stored: task i's pattern regenerates from
     * Rng(campaignTaskSeed(seed, i)) exactly as the live path builds
     * it.
     */
    std::string checkpointPath;

    /** Durability/fault options for the checkpoint journal. */
    JournalOptions journal{};

    /**
     * Service sharding: when non-null, only tasks with mask[i] != 0
     * execute and merge (see SweepParams::taskMask — same contract,
     * same key-sharing rules).
     */
    const std::vector<std::uint8_t> *taskMask = nullptr;
};

/**
 * One pattern trial on a fresh system: the task of fuzzCampaign() and
 * evolvedFuzzCampaign(), journaled as one record by both.
 */
struct HammerTrial
{
    std::uint64_t flips = 0;
    std::uint64_t dramAccesses = 0;
    unsigned unplaceable = 0; //!< 1 when the pattern did not fit
    Ns simTimeNs = 0.0;
    DeviceTotals device;
};

/**
 * Trial `pattern` at up to `locations` random placements on a fresh
 * system built from `spec`, with the session seeded by `task_seed`,
 * stopping at the first placement that does not fit. `tracer` (may be
 * null) records the trial's events.
 */
HammerTrial runHammerTrial(const SystemSpec &spec,
                           const HammerPattern &pattern,
                           const HammerConfig &cfg, unsigned locations,
                           std::uint64_t task_seed, Tracer *tracer);

/** The trial journal codec ("fuzz4" and "evofuzz1" payloads). */
std::string serializeTrial(const HammerTrial &t);
bool parseTrial(const std::string &payload, HammerTrial &t);

/** Campaign outcome (Table 6 reports totalFlips, bestPatternFlips). */
struct FuzzResult
{
    std::uint64_t totalFlips = 0;      //!< across all effective patterns
    std::uint64_t bestPatternFlips = 0;
    std::optional<HammerPattern> bestPattern;
    unsigned effectivePatterns = 0;    //!< patterns with >=1 flip
    unsigned unplaceablePatterns = 0;  //!< footprint exceeded the bank
    Ns simTimeNs = 0.0;
    std::uint64_t dramAccesses = 0;

    /**
     * InvalidPatternParams when the campaign was rejected before any
     * trial ran (degenerate PatternParams ranges), PatternUnplaceable
     * when every trialled pattern was too wide for the bank; None
     * otherwise. failureReason carries the human-readable detail.
     */
    FailureCode failure = FailureCode::None;
    std::string failureReason;

    bool ok() const { return failure == FailureCode::None; }

    /**
     * Fold one trial into the totals (call in trial order). Returns
     * true when it is the new strict best; the caller then stores its
     * pattern in bestPattern, so the earliest maximum wins.
     */
    bool absorb(const HammerTrial &t);

    /** Flag PatternUnplaceable when all of `trials` (> 0) did not fit. */
    void checkPlaceable(unsigned trials);
};

/** Drives serial fuzzing campaigns over one shared HammerSession. */
class PatternFuzzer
{
  public:
    PatternFuzzer(HammerSession &session, std::uint64_t seed);

    FuzzResult run(const HammerConfig &cfg, const FuzzParams &params);

  private:
    HammerSession &session;
    Rng rng;
};

/**
 * Parallel fuzzing campaign: one independent task per pattern, fanned
 * out over `params.jobs` workers. Pattern i is generated from
 * Rng(campaignTaskSeed(seed, i)) and trialled on a fresh system, so the
 * outcome is a pure function of (spec, cfg, params, seed) no matter
 * how many threads run it.
 *
 * @param stats optional per-campaign scheduling/timing counters.
 * @param metrics optional unified counters (see sweepCampaign);
 *        totals are identical for any `jobs` value.
 * @param trace optional merged event stream; filled only when
 *        spec.trace.enabled (see sweepCampaign for semantics).
 */
FuzzResult fuzzCampaign(const SystemSpec &spec, const HammerConfig &cfg,
                        const FuzzParams &params, std::uint64_t seed,
                        ParallelStats *stats = nullptr,
                        MetricsRegistry *metrics = nullptr,
                        std::vector<TraceEvent> *trace = nullptr);

/**
 * The exact journal key fuzzCampaign() opens its checkpoint with
 * (campaignKey plus the fuzz-specific fields). The service layer uses
 * it to read shard journals and build the merged journal.
 */
std::uint64_t fuzzJournalKey(const SystemSpec &spec,
                             const HammerConfig &cfg,
                             const FuzzParams &params, std::uint64_t seed);

} // namespace rho

#endif // RHO_HAMMER_PATTERN_FUZZER_HH
