/**
 * @file
 * Mitigation-bypass search (paper section 6): drive the non-uniform
 * pattern fuzzer against a frontier of mitigation configurations —
 * DDR4-style TRR alone, DDR5 RFM at several strictness levels, and
 * PRAC/ABO at several thresholds — hunting for patterns that still
 * produce flips.
 *
 * The search reuses the parallel campaign engine unchanged: each
 * configuration is one fuzzCampaign() whose outcome is a pure function
 * of (spec, cfg, params, seed), so the whole search is bit-identical
 * for any --jobs value and survives kill/resume via per-configuration
 * checkpoint journals.
 */

#ifndef RHO_HAMMER_BYPASS_SEARCH_HH
#define RHO_HAMMER_BYPASS_SEARCH_HH

#include <string>
#include <vector>

#include "hammer/evo_fuzzer.hh"
#include "hammer/pattern_fuzzer.hh"
#include "memsys/memory_system.hh"

namespace rho
{

/** One point on the mitigation frontier. */
struct MitigationConfig
{
    std::string name;  //!< stable identifier ("trr-only", "rfm-strict")
    TrrConfig trr{};   //!< in-DRAM sampler settings
    RfmConfig rfm{};   //!< refresh-management settings
    PracConfig prac{}; //!< per-row activation counting settings
};

/**
 * The standard frontier evaluated by the section 6 bench: TRR alone
 * (the DDR4 baseline the paper's patterns evade), RFM at each level,
 * PRAC at a production threshold and a deliberately weak one, and the
 * combined RFM+PRAC endpoint. TRR stays enabled in every DDR5 config —
 * RFM and PRAC are additions to the sampler, not replacements.
 */
std::vector<MitigationConfig> mitigationFrontier();

/** Which pattern-search engine drives the per-config campaign. */
enum class BypassEngine : std::uint8_t
{
    Blind,   //!< pattern_fuzzer: independent random patterns
    Evolved, //!< evo_fuzzer: feedback-driven generational search
};

/** Short display name ("blind", "evolved"). */
const char *bypassEngineName(BypassEngine engine);

/** Outcome of fuzzing one mitigation configuration. */
struct BypassConfigResult
{
    std::string name;                 //!< MitigationConfig::name
    FuzzResult fuzz;                  //!< merged campaign outcome
    std::uint64_t acts = 0;           //!< device ACT total
    std::uint64_t trrRefreshes = 0;   //!< targeted refreshes issued
    std::uint64_t rfmCommands = 0;    //!< RFM commands fired
    std::uint64_t pracAlerts = 0;     //!< ALERT_n assertions
    double flipsPerMinute = 0.0;      //!< flips over simulated minutes
    bool bypassed = false;            //!< some pattern produced a flip
    std::uint64_t trialsRun = 0;      //!< pattern evaluations merged

    /** Evolved engine only: the per-generation learning curve
     *  (EvoResult::bestFlipsPerGeneration); empty for Blind. */
    std::vector<std::uint64_t> generationBestFlips;
};

/** Sizing of one bypass search. */
struct BypassParams
{
    FuzzParams fuzz; //!< per-config campaign sizing (checkpointPath is
                     //!< treated as a base name; each configuration
                     //!< journals to "<base>.<config-name>")

    /**
     * Evolved-engine sizing (used when engine == Evolved). Its
     * checkpointPath/journal/jobs/patternParams are taken from
     * here, not from `fuzz` — the two engines journal under different
     * kinds and must not share files.
     */
    EvoParams evo;

    BypassEngine engine = BypassEngine::Blind;
    std::uint64_t seed = 1;
};

/** Full search outcome, one entry per frontier point, input order. */
struct BypassReport
{
    std::vector<BypassConfigResult> configs;

    /**
     * First per-config campaign failure (invalid params, all patterns
     * unplaceable); None when every campaign ran. Individual configs
     * carry their own code in configs[i].fuzz.failure.
     */
    FailureCode failure = FailureCode::None;
    std::string failureReason;

    bool ok() const { return failure == FailureCode::None; }

    /** Configs where at least one fuzzed pattern flipped a bit. */
    unsigned
    bypassedCount() const
    {
        unsigned n = 0;
        for (const auto &c : configs)
            n += c.bypassed ? 1 : 0;
        return n;
    }
};

/**
 * Run the fuzzer against each mitigation configuration on one
 * machine. Deterministic: every configuration's campaign derives its
 * task seeds from campaignTaskSeed(params.seed, task_index) on a fresh
 * system, so the report is bit-identical for any fuzz.jobs value and
 * across checkpoint/resume.
 *
 * @param metrics optional; per-config counters are recorded under
 *        "bypass.<config-name>." prefixes plus the unified totals.
 */
BypassReport bypassSearch(Arch arch, const DimmProfile &dimm,
                          const HammerConfig &cfg,
                          const std::vector<MitigationConfig> &frontier,
                          const BypassParams &params,
                          MetricsRegistry *metrics = nullptr);

/**
 * Render the bypass-boundary table comparing the blind sampler and the
 * evolved search over the same frontier at equal trial budgets: per
 * config, each engine's total/best flips, the evolved learning curve,
 * the defense's visible reaction (RFM commands, ALERT_n assertions —
 * from the evolved run), and a verdict:
 *
 *   open      — both engines flip bits (the defense is below the
 *               boundary for any search strategy)
 *   evo-only  — only the evolved search flips bits (the boundary
 *               sits between blind and feedback-driven search)
 *   blind-only— only the blind sampler flips bits (rare; sampling
 *               luck at small budgets)
 *   sealed    — neither engine flips a bit
 *
 * `blind` and `evolved` must cover the same configs in the same
 * order. The string is deterministic (golden-testable).
 */
std::string renderBypassBoundary(const BypassReport &blind,
                                 const BypassReport &evolved);

} // namespace rho

#endif // RHO_HAMMER_BYPASS_SEARCH_HH
