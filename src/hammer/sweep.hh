/**
 * @file
 * The sweeping operation (paper sections 4.1 and 5.3): apply one
 * effective pattern at many distinct physical locations, simulating
 * the templating phase of a real exploit and yielding the flip-rate
 * metric of Fig. 11.
 *
 * Two drivers are provided:
 *  - sweep(): the single-session serial path, where TRR/refresh state
 *    carries over between locations (useful for studying state
 *    accumulation on one simulated machine);
 *  - sweepCampaign(): one task per location through the campaign
 *    runner (hammer/campaign.hh), each on its own MemorySystem /
 *    HammerSession; results merge in task order, so output is
 *    bit-identical for any `jobs` count.
 */

#ifndef RHO_HAMMER_SWEEP_HH
#define RHO_HAMMER_SWEEP_HH

#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/stats.hh"
#include "hammer/hammer_session.hh"
#include "trace/metrics.hh"

namespace rho
{

/** Journal kind tag for sweepCampaign() checkpoints. */
inline constexpr const char *SweepJournalKind = "sweep3";

/** Campaign sizing for sweepCampaign(). */
struct SweepParams
{
    unsigned numLocations = 16;
    unsigned jobs = 0; //!< worker threads; 0 = hardware_concurrency

    /**
     * When non-empty, completed tasks are journaled here and a killed
     * campaign resumes from its last completed task on the next run
     * with the same parameters — merged output stays bit-identical to
     * an uninterrupted run for any `jobs` value. A journal written
     * under different campaign parameters is detected and discarded.
     */
    std::string checkpointPath;

    /** Durability/fault options for the checkpoint journal. */
    JournalOptions journal{};

    /**
     * Service sharding: when non-null, only tasks with mask[i] != 0
     * execute and merge; the rest are skipped entirely (no journal
     * record, no merge contribution). The mask is NOT part of the
     * journal key — shards of one campaign share the campaign's key so
     * a supervisor can absorb shard journals into one merged journal.
     * A full mask reproduces the unmasked campaign bit-identically.
     */
    const std::vector<std::uint8_t> *taskMask = nullptr;
};

/** Per-location and cumulative sweep results. */
struct SweepResult
{
    std::vector<std::uint64_t> flipsPerLocation;
    std::vector<Ns> cumulativeTimeNs; //!< after each location
    std::uint64_t totalFlips = 0;
    Ns simTimeNs = 0.0;
    std::vector<FlipRecord> flipList;

    /** Average flips per minute of simulated attack time. */
    double
    flipsPerMinute() const
    {
        return simTimeNs > 0.0
            ? totalFlips / (simTimeNs / 60e9)
            : 0.0;
    }
};

/**
 * The deterministic location schedule shared by both drivers: the
 * bank is drawn from hashCombine(seed, index) and the base row
 * strides the bank space so locations never overlap.
 */
HammerLocation sweepLocationAt(const DimmGeometry &geom,
                               const HammerPattern &pattern,
                               std::uint64_t seed, unsigned index);

/**
 * Sweep a pattern over `num_locations` non-repeating locations on one
 * shared session (serial; device state accumulates across locations).
 * Locations are drawn deterministically from `seed` so different
 * configurations can sweep identical physical rows (the paper
 * controls base addresses when comparing).
 */
SweepResult sweep(HammerSession &session, const HammerPattern &pattern,
                  const HammerConfig &cfg, unsigned num_locations,
                  std::uint64_t seed);

/**
 * Parallel sweep campaign: one independent task per location, fanned
 * out over `params.jobs` workers. Bit-identical results regardless of
 * job count.
 *
 * @param stats optional per-campaign scheduling/timing counters.
 * @param metrics optional unified counters ("dram.acts",
 *        "dram.refreshes.trr", "dram.refreshes.rfm",
 *        "cpu.dram_accesses", "hammer.flips", "campaign.locations",
 *        plus "parallel.*"); totals are merged in task order and are
 *        identical for any `jobs` value and across checkpoint resumes.
 * @param trace optional merged event stream. Filled only when
 *        spec.trace.enabled: each task records into its own Tracer
 *        (tid = task index) and streams concatenate in task order, so
 *        the result is byte-identical for any `jobs` value. Tracing
 *        bypasses checkpoint-journal restores (a restored task has no
 *        events), keeping the stream complete. The stats, metrics and
 *        trace contracts are the campaign runner's (campaign.hh).
 */
SweepResult sweepCampaign(const SystemSpec &spec,
                          const HammerPattern &pattern,
                          const HammerConfig &cfg,
                          const SweepParams &params, std::uint64_t seed,
                          ParallelStats *stats = nullptr,
                          MetricsRegistry *metrics = nullptr,
                          std::vector<TraceEvent> *trace = nullptr);

/**
 * Fingerprint of everything that determines a campaign task's result:
 * platform, DIMM, attack configuration and campaign seed. Checkpoint
 * journals are keyed on this (plus campaign-specific fields) so a
 * stale journal can never be replayed into a different campaign.
 */
std::uint64_t campaignKey(const SystemSpec &spec, const HammerConfig &cfg,
                          std::uint64_t seed);

/**
 * The exact journal key sweepCampaign() opens its checkpoint with
 * (campaignKey plus the sweep-specific fields). The service layer uses
 * it to read shard journals and build the merged journal.
 */
std::uint64_t sweepJournalKey(const SystemSpec &spec,
                              const HammerConfig &cfg,
                              const SweepParams &params,
                              const HammerPattern &pattern,
                              std::uint64_t seed);

} // namespace rho

#endif // RHO_HAMMER_SWEEP_HH
