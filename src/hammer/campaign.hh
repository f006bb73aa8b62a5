/**
 * @file
 * The campaign runner: the one engine behind every campaign kind
 * (sweepCampaign, fuzzCampaign, evolvedFuzzCampaign, crossVmCampaign
 * and, through them, the service layer).
 *
 * A campaign is a range of independent tasks. Each kind supplies only
 * what differs — the task body, the journal codec and the merge — and
 * the runner owns the contract:
 *
 *  - a task masked out by a service shard is skipped entirely: it does
 *    not run, is not journaled, merges nothing and is not counted;
 *  - a journaled task is restored from its record instead of run,
 *    unless the campaign is tracing (a restored task has no events) or
 *    a phase gate found the journal from a diverged run;
 *  - task index i is seeded campaignTaskSeed(seed, i) on a fresh
 *    system and, when tracing, records into its own Tracer with
 *    tid = i;
 *  - every executed task is journaled as soon as it finishes, so a
 *    kill loses at most the tasks in flight;
 *  - live tasks fan out through parallelMapOrdered();
 *  - ParallelStats count executed tasks (tasksRun, taskWallMs) and
 *    restored ones (tasksRestored) separately;
 *  - results and trace streams merge in index order.
 *
 * The merged output is therefore bit-identical for any `jobs` value,
 * any kill/resume point and any shard layout.
 */

#ifndef RHO_HAMMER_CAMPAIGN_HH
#define RHO_HAMMER_CAMPAIGN_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "dram/dimm.hh"
#include "trace/metrics.hh"
#include "trace/tracer.hh"

namespace rho
{

/** The seed of campaign task `index`: a pure function of both. */
inline std::uint64_t
campaignTaskSeed(std::uint64_t seed, unsigned index)
{
    return hashCombine(seed, index);
}

/**
 * Device counters every hammer task reports. They are journaled, so a
 * restored task contributes the same metrics as a live one.
 */
struct DeviceTotals
{
    std::uint64_t acts = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t rfmCommands = 0;
    std::uint64_t pracAlerts = 0;

    static DeviceTotals
    of(const Dimm &dimm)
    {
        return {dimm.totalActs(), dimm.trrRefreshCount(),
                dimm.rfmCommandCount(), dimm.pracAlertCount()};
    }
};

/** The unified per-task counters every hammer campaign reports. */
inline void
addTaskMetrics(MetricsRegistry &metrics, const DeviceTotals &dev,
               std::uint64_t dram_accesses, std::uint64_t flips)
{
    metrics.add("dram.acts", dev.acts);
    metrics.add("dram.refreshes.trr", dev.trrRefreshes);
    metrics.add("dram.refreshes.rfm", dev.rfmCommands);
    metrics.add("dram.alerts.prac", dev.pracAlerts);
    metrics.add("cpu.dram_accesses", dram_accesses);
    metrics.add("hammer.flips", flips);
}

/** How one campaign kind's task result round-trips through a journal. */
template <typename Result>
struct TaskCodec
{
    const char *kind = ""; //!< journal kind tag ("sweep3", "fuzz4", ...)
    std::string (*serialize)(const Result &) = nullptr;
    bool (*parse)(const std::string &payload, Result &out) = nullptr;
};

/** Campaign-wide inputs of the runner. */
struct CampaignSetup
{
    std::uint64_t seed = 0;
    unsigned jobs = 0; //!< worker threads; 0 = hardware_concurrency
    /** Service shard mask (see SweepParams::taskMask); null = all. */
    const std::vector<std::uint8_t> *taskMask = nullptr;
    /** Per-task tracing when non-null and enabled. */
    const TraceConfig *trace = nullptr;
    std::string checkpointPath; //!< no journal when empty
    std::uint64_t journalKey = 0;
    JournalOptions journal{};
};

/** Runs one campaign's tasks under the contract in the file comment. */
template <typename Result>
class CampaignRunner
{
  public:
    /**
     * Opens the checkpoint journal (if any) and resets `*stats`; the
     * runner accumulates into it across run() calls.
     */
    CampaignRunner(CampaignSetup setup_, TaskCodec<Result> codec_,
                   ParallelStats *stats_, std::vector<TraceEvent> *trace_)
        : setup(std::move(setup_)), codec(codec_), stats(stats_),
          trace(trace_),
          tracing(setup.trace != nullptr && setup.trace->enabled)
    {
        if (!setup.checkpointPath.empty()) {
            journal = std::make_unique<TaskJournal>(
                setup.checkpointPath, setup.journalKey, codec.kind,
                setup.journal);
        }
        if (stats)
            *stats = ParallelStats{};
    }

    /**
     * Bind phase `phase` of a multi-phase campaign to `digest` (a meta
     * record). A journaled digest that differs means the journal comes
     * from a diverged run: no task record is restored from here on.
     */
    void
    gate(unsigned phase, const std::string &digest)
    {
        if (!journal)
            return;
        std::optional<std::string> m = journal->lookupMeta(phase);
        if (m && *m == digest)
            return;
        if (m)
            trusted = false;
        journal->recordMeta(phase, digest);
    }

    /**
     * Run tasks [base, base + count): `exec(i, task_seed, tracer)`
     * computes task base + i live (`tracer` is null unless tracing),
     * then `merge(i, result)` folds every unmasked task in index
     * order. Returns the number of tasks merged.
     */
    template <typename Exec, typename Merge>
    unsigned
    run(unsigned base, unsigned count, Exec &&exec, Merge &&merge)
    {
        struct Slot
        {
            std::optional<Result> result; //!< empty = masked out
            std::vector<TraceEvent> events;
        };
        std::vector<Slot> slots(count);
        std::vector<unsigned> live;
        const bool restore = journal && trusted && !tracing;
        for (unsigned i = 0; i < count; ++i) {
            unsigned index = base + i;
            if (setup.taskMask && !(*setup.taskMask)[index])
                continue; // another shard's task
            if (restore) {
                if (auto payload = journal->lookup(index)) {
                    Result r{};
                    if (codec.parse(*payload, r)) {
                        slots[i].result = std::move(r);
                        if (stats)
                            ++stats->tasksRestored;
                        continue;
                    }
                }
            }
            live.push_back(i);
        }

        auto done = parallelMapOrdered(
            static_cast<unsigned>(live.size()), setup.jobs,
            [&](unsigned k) {
                unsigned index = base + live[k];
                std::uint64_t task_seed = campaignTaskSeed(setup.seed, index);
                Slot s;
                if (tracing) {
                    Tracer tracer(*setup.trace);
                    tracer.setTid(static_cast<std::uint16_t>(index));
                    s.result = exec(live[k], task_seed, &tracer);
                    s.events = tracer.events();
                } else {
                    s.result = exec(live[k], task_seed, nullptr);
                }
                if (journal)
                    journal->record(index, codec.serialize(*s.result));
                return s;
            },
            stats);
        for (unsigned k = 0; k < live.size(); ++k)
            slots[live[k]] = std::move(done[k]);

        unsigned merged = 0;
        for (unsigned i = 0; i < count; ++i) {
            if (!slots[i].result)
                continue;
            merge(i, *slots[i].result);
            if (trace) {
                trace->insert(trace->end(), slots[i].events.begin(),
                              slots[i].events.end());
            }
            ++merged;
        }
        return merged;
    }

    /** Record the simulated time the campaign covered. */
    void
    finish(Ns sim_ns)
    {
        if (stats)
            stats->simNs = sim_ns;
    }

  private:
    CampaignSetup setup;
    TaskCodec<Result> codec;
    ParallelStats *stats;
    std::vector<TraceEvent> *trace;
    const bool tracing;
    std::unique_ptr<TaskJournal> journal;
    bool trusted = true;
};

} // namespace rho

#endif // RHO_HAMMER_CAMPAIGN_HH
