/**
 * @file
 * Shards: the unit of work the campaign supervisor schedules.
 *
 * A campaign's task keyspace [0, totalTasks) is partitioned into
 * contiguous shards; each shard is executed by one worker process that
 * journals completed tasks into the shard's own checkpoint journal
 * (all shard journals share the campaign's journal key, so the
 * supervisor can absorb them into one merged journal afterwards). The
 * shard journal is also the worker's only channel to the supervisor:
 * its growth is the heartbeat. A shard that keeps failing is
 * quarantined and reported through the FailureCode taxonomy instead
 * of aborting the campaign.
 */

#ifndef RHO_SERVICE_SHARD_HH
#define RHO_SERVICE_SHARD_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/failure.hh"
#include "common/table.hh"

namespace rho::service
{

/** One contiguous slice of a campaign's task keyspace. */
struct ShardSpec
{
    unsigned id = 0;
    unsigned firstTask = 0;
    unsigned taskCount = 0;
    std::string journalPath; //!< per-shard checkpoint journal

    /** Execution mask for SweepParams/FuzzParams::taskMask. */
    std::vector<std::uint8_t>
    mask(unsigned total_tasks) const
    {
        std::vector<std::uint8_t> m(total_tasks, 0);
        for (unsigned i = 0; i < taskCount; ++i)
            m[firstTask + i] = 1;
        return m;
    }
};

/** Supervisor-side lifecycle of one shard. */
enum class ShardState : std::uint8_t
{
    Pending,     //!< waiting for a worker slot (or backoff delay)
    Running,     //!< a worker process owns it
    Done,        //!< worker exited 0; journal covers the shard
    Quarantined, //!< retry budget exhausted; excluded from the merge
};

/** Final per-shard accounting reported by the supervisor. */
struct ShardReport
{
    ShardSpec spec;
    ShardState state = ShardState::Pending;
    unsigned attempts = 0; //!< launches consumed (1 = first try)
    unsigned crashes = 0;  //!< abnormal exits (signal or exit != 0)
    unsigned hangs = 0;    //!< heartbeat/deadline kills by the supervisor
    FailureCode code = FailureCode::None; //!< ShardQuarantined when dead
    FailureCode lastFailure = FailureCode::None; //!< crash vs hang
    std::string detail; //!< human-readable failure description
};

/**
 * Partition [0, totalTasks) into at most `shards` contiguous,
 * balanced, non-empty shards. Journal paths derive from
 * `journal_base` ("<base>.shard<k>").
 */
inline std::vector<ShardSpec>
makeShards(unsigned total_tasks, unsigned shards,
           const std::string &journal_base)
{
    unsigned n = std::max(1u, std::min(shards, std::max(total_tasks, 1u)));
    std::vector<ShardSpec> out;
    out.reserve(n);
    unsigned base = total_tasks / n, extra = total_tasks % n, first = 0;
    for (unsigned k = 0; k < n; ++k) {
        ShardSpec s;
        s.id = k;
        s.firstTask = first;
        s.taskCount = base + (k < extra ? 1 : 0);
        s.journalPath = strFormat("%s.shard%u", journal_base.c_str(), k);
        first += s.taskCount;
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace rho::service

#endif // RHO_SERVICE_SHARD_HH
