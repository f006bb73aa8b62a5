/**
 * @file
 * Deterministic ordered parallel map: workers claim task indices from
 * one shared counter.
 *
 * The contract the campaign runner (hammer/campaign.hh) builds on:
 * task i writes only result slot i, results are consumed in index
 * order, and each task derives all of its randomness from its index —
 * so the merged output is bit-identical for any job count, including
 * the jobs == 1 serial path (which runs inline on the caller).
 */

#ifndef RHO_COMMON_PARALLEL_HH
#define RHO_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/stats.hh"

namespace rho
{

/**
 * Resolve a user-facing job count: 0 means hardware_concurrency,
 * clamped to >= 1.
 */
inline unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Run `fn(i)` for i in [0, num_tasks) and return the results in index
 * order. With more than one job, min(jobs, num_tasks) workers (the
 * caller plus threads started for this call) each claim the next
 * unclaimed index until none is left; a worker with nothing to claim
 * exits instead of waiting. The first exception (by task index) is
 * rethrown after all tasks finish. `fn` must be callable concurrently
 * from multiple threads and must not share mutable state across
 * indices. `stats`, when given, accumulates: tasksRun, wallNs and
 * taskWallMs add to what it already holds, and jobs is overwritten.
 */
template <typename Fn>
auto
parallelMapOrdered(unsigned num_tasks, unsigned jobs, Fn &&fn,
                   ParallelStats *stats = nullptr)
    -> std::vector<decltype(fn(0u))>
{
    using Result = decltype(fn(0u));
    using Clock = std::chrono::steady_clock;

    std::vector<Result> results(num_tasks);
    std::vector<std::exception_ptr> errors(num_tasks);
    std::mutex task_ms_mutex;
    std::atomic<unsigned> next{0};

    auto t0 = Clock::now();
    auto run_one = [&](unsigned i) {
        auto task_start = Clock::now();
        try {
            results[i] = fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
        if (!stats)
            return;
        double ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - task_start)
                        .count();
        std::lock_guard<std::mutex> lk(task_ms_mutex);
        stats->taskWallMs.add(ms);
    };
    auto claim_loop = [&] {
        for (unsigned i; (i = next.fetch_add(1, std::memory_order_relaxed))
                         < num_tasks;)
            run_one(i);
    };

    unsigned workers = std::min(resolveJobs(jobs), num_tasks);
    std::vector<std::thread> helpers;
    if (workers > 1) {
        helpers.reserve(workers - 1);
        try {
            for (unsigned k = 1; k < workers; ++k)
                helpers.emplace_back(claim_loop);
        } catch (const std::system_error &) {
            // Out of threads: those already started and the caller
            // claim every remaining task.
        }
    }
    claim_loop();
    for (std::thread &t : helpers)
        t.join();

    if (stats) {
        stats->jobs = static_cast<unsigned>(helpers.size()) + 1;
        stats->tasksRun += num_tasks;
        stats->wallNs += std::chrono::duration<double, std::nano>(
                             Clock::now() - t0)
                             .count();
    }

    for (unsigned i = 0; i < num_tasks; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
    return results;
}

} // namespace rho

#endif // RHO_COMMON_PARALLEL_HH
