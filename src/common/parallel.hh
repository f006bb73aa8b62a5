/**
 * @file
 * Deterministic ordered parallel map on top of the work-stealing
 * ThreadPool.
 *
 * The contract the campaign runner (hammer/campaign.hh) builds on:
 * task i writes only result slot i, results are consumed in index
 * order, and each task derives all of its randomness from its index —
 * so the merged output is bit-identical for any job count, including
 * the jobs == 1 serial path (which runs inline without a pool).
 */

#ifndef RHO_COMMON_PARALLEL_HH
#define RHO_COMMON_PARALLEL_HH

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace rho
{

/** Resolve a user-facing job count: 0 means hardware_concurrency. */
inline unsigned
resolveJobs(unsigned jobs)
{
    return jobs == 0 ? ThreadPool::defaultJobs() : jobs;
}

/**
 * Run `fn(i)` for i in [0, num_tasks) and return the results in index
 * order. With more than one job, tasks run on a work-stealing pool;
 * the first exception (by task index) is rethrown after all tasks
 * quiesce. `fn` must be callable concurrently from multiple threads
 * and must not share mutable state across indices. `stats`, when
 * given, accumulates: tasksRun, steals, wallNs and taskWallMs add to
 * what it already holds, and jobs is overwritten.
 */
template <typename Fn>
auto
parallelMapOrdered(unsigned num_tasks, unsigned jobs, Fn &&fn,
                   ParallelStats *stats = nullptr)
    -> std::vector<decltype(fn(0u))>
{
    using Result = decltype(fn(0u));
    using Clock = std::chrono::steady_clock;

    unsigned n_jobs = resolveJobs(jobs);
    std::vector<Result> results(num_tasks);
    std::vector<std::exception_ptr> errors(num_tasks);
    std::mutex task_ms_mutex;

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

    if (n_jobs <= 1 || num_tasks <= 1) {
        for (unsigned i = 0; i < num_tasks; ++i)
            run_one(i);
        if (stats)
            stats->jobs = 1;
    } else {
        ThreadPool pool(std::min<unsigned>(n_jobs, num_tasks));
        for (unsigned i = 0; i < num_tasks; ++i)
            pool.submit([&run_one, i] { run_one(i); });
        pool.wait();
        if (stats) {
            stats->jobs = pool.numThreads();
            stats->steals += pool.counters().steals;
        }
    }
    if (stats) {
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
