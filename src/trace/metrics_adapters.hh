/**
 * @file
 * Header-only adapters folding the per-subsystem statistics structs
 * into a MetricsRegistry under stable dotted names. Kept out of
 * metrics.hh so rho_trace itself depends only on rho_common; any
 * target that links the subsystem in question can include this.
 *
 * Naming scheme: "<subsystem>.<counter>", snake_case, with retry
 * channels nested one level deeper ("retry.<phase>.<counter>").
 */

#ifndef RHO_TRACE_METRICS_ADAPTERS_HH
#define RHO_TRACE_METRICS_ADAPTERS_HH

#include <cstdint>

#include "common/stats.hh"
#include "cpu/perf_counters.hh"
#include "dram/dimm.hh"
#include "fault/fault_injector.hh"
#include "trace/metrics.hh"

namespace rho
{

inline std::uint64_t
metricNs(double ns)
{
    return ns > 0.0 ? static_cast<std::uint64_t>(ns) : 0;
}

/** SimCpu run counters → "cpu.*". */
inline void
addMetrics(MetricsRegistry &m, const PerfCounters &pc)
{
    m.add("cpu.mem_reads", pc.memReads);
    m.add("cpu.dram_accesses", pc.dramAccesses);
    m.add("cpu.cache_hits", pc.cacheHits);
    m.add("cpu.pf_queue_drops", pc.pfQueueDrops);
    m.add("cpu.flushes", pc.flushes);
    m.add("cpu.branches", pc.branches);
    m.add("cpu.branch_mispredicts", pc.branchMispredicts);
    m.add("cpu.nops", pc.nops);
    m.add("cpu.time_ns", metricNs(pc.timeNs));
}

/** DIMM device totals → "dram.*". */
inline void
addMetrics(MetricsRegistry &m, const Dimm &dimm)
{
    m.add("dram.acts", dimm.totalActs());
    m.add("dram.refreshes.trr", dimm.trrRefreshCount());
    m.add("dram.refreshes.rfm", dimm.rfmCommandCount());
    m.add("dram.flips", dimm.flipLog().size());
}

/** Delivered-fault counters → "fault.*". */
inline void
addMetrics(MetricsRegistry &m, const FaultStats &fs)
{
    m.add("fault.timing_perturbations", fs.timingPerturbations);
    m.add("fault.flips_suppressed", fs.flipsSuppressed);
    m.add("fault.spurious_refreshes", fs.spuriousRefreshes);
    m.add("fault.alloc_failures", fs.allocFailures);
    m.add("fault.fragment_spikes", fs.fragmentSpikes);
}

/** Retry accounting for one phase → "retry.<phase>.*". */
inline void
addMetrics(MetricsRegistry &m, const std::string &phase,
           const RetryStats &rs)
{
    const std::string p = "retry." + phase + ".";
    m.add(p + "attempts", rs.attempts);
    m.add(p + "retries", rs.retries);
    m.add(p + "backoffs", rs.backoffs);
    m.add(p + "backoff_ns", metricNs(rs.backoffNs));
}

/** Campaign scheduling counters → "parallel.*". */
inline void
addMetrics(MetricsRegistry &m, const ParallelStats &ps)
{
    m.set("parallel.jobs", ps.jobs);
    m.add("parallel.tasks_run", ps.tasksRun);
    m.add("parallel.tasks_restored", ps.tasksRestored);
    m.add("parallel.wall_ns", metricNs(ps.wallNs));
    m.add("parallel.sim_ns", metricNs(ps.simNs));
}

} // namespace rho

#endif // RHO_TRACE_METRICS_ADAPTERS_HH
