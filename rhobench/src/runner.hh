/**
 * @file
 * The benchmark runner: set up, measure, check, optionally trace, and
 * render the result.
 *
 * One run:
 *  1. Set-up, several times: build the workload and run its warm-up
 *     pass on throwaway machines. setup_s is the median pass.
 *  2. Measurement: repeat the workload's fixed work, untraced, on
 *     factory-fresh machines until --seconds have passed (at least
 *     three times). run_s and cpu_s are the lower quartile of the
 *     repetitions.
 *  3. Checks, outside the timed window: every repetition's outputs
 *     must equal the first's, and the held-out slice rerun on the
 *     Reference CPU and row-store engines must equal them too.
 *  4. With --trace 1, one traced pass: spans around the calls into
 *     each layer, whose simulated outputs must equal the untraced
 *     ones; the per-layer metrics come from it.
 */

#ifndef RHOBENCH_RUNNER_HH
#define RHOBENCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.hh"

namespace rhobench
{

/** A metric's name and unit, as listed in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (printed with --trace 0). */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics (printed with --trace 1). */
const std::vector<MetricSpec> &perLayerMetrics();

/** One measured value. */
struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<MetricValue> metrics;
    Manifest manifest;
};

/** Run one benchmark invocation; throws on an unknown workload. */
Report runBenchmark(const Options &opts);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Report &r);

/** The manifest as one JSON object. */
std::string manifestJson(const Report &r);

} // namespace rhobench

#endif // RHOBENCH_RUNNER_HH
