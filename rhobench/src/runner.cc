#include "runner.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"

namespace rhobench
{

namespace
{

constexpr unsigned setupPasses = 5;
constexpr unsigned minReps = 3;

/** Quantile q of v by linear interpolation between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Repetitions are identical deterministic work, so the spread among
 * them is host interference (co-tenants on shared cores), which only
 * adds time and comes in bursts. The lower quartile tracks the cost of
 * the work more closely: over three consecutive 20 s windows of
 * sweep_ddr4 on a shared 4-vCPU Xeon host it moved 11%, the median 17%.
 */
double
repCost(const std::vector<double> &v)
{
    return quantile(v, 0.25);
}

/** User + system CPU time of the whole process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process image, MiB. VmHWM rather than
 * getrusage's ru_maxrss, which keeps the high-water mark of whatever
 * image ran before exec (the launching interpreter, say).
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Per-layer metrics derived from an untraced repetition's counts. */
void
repLayers(const std::vector<RepResult> &reps,
          std::map<std::string, double> &layers)
{
    const RepResult &r = reps.front();
    layers["dram.acts"] = static_cast<double>(r.acts);
    layers["dram.trr_refreshes"] = static_cast<double>(r.trrRefreshes);
    layers["dram.rfm_commands"] = static_cast<double>(r.rfmCommands);
    layers["dram.prac_alerts"] = static_cast<double>(r.pracAlerts);
    layers["dram.flips"] = static_cast<double>(r.flips);
    if (r.trials)
        layers["hammer.effective_frac"] =
            static_cast<double>(r.effective) / r.trials;
    layers["revng.timed_accesses"] = static_cast<double>(r.timedAccesses);
    layers["revng.retries"] = static_cast<double>(r.retries);

    double task_ms = 0.0, capacity_ms = 0.0, steals = 0.0, tasks = 0.0;
    for (const RepResult &rep : reps) {
        task_ms += rep.poolTaskMs;
        capacity_ms += rep.poolCapacityMs;
        steals += static_cast<double>(rep.poolSteals);
        tasks += static_cast<double>(rep.poolTasks);
    }
    if (capacity_ms > 0.0) {
        layers["common.pool_busy_frac"] = task_ms / capacity_ms;
        layers["common.steals"] = steals / reps.size();
        layers["common.task_ms.mean"] = tasks ? task_ms / tasks : 0.0;
    }
}

} // namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"setup_s", "s"},      {"run_s", "s"},
        {"sim_acts_per_s", "ACT/s"}, {"cpu_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"cpu.replay_ns_per_act", "ns/ACT"},
        {"cpu.dram_access_frac", "fraction"},
        {"cpu.pf_queue_drops", "count"},
        {"memsys.backend_ns_per_call", "ns/call"},
        {"memsys.backend_calls", "count"},
        {"memsys.instantiate_us", "us"},
        {"memsys.probe_ns_per_access", "ns/access"},
        {"mapping.decode_ns", "ns"},
        {"dram.access_ns_per_act", "ns/ACT"},
        {"dram.trr_ns_per_act", "ns/ACT"},
        {"dram.rfm_ns_per_act", "ns/ACT"},
        {"dram.prac_ns_per_act", "ns/ACT"},
        {"dram.diff_row_us", "us/row"},
        {"dram.acts", "count"},
        {"dram.row_hit_frac", "fraction"},
        {"dram.trr_refreshes", "count"},
        {"dram.rfm_commands", "count"},
        {"dram.prac_alerts", "count"},
        {"dram.flips", "count"},
        {"hammer.pattern_gen_us", "us"},
        {"hammer.build_kernel_us", "us"},
        {"hammer.fill_verify_us_per_location", "us"},
        {"hammer.effective_frac", "fraction"},
        {"common.pool_busy_frac", "fraction"},
        {"common.steals", "count"},
        {"common.task_ms.mean", "ms"},
        {"os.rig_setup_ms", "ms"},
        {"revng.run_ms", "ms"},
        {"revng.timed_accesses", "count"},
        {"revng.retries", "count"},
        {"trace.overhead_frac", "fraction"},
        {"trace.dropped", "count"},
        {"bench.instrument_overhead_frac", "fraction"},
        {"ops_failed_frac", "fraction"},
    };
    return m;
}

Report
runBenchmark(const Options &opts)
{
    rho::setVerbose(false);

    // 1. Set-up: build the workload and warm it up, several times.
    std::unique_ptr<Workload> wl;
    std::vector<double> setups;
    for (unsigned k = 0; k < setupPasses; ++k) {
        std::uint64_t t0 = nowNs();
        wl = makeWorkload(opts);
        if (!wl)
            throw std::invalid_argument("unknown workload: " + opts.workload);
        wl->warmUp();
        setups.push_back(secondsSince(t0));
    }

    // 2. Measurement window.
    std::vector<RepResult> reps;
    std::vector<double> walls, cpus;
    std::uint64_t window = nowNs();
    do {
        double c0 = cpuSeconds();
        std::uint64_t t0 = nowNs();
        reps.push_back(wl->runRep());
        walls.push_back(secondsSince(t0));
        cpus.push_back(cpuSeconds() - c0);
    } while (reps.size() < minReps || secondsSince(window) < opts.seconds);
    double peak_rss = peakRssMib();

    // 3. Output checks.
    Report report;
    const RepResult &first = reps.front();
    std::vector<bool> unit_bad(first.units.size(), false);
    for (auto [idx, digest] : wl->oracle()) {
        if (opts.corruptOracle)
            digest ^= 1;
        if (digest != first.units.at(idx).digest)
            unit_bad[idx] = true;
    }
    for (const RepResult &rep : reps) {
        for (std::size_t u = 0; u < first.units.size(); ++u) {
            const Unit &ref = first.units[u];
            bool bad = unit_bad[u] || rep.units.size() != first.units.size()
                       || rep.units[u].digest != ref.digest;
            report.attempted += ref.ops;
            report.failed += bad ? ref.ops : rep.units[u].failedOps;
        }
    }

    double run_s = repCost(walls);
    std::map<std::string, double> values;
    if (!opts.trace) {
        values["setup_s"] = quantile(setups, 0.5);
        values["run_s"] = run_s;
        values["sim_acts_per_s"] = first.acts / run_s;
        values["cpu_s"] = repCost(cpus);
        values["peak_rss_mb"] = peak_rss;
    } else {
        // 4. Traced pass.
        SpanRecorder spans(TickClock::calibrate());
        TracedResult tr = wl->traced(first, spans);
        for (const TracedResult::Check &c : tr.checks) {
            ++report.attempted;
            report.failed += c.traced == c.untraced ? 0 : 1;
        }
        values = tr.layers;
        repLayers(reps, values);
        double base = tr.untracedS > 0.0 ? tr.untracedS : run_s;
        values["bench.instrument_overhead_frac"] = tr.tracedS / base - 1.0;
        values["ops_failed_frac"] = static_cast<double>(report.failed)
                                    / static_cast<double>(report.attempted);
        if (!opts.spansPath.empty() && !spans.writeChromeTrace(opts.spansPath))
            throw std::runtime_error("cannot write " + opts.spansPath);
    }
    report.correct = report.failed == 0;
    for (const MetricSpec &m :
         opts.trace ? perLayerMetrics() : endToEndMetrics())
        report.metrics.push_back({m.name, values[m.name], m.unit});

    unsigned hw = std::thread::hardware_concurrency();
    report.manifest = {
        {"workload", opts.workload},
        {"seed", std::to_string(opts.seed)},
        {"size", opts.size == Size::Tiny ? "tiny" : "full"},
        {"seconds", std::to_string(opts.seconds)},
        {"trace", opts.trace ? "1" : "0"},
        {"reps", std::to_string(reps.size())},
        {"nproc", std::to_string(hw)},
        {"build_type", RHOBENCH_BUILD_TYPE},
        {"compiler", __VERSION__},
        {"commit", opts.commit},
    };
    for (auto &kv : wl->manifest())
        report.manifest.push_back(kv);
    return report;
}

std::string
resultJson(const Report &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const MetricValue &m = r.metrics[i];
        os << (i ? ", " : "") << jsonString(m.name) << ": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit)
           << "}";
    }
    os << "}}";
    return os.str();
}

std::string
manifestJson(const Report &r)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < r.manifest.size(); ++i) {
        os << (i ? ", " : "") << jsonString(r.manifest[i].first) << ": "
           << jsonString(r.manifest[i].second);
    }
    os << "}";
    return os.str();
}

} // namespace rhobench
