/**
 * @file
 * Perf gate for the three ratios only an in-process harness can
 * measure. Each compares two observably interchangeable engines on the
 * same fixed, deterministic work in the same process:
 *
 *  - device_speedup_flat_vs_reference: raw double-sided hammering
 *    straight on Dimm::access through the flat row store vs the
 *    reference row store. Mitigations are off: the TRR sampler is the
 *    same rng-bound code on both paths and would only dilute the
 *    row-state signal being guarded;
 *  - e2e_speedup_blocked_vs_reference: a full HammerSession::hammer()
 *    with the tuned rho config through the default fast stack
 *    (CpuModelKind::Blocked + RowStoreKind::Flat) vs the original
 *    stack (Reference + Reference), the differential the oracle suites
 *    prove bit-identical;
 *  - service_relative_throughput: one sweep campaign sharded over
 *    supervised worker processes vs the same sweep in-process with the
 *    same total parallelism, fsync off on both, so only supervision,
 *    fork, the per-shard journals and the journal merge differ.
 *
 * Absolute rates are rhobench's (sim_acts_per_s, run_s), not this
 * harness's.
 *
 * Estimator (the one rhobench/METRICS.md documents): a unit is one
 * fixed piece of work (three seeded device loops, three seeded hammers,
 * one 16-location sweep). A ratio runs kPairs pairs of windows,
 * alternating which side goes first; a window repeats units until
 * RHO_BENCH_SCALE seconds of timed work have passed. Units are
 * identical work, so their spread is host interference, which only
 * adds time: each side's cost is the lower quartile of its unit times,
 * and the ratio is baseline cost / subject cost. `iqr` is the
 * interquartile range of the per-pair ratios.
 *
 * Output (--out PATH, default BENCH_rho.json), schema "rho-bench-v2":
 *
 *     {
 *       "schema": "rho-bench-v2",
 *       "scale": 1,
 *       "window_s": 1,
 *       "pairs": 5,
 *       "metrics": {
 *         "device_speedup_flat_vs_reference": {"value": ., "iqr": .},
 *         "e2e_speedup_blocked_vs_reference": {"value": ., "iqr": .},
 *         "service_relative_throughput": {"value": ., "iqr": .}
 *       }
 *     }
 *
 * Flags:
 *   --out PATH      where to write the JSON
 *   --check FLOORS  exit 1 if a ratio is below its floor in FLOORS
 *                   (bench/perf_baseline.json: "floors": {name: min})
 *   --selfcheck     re-read the written file and validate the schema
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "dram/dimm.hh"
#include "dram/dimm_profile.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "service/campaign_service.hh"

using namespace rho;

namespace
{

using Clock = std::chrono::steady_clock;

/** Window pairs per ratio. */
constexpr unsigned kPairs = 5;

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** One unit of fixed work; returns the host ns of its timed part. */
using Unit = std::function<double()>;

/** Double-sided hammering on a fresh DIMM at three seeded locations. */
double
deviceUnit(RowStoreKind kind, std::uint64_t rounds)
{
    const DimmProfile &p = DimmProfile::byId("S2");
    TrrConfig trr;
    trr.enabled = false; // pure row-state machinery (see file header)
    double ns = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Dimm d(p, DramTiming::ddr4(p.freqMts), trr);
        d.setRowStore(kind);
        auto bank =
            static_cast<std::uint32_t>(seed % d.geometry().flatBanks());
        std::uint64_t base =
            1000 + (seed * 7919) % (d.geometry().rowsPerBank - 1016);
        d.fillRow(bank, base + 1, 0x55, 0.0);

        Ns now = 0.0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t r = 0; r < rounds; ++r) {
            now += d.access({bank, base, 0}, now).latency;
            now += d.access({bank, base + 2, 0}, now).latency;
        }
        ns += elapsedNs(t0);
    }
    return ns;
}

/** The tuned rho attack through the CPU model, seeds 1-3. */
double
e2eUnit(CpuModelKind cpu, RowStoreKind row, std::uint64_t budget)
{
    double ns = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
        spec.cpuModel = cpu;
        spec.referenceRowStore = row == RowStoreKind::Reference;
        MemorySystem sys(spec);
        HammerSession session(sys, seed);
        HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, budget);
        HammerPattern pattern = HammerPattern::doubleSided();
        HammerLocation loc =
            session.tryRandomLocation(pattern, cfg).loc.value();

        Clock::time_point t0 = Clock::now();
        session.hammer(pattern, loc, cfg);
        ns += elapsedNs(t0);
    }
    return ns;
}

/**
 * One 16-location sweep (seed 1), run in-process (journaled, `par`
 * jobs) or through the supervisor (2 x `par` shards on `par` worker
 * processes, 1 job each). More shards than workers lets the supervisor
 * balance uneven per-location sim times the way the in-process pool
 * balances tasks.
 */
class ServiceSweep
{
  public:
    explicit ServiceSweep(std::uint64_t budget)
        : spec(Arch::RaptorLake, DimmProfile::byId("S2")),
          cfg(rhoConfig(Arch::RaptorLake, false, budget)),
          base("/tmp/rho_bench_service."
               + std::to_string(static_cast<long>(::getpid())))
    {
        Rng prng(seed);
        pattern = HammerPattern::randomNonUniform(prng);
        params.numLocations = 16;

        // Capped by the machine: on a single-core runner a 2-worker
        // service would only measure context-switch pressure.
        unsigned par = std::max(
            1u, std::min(2u, std::thread::hardware_concurrency()));
        inproc = params;
        inproc.jobs = par;
        inproc.checkpointPath = base + ".inproc";
        inproc.journal.fsync = FsyncPolicy::Never;

        svc.shards = 2 * par;
        svc.jobsPerWorker = 1;
        svc.journalBase = base;
        svc.fsync = FsyncPolicy::Never;
        svc.supervisor.workers = par;
    }

    ~ServiceSweep() { service::removeServiceJournals(base, svc.shards); }
    ServiceSweep(const ServiceSweep &) = delete;
    ServiceSweep &operator=(const ServiceSweep &) = delete;

    double
    inProcess()
    {
        std::remove(inproc.checkpointPath.c_str());
        Clock::time_point t0 = Clock::now();
        sweepCampaign(spec, pattern, cfg, inproc, seed);
        double ns = elapsedNs(t0);
        std::remove(inproc.checkpointPath.c_str());
        return ns;
    }

    double
    supervised()
    {
        service::removeServiceJournals(base, svc.shards);
        Clock::time_point t0 = Clock::now();
        service::serviceSweepCampaign(spec, pattern, cfg, params, seed,
                                      svc);
        return elapsedNs(t0);
    }

  private:
    static constexpr std::uint64_t seed = 1;
    SystemSpec spec;
    HammerConfig cfg;
    std::string base;
    HammerPattern pattern;
    SweepParams params;
    SweepParams inproc;
    service::ServiceParams svc;
};

/** Linear-interpolated quantile, as in rhobench. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Repeat `unit` until `window_ns` of timed work has passed (at least
 * once). Appends every unit time to `units`; returns the window's mean.
 */
double
runWindow(const Unit &unit, double window_ns, std::vector<double> &units)
{
    double total = 0.0;
    std::size_t n = 0;
    do {
        double ns = unit();
        units.push_back(ns);
        total += ns;
        ++n;
    } while (total < window_ns);
    return total / static_cast<double>(n);
}

struct Metric
{
    const char *name;
    double value = 0.0;
    double iqr = 0.0;
};

/** baseline cost / subject cost over kPairs alternating window pairs. */
Metric
measureRatio(const char *name, const Unit &subject, const Unit &baseline,
             double window_ns)
{
    std::vector<double> subj_units, base_units, pair_ratios;
    for (unsigned p = 0; p < kPairs; ++p) {
        double s = 0.0, b = 0.0;
        if (p % 2 == 0) {
            s = runWindow(subject, window_ns, subj_units);
            b = runWindow(baseline, window_ns, base_units);
        } else {
            b = runWindow(baseline, window_ns, base_units);
            s = runWindow(subject, window_ns, subj_units);
        }
        pair_ratios.push_back(b / s);
        std::printf("%s pair %u: subject %.3f ms/unit, baseline %.3f "
                    "ms/unit, ratio %.4f\n",
                    name, p + 1, s / 1e6, b / 1e6, pair_ratios.back());
    }
    Metric m{name};
    m.value = quantile(base_units, 0.25) / quantile(subj_units, 0.25);
    m.iqr = quantile(pair_ratios, 0.75) - quantile(pair_ratios, 0.25);
    std::printf("%s = %.4f (iqr %.4f; %zu subject / %zu baseline units)"
                "\n\n",
                name, m.value, m.iqr, subj_units.size(),
                base_units.size());
    return m;
}

/**
 * Scan `text` from `from` for `"key": <number>`; false when the key is
 * absent or not followed by a number.
 */
bool
findNumber(const std::string &text, const std::string &key, double &out,
           std::size_t from = 0)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = text.find(needle, from);
    if (pos == std::string::npos)
        return false;
    const char *s = text.c_str() + pos + needle.size();
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s)
        return false;
    out = v;
    return true;
}

std::string
renderJson(const std::vector<Metric> &metrics, double window_s)
{
    std::ostringstream os;
    os.precision(6);
    os << "{\n  \"schema\": \"rho-bench-v2\",\n  \"scale\": "
       << bench::scale() << ",\n  \"window_s\": " << window_s
       << ",\n  \"pairs\": " << kPairs << ",\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << "    \"" << metrics[i].name << "\": {\"value\": "
           << metrics[i].value << ", \"iqr\": " << metrics[i].iqr << "}"
           << (i + 1 < metrics.size() ? ",\n" : "\n");
    }
    os << "  }\n}\n";
    return os.str();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

/** Every metric present with value > 0 and iqr >= 0. */
bool
selfcheck(const std::string &path, const std::vector<Metric> &metrics)
{
    std::string back;
    if (!readFile(path, back)
        || back.find("\"schema\": \"rho-bench-v2\"") == std::string::npos) {
        std::fprintf(stderr, "FAIL: %s missing rho-bench-v2 schema\n",
                     path.c_str());
        return false;
    }
    for (const Metric &m : metrics) {
        std::size_t pos = back.find("\"" + std::string(m.name) + "\": {");
        double v = 0.0, iqr = -1.0;
        if (pos == std::string::npos || !findNumber(back, "value", v, pos)
            || !findNumber(back, "iqr", iqr, pos) || !(v > 0.0)
            || !(iqr >= 0.0)) {
            std::fprintf(stderr,
                         "FAIL: %s: metric %s missing, or value not > 0 "
                         "or iqr not >= 0\n",
                         path.c_str(), m.name);
            return false;
        }
    }
    std::printf("selfcheck: schema and all %zu metrics OK\n",
                metrics.size());
    return true;
}

/** Each metric's value against its floor in `path`'s "floors" object. */
bool
checkFloors(const std::string &path, const std::vector<Metric> &metrics)
{
    std::string text;
    std::size_t floors = std::string::npos;
    if (!readFile(path, text)
        || (floors = text.find("\"floors\":")) == std::string::npos) {
        std::fprintf(stderr, "FAIL: cannot read floors from %s\n",
                     path.c_str());
        return false;
    }
    bool ok = true;
    for (const Metric &m : metrics) {
        double floor = 0.0;
        if (!findNumber(text, m.name, floor, floors)) {
            std::fprintf(stderr, "FAIL: %s lacks a floor for %s\n",
                         path.c_str(), m.name);
            ok = false;
            continue;
        }
        bool pass = m.value >= floor;
        std::printf("check %-34s %g (iqr %g) vs floor %g: %s\n", m.name,
                    m.value, m.iqr, floor, pass ? "ok" : "REGRESSED");
        ok = ok && pass;
    }
    if (!ok)
        std::fprintf(stderr, "FAIL: perf below the floors in %s\n",
                     path.c_str());
    else
        std::printf("perf at or above the floors in %s\n", path.c_str());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_rho.json";
    std::string floors_path;
    bool want_selfcheck = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--selfcheck") {
            want_selfcheck = true;
            continue;
        }
        if (flag != "--out" && flag != "--check")
            bench::usageError("unknown flag " + flag
                              + " (expected --out PATH, --check FLOORS, "
                                "--selfcheck)");
        if (i + 1 == argc)
            bench::usageError(flag + " needs a value");
        (flag == "--out" ? out_path : floors_path) = argv[++i];
    }

    bench::banner("perf", "in-process perf ratios (BENCH_rho.json)");

    const double window_s = bench::scale();
    const double window_ns = window_s * 1e9;
    const std::uint64_t device_rounds = bench::scaled(400000);
    const std::uint64_t e2e_budget = bench::scaled(200000);
    std::printf("%u alternating window pairs of >= %g s per ratio\n\n",
                kPairs, window_s);

    // Service first, while the heap is small: body-mode workers fork
    // this process, and fork cost scales with the parent's page tables.
    ServiceSweep sweep(bench::scaled(120000));
    Metric service = measureRatio(
        "service_relative_throughput", [&] { return sweep.supervised(); },
        [&] { return sweep.inProcess(); }, window_ns);
    Metric device = measureRatio(
        "device_speedup_flat_vs_reference",
        [&] { return deviceUnit(RowStoreKind::Flat, device_rounds); },
        [&] { return deviceUnit(RowStoreKind::Reference, device_rounds); },
        window_ns);
    Metric e2e = measureRatio(
        "e2e_speedup_blocked_vs_reference",
        [&] {
            return e2eUnit(CpuModelKind::Blocked, RowStoreKind::Flat,
                           e2e_budget);
        },
        [&] {
            return e2eUnit(CpuModelKind::Reference, RowStoreKind::Reference,
                           e2e_budget);
        },
        window_ns);
    const std::vector<Metric> metrics = {device, e2e, service};

    {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        out << renderJson(metrics, window_s);
    }
    std::printf("wrote %s\n", out_path.c_str());

    if (want_selfcheck && !selfcheck(out_path, metrics))
        return 1;
    if (!floors_path.empty() && !checkFloors(floors_path, metrics))
        return 1;
    return 0;
}
