#include "workload.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <set>
#include <stdexcept>

namespace rhobench
{

using namespace rho;

void
Digest::addDouble(double v)
{
    add(std::bit_cast<std::uint64_t>(v));
}

void
Digest::addFlips(const std::vector<FlipRecord> &flips)
{
    add(flips.size());
    for (const FlipRecord &f : flips) {
        add(f.bank);
        add(f.row);
        add(f.bitOffset);
        add(f.toOne ? 1 : 0);
        addDouble(f.when);
    }
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep_ddr4",
                                                   "bypass_ddr5", "revng"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "sweep_ddr4")
        return makeSweepDdr4(opts);
    if (opts.workload == "bypass_ddr5")
        return makeBypassDdr5(opts);
    if (opts.workload == "revng")
        return makeRevng(opts);
    return nullptr;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

// ---------------------------------------------------------------------
// TimedBackend

namespace
{

/**
 * MemoryBackend decorator: forwards every call to a MemorySystem,
 * counts and times the calls, and records the command stream. The
 * recording (one store into a reserved vector per call) happens
 * outside the timed interval, so it lands in the caller's self time.
 */
class TimedBackend : public MemoryBackend
{
  public:
    TimedBackend(MemorySystem &sys_, std::size_t expected_calls)
        : sys(sys_)
    {
        recorded.reserve(expected_calls);
    }

    Ns dramAccess(PhysAddr pa, Ns now) override;
    const void *resolveLine(PhysAddr pa) override;
    Ns dramAccessResolved(const void *handle, Ns now) override;

    /** Append the recorded commands, handles resolved to addresses. */
    void appendStream(std::vector<Command> &out) const;

    std::uint64_t calls = 0;
    std::uint64_t callTicks = 0;

  private:
    struct Recorded
    {
        PhysAddr pa;
        const void *handle; //!< resolved-line handle, or nullptr
        Ns when;
    };

    MemorySystem &sys;
    std::map<const void *, PhysAddr> lineOf;
    std::vector<Recorded> recorded;
};

} // namespace

Ns
TimedBackend::dramAccess(PhysAddr pa, Ns now)
{
    recorded.push_back({pa, nullptr, std::max(sys.now(), now)});
    std::uint64_t t0 = ticks();
    Ns lat = sys.dramAccess(pa, now);
    callTicks += ticks() - t0;
    ++calls;
    return lat;
}

const void *
TimedBackend::resolveLine(PhysAddr pa)
{
    const void *handle = sys.resolveLine(pa);
    lineOf[handle] = pa;
    return handle;
}

Ns
TimedBackend::dramAccessResolved(const void *handle, Ns now)
{
    recorded.push_back({0, handle, std::max(sys.now(), now)});
    std::uint64_t t0 = ticks();
    Ns lat = sys.dramAccessResolved(handle, now);
    callTicks += ticks() - t0;
    ++calls;
    return lat;
}

void
TimedBackend::appendStream(std::vector<Command> &out) const
{
    for (const Recorded &r : recorded)
        out.push_back({r.handle ? lineOf.at(r.handle) : r.pa, r.when});
}

// ---------------------------------------------------------------------
// hammer() from public calls

namespace
{

using RowList = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/** Aggressor rows per pair and replicated bank, as hammer() plants them. */
RowList
aggressorRows(const MemorySystem &sys, const HammerPattern &pattern,
              const HammerLocation &loc, const HammerConfig &cfg)
{
    RowList rows;
    std::uint32_t banks = sys.mapping().numBanks();
    for (unsigned pair = 0; pair < pattern.numPairs(); ++pair) {
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            std::uint32_t bank = (loc.bank + b) % banks;
            std::uint64_t base = loc.baseRow + pattern.pairRowOffset(pair);
            rows.push_back({bank, base});
            rows.push_back({bank, base + 2});
        }
    }
    return rows;
}

/** Rows within distance 2 of an aggressor that are not aggressors. */
RowList
victimRows(const MemorySystem &sys, const RowList &aggs)
{
    std::set<std::pair<std::uint32_t, std::uint64_t>> agg_set(aggs.begin(),
                                                              aggs.end());
    std::set<std::pair<std::uint32_t, std::uint64_t>> victims;
    auto max_row =
        static_cast<std::int64_t>(sys.dimm().geometry().rowsPerBank);
    for (auto [bank, row] : aggs) {
        for (int d = -2; d <= 2; ++d) {
            std::int64_t v = static_cast<std::int64_t>(row) + d;
            if (d == 0 || v < 0 || v >= max_row)
                continue;
            auto key = std::make_pair(bank, static_cast<std::uint64_t>(v));
            if (!agg_set.count(key))
                victims.insert(key);
        }
    }
    return {victims.begin(), victims.end()};
}

} // namespace

HammerOutcome
tracedHammer(HammerSession &session, const HammerPattern &pattern,
             const HammerLocation &loc, const HammerConfig &cfg,
             SpanRecorder &spans, HammerTally &tally)
{
    if (cfg.refSync)
        throw std::logic_error("tracedHammer: refSync is not rebuilt");
    MemorySystem &sys = session.system();
    Dimm &dimm = sys.dimm();
    ScopedSpan whole(spans, "hammer.location");

    RowList aggs = aggressorRows(sys, pattern, loc, cfg);
    RowList victims = victimRows(sys, aggs);
    {
        ScopedSpan s(spans, "hammer.fill");
        for (auto [bank, row] : victims)
            dimm.fillRow(bank, row, cfg.victimFill, sys.now());
        for (auto [bank, row] : aggs)
            dimm.fillRow(bank, row, cfg.aggrFill, sys.now());
    }
    std::int32_t build = spans.begin("hammer.build_kernel");
    HammerKernel kernel = session.buildKernel(pattern, loc, cfg);
    spans.end(build);

    session.cpu().setTracer(sys.tracer());
    dimm.clearFlipLog();
    Ns start = sys.now();
    // Every DRAM read is one hammer attempt, so the budget bounds them.
    TimedBackend backend(sys, cfg.accessBudget);
    std::uint64_t acts0 = dimm.totalActs();
    HammerOutcome out;
    std::uint64_t run0 = ticks();
    std::int32_t run = spans.begin("cpu.run");
    out.perf = session.cpu().run(kernel, backend, cfg.accessBudget, start);
    spans.aggregate("memsys.backend", backend.callTicks, backend.calls);
    spans.end(run);
    std::uint64_t run_ticks = ticks() - run0;
    sys.syncTo(start + out.perf.timeNs);

    tally.cpuSelfNs += spans.clock().ns(run_ticks - backend.callTicks);
    tally.cpuActs += dimm.totalActs() - acts0;
    tally.backendNs += spans.clock().ns(backend.callTicks);
    tally.backendCalls += backend.calls;
    ++tally.locations;
    tally.memReads += out.perf.memReads;
    tally.dramAccesses += out.perf.dramAccesses;
    tally.pfQueueDrops += out.perf.pfQueueDrops;
    std::uint64_t rec0 = ticks();
    backend.appendStream(tally.stream);
    tally.recordNs += spans.clock().ns(ticks() - rec0);

    {
        ScopedSpan s(spans, "hammer.verify");
        for (auto [bank, row] : victims) {
            ScopedSpan d(spans, "dram.diff_row");
            auto diffs = dimm.diffRow(bank, row, cfg.victimFill, sys.now());
            out.flipList.insert(out.flipList.end(), diffs.begin(),
                                diffs.end());
        }
    }
    out.flips = out.flipList.size();
    {
        ScopedSpan s(spans, "hammer.restore");
        for (auto [bank, row] : victims)
            dimm.fillRow(bank, row, cfg.victimFill, sys.now());
    }
    return out;
}

std::uint64_t
hammerDigest(const HammerOutcome &out, const MemorySystem &sys)
{
    Digest d;
    d.add(out.flips);
    d.addFlips(out.flipList);
    const PerfCounters &p = out.perf;
    d.add(p.memReads);
    d.add(p.dramAccesses);
    d.add(p.cacheHits);
    d.add(p.pfQueueDrops);
    d.add(p.flushes);
    d.add(p.branches);
    d.add(p.branchMispredicts);
    d.add(p.nops);
    d.addDouble(p.timeNs);
    d.addDouble(sys.now());
    const Dimm &dimm = sys.dimm();
    d.add(dimm.totalActs());
    d.add(dimm.trrRefreshCount());
    d.add(dimm.rfmCommandCount());
    d.add(dimm.pracAlertCount());
    return d.value();
}

// ---------------------------------------------------------------------
// Device-path replay

namespace
{

struct ReplayCost
{
    double ns = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t acts = 0;
    std::uint64_t rowHits = 0;
};

ReplayCost
replayOnce(const SystemSpec &spec, const std::vector<DramAddr> &addrs,
           const std::vector<Command> &stream)
{
    MemorySystem sys = spec.instantiate(1);
    MemoryController &mc = sys.controller();
    ReplayCost c;
    std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < addrs.size(); ++i)
        c.rowHits += mc.access(addrs[i], stream[i].when).rowHit ? 1 : 0;
    c.ns = static_cast<double>(nowNs() - t0);
    c.accesses = addrs.size();
    c.acts = sys.dimm().totalActs();
    return c;
}

/**
 * Replay the stream under each spec `repeats` times, interleaved so
 * host drift hits every spec alike; per spec the median-time replay.
 */
std::vector<ReplayCost>
replayAll(const std::vector<SystemSpec> &specs,
          const std::vector<Command> &stream, unsigned repeats)
{
    std::vector<DramAddr> addrs;
    addrs.reserve(stream.size());
    {
        MemorySystem decoder = specs.front().instantiate(1);
        for (const Command &c : stream)
            addrs.push_back(decoder.controller().decode(c.pa));
    }
    std::vector<std::vector<ReplayCost>> runs(specs.size());
    for (unsigned r = 0; r < repeats; ++r) {
        for (std::size_t s = 0; s < specs.size(); ++s)
            runs[s].push_back(replayOnce(specs[s], addrs, stream));
    }
    std::vector<ReplayCost> out;
    for (auto &v : runs) {
        std::sort(v.begin(), v.end(),
                  [](const ReplayCost &a, const ReplayCost &b) {
                      return a.ns < b.ns;
                  });
        out.push_back(v[v.size() / 2]);
    }
    return out;
}

} // namespace

void
DeviceCosts::add(const SystemSpec &spec, const std::vector<Command> &stream)
{
    if (stream.empty())
        return;
    std::vector<SystemSpec> specs = {spec};
    int trr = -1, rfm = -1, prac = -1;
    if (spec.trr.enabled) {
        trr = static_cast<int>(specs.size());
        specs.push_back(spec);
        specs.back().trr.enabled = false;
    }
    if (spec.rfm.enabled) {
        rfm = static_cast<int>(specs.size());
        specs.push_back(spec);
        specs.back().rfm.enabled = false;
    }
    if (spec.prac.enabled) {
        prac = static_cast<int>(specs.size());
        specs.push_back(spec);
        specs.back().prac.enabled = false;
    }
    std::vector<ReplayCost> c = replayAll(specs, stream, 3);
    fullNs += c[0].ns;
    acts += c[0].acts;
    accesses += c[0].accesses;
    rowHits += c[0].rowHits;
    if (trr >= 0) {
        trrNs += c[0].ns - c[trr].ns;
        trrActs += c[0].acts;
    }
    if (rfm >= 0) {
        rfmNs += c[0].ns - c[rfm].ns;
        rfmActs += c[0].acts;
    }
    if (prac >= 0) {
        pracNs += c[0].ns - c[prac].ns;
        pracActs += c[0].acts;
    }
}

void
DeviceCosts::report(std::map<std::string, double> &layers) const
{
    auto per = [](double ns, std::uint64_t n) {
        return n ? ns / static_cast<double>(n) : 0.0;
    };
    layers["dram.access_ns_per_act"] = per(fullNs, acts);
    layers["dram.row_hit_frac"] =
        accesses ? static_cast<double>(rowHits) / accesses : 0.0;
    layers["dram.trr_ns_per_act"] = per(trrNs, trrActs);
    layers["dram.rfm_ns_per_act"] = per(rfmNs, rfmActs);
    layers["dram.prac_ns_per_act"] = per(pracNs, pracActs);
}

void
reportHammerLayers(const HammerTally &tally, const SpanRecorder &spans,
                   std::map<std::string, double> &layers)
{
    // Each decorated call reads the clock twice; charge one read to
    // each side and take both out.
    double clock_ns =
        spans.clock().readCostNs * static_cast<double>(tally.backendCalls);
    double cpu_ns = std::max(0.0, tally.cpuSelfNs - clock_ns);
    double backend_ns = std::max(0.0, tally.backendNs - clock_ns);
    layers["cpu.replay_ns_per_act"] =
        tally.cpuActs ? cpu_ns / static_cast<double>(tally.cpuActs) : 0.0;
    layers["memsys.backend_ns_per_call"] =
        tally.backendCalls
            ? backend_ns / static_cast<double>(tally.backendCalls)
            : 0.0;
    layers["memsys.backend_calls"] = static_cast<double>(tally.backendCalls);
    layers["cpu.dram_access_frac"] =
        tally.memReads ? static_cast<double>(tally.dramAccesses)
                             / static_cast<double>(tally.memReads)
                       : 0.0;
    layers["cpu.pf_queue_drops"] = static_cast<double>(tally.pfQueueDrops);

    layers["memsys.instantiate_us"] = spans.meanNs("memsys.instantiate") / 1e3;
    layers["hammer.pattern_gen_us"] = spans.meanNs("hammer.pattern_gen") / 1e3;
    layers["hammer.build_kernel_us"] =
        spans.meanNs("hammer.build_kernel") / 1e3;
    layers["dram.diff_row_us"] = spans.meanNs("dram.diff_row") / 1e3;
    std::map<std::string, double> total = spans.totalNs();
    layers["hammer.fill_verify_us_per_location"] =
        tally.locations ? (total["hammer.fill"] + total["hammer.verify"]
                           + total["hammer.restore"])
                              / static_cast<double>(tally.locations) / 1e3
                        : 0.0;
}

} // namespace rhobench
