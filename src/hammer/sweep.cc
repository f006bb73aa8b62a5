#include "hammer/sweep.hh"

#include <algorithm>
#include <sstream>

#include "hammer/campaign.hh"

namespace rho
{

std::uint64_t
campaignKey(const SystemSpec &spec, const HammerConfig &cfg,
            std::uint64_t seed)
{
    std::uint64_t key = hashCombine(seed, 0x9a3fULL);
    key = hashCombine(key, static_cast<std::uint64_t>(spec.arch));
    for (char c : spec.dimm->id)
        key = hashCombine(key, static_cast<std::uint64_t>(c));
    key = hashCombine(key, static_cast<std::uint64_t>(cfg.instr));
    key = hashCombine(key, static_cast<std::uint64_t>(cfg.mode));
    key = hashCombine(key, cfg.numBanks);
    key = hashCombine(key, cfg.obfuscate ? 1 : 0);
    key = hashCombine(key, static_cast<std::uint64_t>(cfg.barrier));
    key = hashCombine(key, cfg.nopCount);
    key = hashCombine(key, cfg.accessBudget);
    key = hashCombine(key, cfg.victimFill);
    key = hashCombine(key, cfg.aggrFill);
    key = hashCombine(key, cfg.refSync ? 1 : 0);
    // Mitigation configuration: a bypass search runs many campaigns
    // against one checkpoint path that differ only in TRR/RFM/PRAC
    // settings; the key must separate them or a journal recorded under
    // one config would be replayed under another.
    key = hashCombine(key, spec.trr.enabled ? 1 : 0);
    key = hashCombine(key, spec.trr.counters);
    key = hashCombine(key, traceBits(spec.trr.sampleProb));
    key = hashCombine(key, spec.trr.matchThreshold);
    key = hashCombine(key, spec.trr.maxRefreshesPerTick);
    key = hashCombine(key, spec.trr.ptrr ? 1 : 0);
    key = hashCombine(key, traceBits(spec.trr.ptrrSampleProb));
    key = hashCombine(key, spec.trr.seed);
    key = hashCombine(key, spec.rfm.enabled ? 1 : 0);
    key = hashCombine(key, spec.rfm.raaimt);
    key = hashCombine(key, spec.rfm.refDecrement);
    key = hashCombine(key, spec.rfm.victimsPerRfm);
    key = hashCombine(key, spec.prac.enabled ? 1 : 0);
    key = hashCombine(key, spec.prac.threshold);
    key = hashCombine(key, spec.prac.aboSlots);
    // On-die ECC and refresh boosting change which flips a campaign
    // observes, so they separate journal identities too.
    key = hashCombine(key, spec.ecc.enabled ? 1 : 0);
    key = hashCombine(key, spec.ecc.codewordBytes);
    key = hashCombine(key, traceBits(spec.refreshBoost));
    return key;
}

HammerLocation
sweepLocationAt(const DimmGeometry &geom, const HammerPattern &pattern,
                std::uint64_t seed, unsigned index)
{
    std::uint64_t span = pattern.footprintRows() + 8;
    HammerLocation loc;
    loc.bank = static_cast<std::uint32_t>(hashCombine(seed, index)
                                          % geom.flatBanks());
    // Non-repeating rows: stride the bank space deterministically.
    std::uint64_t region =
        (geom.rowsPerBank - 16) / std::max<std::uint64_t>(span, 1);
    std::uint64_t slot = (index * 2654435761ULL) % region;
    loc.baseRow = 8 + slot * span;
    return loc;
}

SweepResult
sweep(HammerSession &session, const HammerPattern &pattern,
      const HammerConfig &cfg, unsigned num_locations, std::uint64_t seed)
{
    SweepResult res;
    MemorySystem &sys = session.system();
    const auto &geom = sys.dimm().geometry();

    Ns t0 = sys.now();
    for (unsigned l = 0; l < num_locations; ++l) {
        HammerLocation loc = sweepLocationAt(geom, pattern, seed, l);
        HammerOutcome out = session.hammer(pattern, loc, cfg);
        res.totalFlips += out.flips;
        res.flipsPerLocation.push_back(out.flips);
        res.cumulativeTimeNs.push_back(sys.now() - t0);
        for (const auto &f : out.flipList)
            res.flipList.push_back(f);
    }
    res.simTimeNs = sys.now() - t0;
    return res;
}

namespace
{

/** What one sweep task reports back for the ordered merge. */
struct SweepTaskResult
{
    std::uint64_t flips = 0;
    Ns simTimeNs = 0.0;
    std::vector<FlipRecord> flipList;
    DeviceTotals device;
    std::uint64_t dramAccesses = 0;
};

/**
 * One journal line: flips, sim time, flip records, then the metric
 * totals. The journal kind is "sweep3" — earlier formats ("sweep",
 * "sweep2" without the PRAC counter) do not parse and are discarded
 * via the kind mismatch.
 */
std::string
serializeSweepTask(const SweepTaskResult &r)
{
    std::ostringstream out;
    out << r.flips << " " << encodeDouble(r.simTimeNs) << " "
        << r.flipList.size();
    for (const FlipRecord &f : r.flipList) {
        out << " " << f.bank << " " << f.row << " " << f.bitOffset << " "
            << (f.toOne ? 1 : 0) << " " << encodeDouble(f.when);
    }
    out << " " << r.device.acts << " " << r.device.trrRefreshes << " "
        << r.device.rfmCommands << " " << r.device.pracAlerts << " "
        << r.dramAccesses;
    return out.str();
}

bool
parseSweepTask(const std::string &payload, SweepTaskResult &r)
{
    std::istringstream in(payload);
    std::string sim_hex;
    std::size_t n = 0;
    if (!(in >> r.flips >> sim_hex >> n))
        return false;
    auto sim = decodeDouble(sim_hex);
    if (!sim)
        return false;
    r.simTimeNs = *sim;
    r.flipList.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        FlipRecord f{};
        int to_one = 0;
        std::string when_hex;
        if (!(in >> f.bank >> f.row >> f.bitOffset >> to_one >> when_hex))
            return false;
        auto when = decodeDouble(when_hex);
        if (!when)
            return false;
        f.toOne = to_one != 0;
        f.when = *when;
        r.flipList.push_back(f);
    }
    return static_cast<bool>(in >> r.device.acts >> r.device.trrRefreshes
                             >> r.device.rfmCommands
                             >> r.device.pracAlerts >> r.dramAccesses);
}

} // namespace

std::uint64_t
sweepJournalKey(const SystemSpec &spec, const HammerConfig &cfg,
                const SweepParams &params, const HammerPattern &pattern,
                std::uint64_t seed)
{
    std::uint64_t key = campaignKey(spec, cfg, seed);
    key = hashCombine(key, params.numLocations);
    key = hashCombine(key, pattern.id());
    return key;
}

SweepResult
sweepCampaign(const SystemSpec &spec, const HammerPattern &pattern,
              const HammerConfig &cfg, const SweepParams &params,
              std::uint64_t seed, ParallelStats *stats,
              MetricsRegistry *metrics, std::vector<TraceEvent> *trace)
{
    const DimmGeometry &geom = spec.dimm->geom;
    CampaignRunner<SweepTaskResult> runner(
        {.seed = seed,
         .jobs = params.jobs,
         .taskMask = params.taskMask,
         .trace = &spec.trace,
         .checkpointPath = params.checkpointPath,
         .journalKey = sweepJournalKey(spec, cfg, params, pattern, seed),
         .journal = params.journal},
        {SweepJournalKind, serializeSweepTask, parseSweepTask}, stats,
        trace);

    SweepResult res;
    unsigned merged = runner.run(
        0, params.numLocations,
        [&](unsigned i, std::uint64_t task_seed, Tracer *tracer) {
            MemorySystem sys(spec);
            HammerSession session(sys, task_seed);
            if (tracer)
                sys.attachTracer(tracer);
            HammerLocation loc = sweepLocationAt(geom, pattern, seed, i);
            Ns t0 = sys.now();
            HammerOutcome out = session.hammer(pattern, loc, cfg);
            SweepTaskResult r;
            r.flips = out.flips;
            r.simTimeNs = sys.now() - t0;
            r.flipList = std::move(out.flipList);
            r.device = DeviceTotals::of(sys.dimm());
            r.dramAccesses = out.perf.dramAccesses;
            return r;
        },
        [&](unsigned, const SweepTaskResult &t) {
            res.totalFlips += t.flips;
            res.flipsPerLocation.push_back(t.flips);
            res.simTimeNs += t.simTimeNs;
            res.cumulativeTimeNs.push_back(res.simTimeNs);
            res.flipList.insert(res.flipList.end(), t.flipList.begin(),
                                t.flipList.end());
            if (metrics)
                addTaskMetrics(*metrics, t.device, t.dramAccesses,
                               t.flips);
        });
    if (metrics)
        metrics->add("campaign.locations", merged);
    runner.finish(res.simTimeNs);
    return res;
}

} // namespace rho
