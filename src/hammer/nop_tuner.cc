#include "hammer/nop_tuner.hh"

#include "trace/tracer.hh"

namespace rho
{

NopTuneResult
tuneNops(HammerSession &session, const HammerPattern &pattern,
         HammerConfig cfg, const std::vector<unsigned> &nop_counts,
         unsigned locations)
{
    NopTuneResult res;

    // Use the same locations for every point so the sweep compares
    // like with like (flippability is location-dependent).
    std::vector<HammerLocation> locs;
    for (unsigned l = 0; l < locations; ++l) {
        LocationPick pick = session.tryRandomLocation(pattern, cfg);
        if (!pick.ok()) {
            res.failure = pick.failure;
            return res;
        }
        locs.push_back(*pick.loc);
    }

    MemorySystem &sys = session.system();
    RHO_TRACE(sys.tracer(), sys.now(), EventKind::PhaseBegin, 0,
              static_cast<std::uint32_t>(SimPhase::NopTune),
              nop_counts.size(), locations);
    for (unsigned n : nop_counts) {
        cfg.barrier = BarrierKind::Nop;
        cfg.nopCount = n;
        NopTunePoint pt{n, 0, 0.0, 0.0};
        double miss_sum = 0.0;
        for (const auto &loc : locs) {
            HammerOutcome out = session.hammer(pattern, loc, cfg);
            pt.flips += out.flips;
            pt.timeNs += out.perf.timeNs;
            miss_sum += out.perf.missRate();
        }
        pt.missRate = locations ? miss_sum / locations : 0.0;
        res.curve.push_back(pt);
        if (pt.flips > res.bestFlips) {
            res.bestFlips = pt.flips;
            res.bestNops = n;
        }
    }
    RHO_TRACE(sys.tracer(), sys.now(), EventKind::PhaseEnd, 0,
              static_cast<std::uint32_t>(SimPhase::NopTune), res.bestNops,
              res.bestFlips);
    return res;
}

} // namespace rho
