#include "hammer/hammer_session.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "hammer/ref_sync.hh"

namespace rho
{

OpKind
opKindOf(HammerInstr instr)
{
    switch (instr) {
      case HammerInstr::Load: return OpKind::Load;
      case HammerInstr::PrefetchT0: return OpKind::PrefetchT0;
      case HammerInstr::PrefetchT1: return OpKind::PrefetchT1;
      case HammerInstr::PrefetchT2: return OpKind::PrefetchT2;
      case HammerInstr::PrefetchNta: return OpKind::PrefetchNta;
    }
    panic("opKindOf: bad instr");
}

std::string
hammerInstrName(HammerInstr instr)
{
    switch (instr) {
      case HammerInstr::Load: return "load";
      case HammerInstr::PrefetchT0: return "pref-t0";
      case HammerInstr::PrefetchT1: return "pref-t1";
      case HammerInstr::PrefetchT2: return "pref-t2";
      case HammerInstr::PrefetchNta: return "pref-nta";
    }
    panic("hammerInstrName: bad instr");
}

HammerSession::HammerSession(MemorySystem &sys_, std::uint64_t seed)
    : sys(sys_), core(sys_.cpuParams(), seed, sys_.cpuModel()),
      rng(seed ^ 0x5e5510)
{
}

std::uint32_t
HammerSession::bankAt(const HammerLocation &loc, unsigned idx) const
{
    return (loc.bank + idx) % sys.mapping().numBanks();
}

HammerKernel
HammerSession::buildKernel(const HammerPattern &pattern,
                           const HammerLocation &loc,
                           const HammerConfig &cfg) const
{
    HammerKernel kernel(cfg.mode);
    const AddressMapping &map = sys.mapping();
    OpKind hammer_op = opKindOf(cfg.instr);

    // Precompute physical addresses: pair x bank x side.
    std::vector<PhysAddr> addrs;
    addrs.reserve(pattern.numPairs() * cfg.numBanks * 2);
    for (unsigned pair = 0; pair < pattern.numPairs(); ++pair) {
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            std::uint64_t base = loc.baseRow + pattern.pairRowOffset(pair);
            addrs.push_back(map.rowToPhys(bankAt(loc, b), base));
            addrs.push_back(map.rowToPhys(bankAt(loc, b), base + 2));
        }
    }

    for (unsigned slot_idx = 0; slot_idx < pattern.slots().size();
         ++slot_idx) {
        unsigned pair = pattern.slots()[slot_idx];
        if (cfg.obfuscate)
            kernel.push({OpKind::BranchObf, 0, 1});
        // SledgeHammer interleaving: per aggressor side, hit the
        // replicated banks back to back.
        for (unsigned side = 0; side < 2; ++side) {
            for (unsigned b = 0; b < cfg.numBanks; ++b) {
                PhysAddr pa =
                    addrs[(pair * cfg.numBanks + b) * 2 + side];
                if (cfg.barrier == BarrierKind::Nop)
                    kernel.pushNops(cfg.nopCount);
                kernel.pushMem(hammer_op, pa);
                kernel.pushMem(OpKind::ClFlushOpt, pa);
                switch (cfg.barrier) {
                  case BarrierKind::Lfence:
                    kernel.push({OpKind::Lfence, 0, 1});
                    break;
                  case BarrierKind::Mfence:
                    kernel.push({OpKind::Mfence, 0, 1});
                    break;
                  case BarrierKind::Cpuid:
                    kernel.push({OpKind::Cpuid, 0, 1});
                    break;
                  case BarrierKind::None:
                  case BarrierKind::Nop:
                    break;
                }
            }
        }
    }
    kernel.push({OpKind::BranchLoop, 0, 1});
    return kernel;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
HammerSession::aggressorRows(const HammerPattern &pattern,
                             const HammerLocation &loc,
                             const HammerConfig &cfg) const
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> rows;
    for (unsigned pair = 0; pair < pattern.numPairs(); ++pair) {
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            std::uint64_t base = loc.baseRow + pattern.pairRowOffset(pair);
            rows.push_back({bankAt(loc, b), base});
            rows.push_back({bankAt(loc, b), base + 2});
        }
    }
    return rows;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
HammerSession::victimRows(const HammerPattern &pattern,
                          const HammerLocation &loc,
                          const HammerConfig &cfg) const
{
    auto aggs = aggressorRows(pattern, loc, cfg);
    std::set<std::pair<std::uint32_t, std::uint64_t>> agg_set(
        aggs.begin(), aggs.end());
    std::set<std::pair<std::uint32_t, std::uint64_t>> victims;
    std::uint64_t max_row = sys.dimm().geometry().rowsPerBank;
    for (auto [bank, row] : aggs) {
        for (int d = -2; d <= 2; ++d) {
            if (d == 0)
                continue;
            std::int64_t v = static_cast<std::int64_t>(row) + d;
            if (v < 0 || v >= static_cast<std::int64_t>(max_row))
                continue;
            auto key = std::make_pair(bank,
                                      static_cast<std::uint64_t>(v));
            if (!agg_set.count(key))
                victims.insert(key);
        }
    }
    return {victims.begin(), victims.end()};
}

LocationPick
HammerSession::tryRandomLocation(const HammerPattern &pattern,
                                 const HammerConfig &cfg)
{
    (void)cfg;
    const auto &geom = sys.dimm().geometry();
    std::uint64_t span = pattern.footprintRows() + 8;
    LocationPick pick;
    // Guard rows on both ends: baseRow >= 8 and span + 8 headroom
    // above. `rowsPerBank - span - 8` underflows (unsigned) for wide
    // patterns, which used to hand uniformInt a range near 2^64 and
    // place aggressors past the end of the bank.
    if (span + 16 > geom.rowsPerBank) {
        pick.failure = FailureCode::PatternUnplaceable;
        return pick;
    }
    HammerLocation loc;
    loc.bank = static_cast<std::uint32_t>(
        rng.uniformInt(0, geom.flatBanks() - 1));
    loc.baseRow = rng.uniformInt(8, geom.rowsPerBank - span - 8);
    pick.loc = loc;
    return pick;
}

void
HammerSession::maybeAlignToRef(const HammerConfig &cfg)
{
    if (!cfg.refSync)
        return;
    RefSyncDetector det(sys);
    RefSyncEstimate est = det.detect();
    if (est.detected)
        RefSyncDetector::align(sys, est);
}

HammerOutcome
HammerSession::hammerRaw(const HammerPattern &pattern,
                         const HammerLocation &loc,
                         const HammerConfig &cfg)
{
    Dimm &dimm = sys.dimm();
    // Align before the flip log is cleared: the detector's probe
    // train activates rows of its own, and any disturbance it causes
    // must not be attributed to the kernel.
    maybeAlignToRef(cfg);
    HammerKernel kernel = buildKernel(pattern, loc, cfg);

    // The session's core is constructed before any tracer is attached
    // to the system, so pick the current one up per run.
    Tracer *tr = sys.tracer();
    core.setTracer(tr);

    dimm.clearFlipLog();
    Ns start = sys.now();
    RHO_TRACE(tr, start, EventKind::PhaseBegin, 0,
              static_cast<std::uint32_t>(SimPhase::Hammer), loc.bank,
              loc.baseRow);
    PerfCounters perf = core.run(kernel, sys, cfg.accessBudget, start);
    sys.syncTo(start + perf.timeNs);

    HammerOutcome out;
    out.perf = perf;
    out.flipList = dimm.flipLog();
    out.flips = out.flipList.size();
    RHO_TRACE(tr, sys.now(), EventKind::PhaseEnd, 0,
              static_cast<std::uint32_t>(SimPhase::Hammer), loc.bank,
              out.flips);
    return out;
}

HammerOutcome
HammerSession::hammer(const HammerPattern &pattern,
                      const HammerLocation &loc, const HammerConfig &cfg)
{
    Dimm &dimm = sys.dimm();
    // Align first: the probe train disturbs rows near its conflict
    // pair, and fills planted afterwards give diffRow a clean
    // baseline.
    maybeAlignToRef(cfg);
    auto victims = victimRows(pattern, loc, cfg);
    auto aggs = aggressorRows(pattern, loc, cfg);

    // Plant the data patterns the attacker checks against.
    for (auto [bank, row] : victims)
        dimm.fillRow(bank, row, cfg.victimFill, sys.now());
    for (auto [bank, row] : aggs)
        dimm.fillRow(bank, row, cfg.aggrFill, sys.now());

    HammerKernel kernel = buildKernel(pattern, loc, cfg);

    Tracer *tr = sys.tracer();
    core.setTracer(tr);

    dimm.clearFlipLog();
    Ns start = sys.now();
    RHO_TRACE(tr, start, EventKind::PhaseBegin, 0,
              static_cast<std::uint32_t>(SimPhase::Hammer), loc.bank,
              loc.baseRow);
    PerfCounters perf = core.run(kernel, sys, cfg.accessBudget, start);
    sys.syncTo(start + perf.timeNs);

    HammerOutcome out;
    out.perf = perf;
    RHO_TRACE(tr, sys.now(), EventKind::PhaseEnd, 0,
              static_cast<std::uint32_t>(SimPhase::Hammer), loc.bank, 0);
    // Verify by diffing victim rows against the planted pattern (the
    // flip log is the same set; the diff is the attacker's view).
    RHO_TRACE(tr, sys.now(), EventKind::PhaseBegin, 0,
              static_cast<std::uint32_t>(SimPhase::Verify), loc.bank,
              loc.baseRow);
    for (auto [bank, row] : victims) {
        auto diffs = dimm.diffRow(bank, row, cfg.victimFill, sys.now());
        for (const auto &f : diffs)
            out.flipList.push_back(f);
    }
    out.flips = out.flipList.size();
    RHO_TRACE(tr, sys.now(), EventKind::PhaseEnd, 0,
              static_cast<std::uint32_t>(SimPhase::Verify), loc.bank,
              out.flips);

    // Restore victim data so repeated trials start clean.
    for (auto [bank, row] : victims)
        dimm.fillRow(bank, row, cfg.victimFill, sys.now());
    return out;
}

} // namespace rho
