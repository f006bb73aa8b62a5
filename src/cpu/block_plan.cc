#include "cpu/block_plan.hh"

#include "cpu/sim_cpu.hh"

namespace rho
{

void
BlockPlan::compile(const HammerKernel &kernel, const ArchParams &arch,
                   bool fuse_nop_runs)
{
    // Identical expression to SimCpu::cyc — the deltas below must be
    // the same doubles the reference engine computes per op.
    auto cyc = [&arch](double cycles) { return cycles / arch.freqGhz; };

    indexed = kernel.mode() == AddressingMode::CppIndexed;
    fetchDelta = cyc(1.0 / arch.fetchWidth);
    flushJitterCoin = Rng::Coin(arch.flushJitterProb);
    addrGenDelta = cyc(arch.addrGenLatencyCyc * arch.depChainBreakFactor);
    l1HitDelta = cyc(arch.l1HitCyc);
    robIssueDelta = cyc(1.0);

    const std::vector<Op> &body = kernel.body();
    ops.clear();
    ops.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
        const Op &o = body[i];
        PlanOp p;
        p.rawKind = o.kind;
        p.line = o.line;
        p.count = o.count;
        p.opIndex = static_cast<std::uint32_t>(i);
        switch (o.kind) {
          case OpKind::NopRun:
            p.code = PlanCode::Nop;
            p.d0 = cyc(arch.nopCyc) * o.count;
            break;
          case OpKind::AluDep:
            p.code = PlanCode::Alu;
            p.d0 = cyc(arch.aluCyc) * o.count;
            break;
          case OpKind::Lfence:
            p.code = PlanCode::Lfence;
            p.d0 = cyc(arch.lfenceCyc);
            p.d1 = cyc(arch.lfenceIssueCyc);
            break;
          case OpKind::Mfence:
            p.code = PlanCode::Mfence;
            p.d0 = cyc(arch.mfenceCyc);
            break;
          case OpKind::Cpuid:
            p.code = PlanCode::Cpuid;
            p.d0 = cyc(arch.cpuidCyc);
            break;
          case OpKind::BranchObf:
            p.code = PlanCode::BranchObf;
            p.pcHash = splitMix64(0x4000 + static_cast<std::uint64_t>(i));
            p.d0 = cyc(arch.obfOverheadCyc);
            p.d1 = cyc(arch.branchResolveCyc + arch.mispredictPenaltyCyc);
            break;
          case OpKind::BranchLoop:
            p.code = PlanCode::BranchLoop;
            p.pcHash = splitMix64(0x8000 + static_cast<std::uint64_t>(i));
            p.d0 = cyc(0.25);
            p.d1 = cyc(arch.branchResolveCyc + arch.mispredictPenaltyCyc);
            break;
          case OpKind::ClFlushOpt:
            p.code = PlanCode::Flush;
            break;
          case OpKind::Load:
            p.code = PlanCode::Load;
            p.pa = kernel.addrOf(o.line);
            break;
          case OpKind::PrefetchT0:
          case OpKind::PrefetchT1:
          case OpKind::PrefetchT2:
          case OpKind::PrefetchNta:
            p.code = PlanCode::Prefetch;
            p.pa = kernel.addrOf(o.line);
            // Hint-dependent fill extra, selected once here.
            p.d0 = o.kind == OpKind::PrefetchT0 ? arch.prefetchExtraT0Ns
                                                : arch.prefetchExtraNs;
            break;
        }
        // Fuse a NOP run into the memory op that follows it: replace
        // the pending Nop and retag this op, moving the run's delta
        // into d1 (unused by memory ops) and its count into count.
        // The replay case performs the identical two clock additions;
        // only the dispatch merges. Never fuses across the period
        // boundary (the Nop would prefix the wrong op on wrap).
        if (fuse_nop_runs && !ops.empty() && i > 0
            && ops.back().code == PlanCode::Nop
            && (p.code == PlanCode::Flush || p.code == PlanCode::Load
                || p.code == PlanCode::Prefetch)) {
            PlanOp nop = ops.back();
            ops.pop_back();
            p.d1 = nop.d0;
            p.count = nop.count;
            p.code = p.code == PlanCode::Flush ? PlanCode::NopFlush
                : p.code == PlanCode::Load     ? PlanCode::NopLoad
                                               : PlanCode::NopPrefetch;
        }
        ops.push_back(p);
    }
}

void
BlockPlan::resolveLines(MemoryBackend &mem)
{
    // resolveLine memoizes per backend, so repeated lines cost one
    // hash lookup each; a backend without a resolved path returns
    // nullptr and replay uses the plain pa-based access.
    for (PlanOp &p : ops) {
        if (p.code == PlanCode::Load || p.code == PlanCode::Prefetch
            || p.code == PlanCode::NopLoad
            || p.code == PlanCode::NopPrefetch)
            p.handle = mem.resolveLine(p.pa);
    }
}

} // namespace rho
