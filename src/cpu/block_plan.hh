/**
 * @file
 * Blocked CPU-model replay plan: one hammer-kernel body decoded and
 * pre-resolved into a flat op array so SimCpu's Blocked engine can
 * replay its timing effects millions of times without re-deriving
 * anything per op.
 *
 * The reference engine re-computes, on every executed op: the
 * cycle-to-ns conversions (one FP divide per cyc() call, several per
 * memory op), the kernel's addressing mode, the line-id to physical
 * address translation, and — through MemoryBackend::dramAccess — the
 * GF(2) physical-to-DRAM address decode. All of that is static over a
 * run, so compile() hoists it into the plan once:
 *
 *  - every cycle cost becomes a pre-divided Ns delta,
 *  - every memory op carries its physical address and (when the
 *    backend offers one) a pre-decoded line handle,
 *  - every branch op carries its hashed predictor PC,
 *  - the addressing-mode dependency becomes a plan-wide flag the
 *    replay loop specializes on, and the flush-jitter and
 *    obfuscated-branch coins become plan-wide Rng::Coin thresholds.
 *
 * Bit-identity contract: a delta is the *same* floating-point
 * expression the reference engine evaluates, hoisted — never
 * algebraically rewritten (FP addition does not associate, so e.g.
 * consecutive NOP-run deltas are NOT fused). Replay therefore performs
 * the identical arithmetic in the identical order and produces
 * byte-identical counters, timestamps and DRAM command streams; the
 * differential oracle in tests/test_cpu_oracle.cc pins this.
 */

#ifndef RHO_CPU_BLOCK_PLAN_HH
#define RHO_CPU_BLOCK_PLAN_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/arch_params.hh"
#include "cpu/kernel.hh"

namespace rho
{

class MemoryBackend;

/**
 * Replay dispatch code. Collapses the four PREFETCHh hints into one
 * code (the hint only selects a pre-resolved fill delta) and keeps
 * state-dependent ops (branches, fences, flushes, memory) distinct so
 * the replay switch stays branch-predictable.
 */
enum class PlanCode : std::uint8_t
{
    Nop,
    Alu,
    Lfence,
    Mfence,
    Cpuid,
    BranchObf,
    BranchLoop,
    Flush,
    Load,
    Prefetch,
    // A NOP run fused with the memory op that follows it (the shape
    // every NOP-barrier hammer kernel has, ~2 of 3.5 ops per access).
    // The pair replays as the same two clock additions the unfused ops
    // perform — fusion removes a dispatch round-trip, never an FP add.
    // Only compiled when untraced (the run's InstrRetire event needs
    // its own emission point). d1 holds the NOP-run delta and count
    // the NOP count; the memory fields keep their usual meaning.
    NopFlush,
    NopLoad,
    NopPrefetch,
};

/**
 * One pre-resolved op. `d0`/`d1` are kind-specific pre-divided Ns
 * deltas (see compile()); `handle` is the backend's resolved line for
 * memory ops, or nullptr when the backend has no resolved fast path.
 */
struct PlanOp
{
    PlanCode code = PlanCode::Nop;
    OpKind rawKind = OpKind::NopRun; //!< original kind (trace payload)
    std::uint32_t line = 0;          //!< interned cache-line id
    std::uint32_t count = 1;         //!< repeat count (Nop/Alu runs)
    std::uint32_t opIndex = 0;       //!< body position (branch identity)
    std::uint64_t pcHash = 0;        //!< branch ops: splitMix64 of the PC
    PhysAddr pa = 0;                 //!< resolved physical address
    const void *handle = nullptr;    //!< pre-decoded line (may be null)
    Ns d0 = 0.0;
    Ns d1 = 0.0;
};

/** A compiled kernel body plus the plan-wide pre-resolved constants. */
class BlockPlan
{
  public:
    /**
     * Decode `kernel`'s body against `arch`. Cheap (linear in the
     * body, which is a few hundred ops) next to the millions of
     * replays a run performs, so callers recompile per run instead of
     * caching across kernels. Reuses this plan's storage.
     *
     * @param fuse_nop_runs fold each NOP run into the memory op that
     *        follows it (NopFlush/NopLoad/NopPrefetch). Pass false for
     *        traced runs, which need the run's own retire event.
     */
    void compile(const HammerKernel &kernel, const ArchParams &arch,
                 bool fuse_nop_runs);

    /**
     * Ask `mem` to pre-resolve every distinct line the plan touches
     * (MemoryBackend::resolveLine). Backends without a resolved fast
     * path leave the handles null and replay falls back to the
     * pa-based dramAccess — same behaviour, decode re-done per access.
     */
    void resolveLines(MemoryBackend &mem);

    const std::vector<PlanOp> &body() const { return ops; }

    // Plan-wide pre-resolved state (public: the replay engine is the
    // only consumer and reads them in its hottest loop).
    std::vector<PlanOp> ops;
    bool indexed = false;          //!< AddressingMode::CppIndexed
    Ns fetchDelta = 0.0;           //!< cyc(1 / fetchWidth)
    Rng::Coin flushJitterCoin{0.0}; //!< Coin(arch.flushJitterProb)
    Rng::Coin branchCoin{0.5};      //!< the obfuscated branch's direction
    Ns addrGenDelta = 0.0;         //!< cyc(addrGen * depChainBreak)
    Ns l1HitDelta = 0.0;           //!< cyc(l1HitCyc)
    Ns robIssueDelta = 0.0;        //!< cyc(1.0): retire-at-issue cost
};

} // namespace rho

#endif // RHO_CPU_BLOCK_PLAN_HH
