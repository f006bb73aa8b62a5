#include "cpu/sim_cpu.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace rho
{

Ns
MemoryBackend::dramAccessResolved(const void *handle, Ns now)
{
    (void)handle;
    (void)now;
    fatal("MemoryBackend::dramAccessResolved: backend returned a resolved "
          "handle but does not implement the resolved access path");
}

SimCpu::SimCpu(const ArchParams &params, std::uint64_t seed,
               CpuModelKind model)
    : arch(params), kind(model), rng(seed)
{
    // Blocked-engine ring capacities are bounded by the occupancy
    // checks in the replay loop (an entry is popped before a push once
    // the limit is reached), so the next power of two is enough.
    pfRing.init(arch.pfQueueSize);
    lqRing.init(arch.lqSize);
    sbRing.init(arch.sbSize);
    robRing.init(arch.robSize);
    lfbRing.init(arch.lfbSize);
}

void
SimCpu::TimeRing::init(std::size_t capacity)
{
    std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 1));
    buf.assign(cap, 0.0);
    mask = cap - 1;
    head = count = 0;
}

Ns
SimCpu::lfbAcquire(Ns t)
{
    if (lfb.size() < arch.lfbSize)
        return t;
    std::pop_heap(lfb.begin(), lfb.end(), std::greater<>());
    Ns earliest = lfb.back();
    lfb.pop_back();
    return std::max(t, earliest);
}

void
SimCpu::lfbRelease(Ns release_at)
{
    lfb.push_back(release_at);
    std::push_heap(lfb.begin(), lfb.end(), std::greater<>());
}

// Same contract as lfbAcquire against the sorted ring: when the pool is
// full, evict the earliest release time, which is the front. Equal
// release times are identical values, so the grant is the value the
// heap returns.
Ns
SimCpu::lfbAcquireFlat(Ns t)
{
    if (lfbRing.size() < arch.lfbSize)
        return t;
    Ns earliest = lfbRing.front();
    lfbRing.popFront();
    return std::max(t, earliest);
}

// Advance `now` to `ready` because a back-end resource (0 = ROB,
// 1 = load queue, 2 = store buffer) is full; traces the stall when it
// actually costs time.
void
SimCpu::stallTo(Ns ready, std::uint32_t resource)
{
    if (ready > now) {
        RHO_TRACE(tracer, now, EventKind::InstrStall, 0, resource, 0,
                  traceBits(ready - now));
        now = ready;
    }
}

void
SimCpu::robPush(Ns completion)
{
    if (rob.size() >= arch.robSize) {
        // In-order retirement: the head must commit before a new slot
        // frees up; commits cannot reorder, so retire time is monotone.
        lastRobRetire = std::max(lastRobRetire, rob.front());
        rob.pop_front();
        stallTo(lastRobRetire, 0);
    }
    rob.push_back(completion);
}

Ns
SimCpu::dram(MemoryBackend &mem, PhysAddr pa, Ns t)
{
    // The controller sees a monotone command stream.
    lastDramTime = std::max(lastDramTime, t);
    return mem.dramAccess(pa, lastDramTime);
}

void
SimCpu::resetRunState(const HammerKernel &kernel,
                      std::uint64_t mem_read_budget, Ns start_ns)
{
    // Fresh micro-architectural state; lines start uncached (the
    // attack flushes its working set before hammering).
    cache = CacheModel(kernel.numLines());
    lfb.clear();
    pfQueue.clear();
    loadQueue.clear();
    storeBuffer.clear();
    rob.clear();
    lfbRing.clear();
    pfRing.clear();
    lqRing.clear();
    sbRing.clear();
    robRing.clear();
    bp.reset();
    now = start_ns;
    lastMemIssue = -1e18;
    lastLoadComplete = lastAddrLoadComplete = 0.0;
    lastFlushDone = lastFillDone = 0.0;
    lastRobRetire = lastLoadRetire = 0.0;
    lastDramTime = start_ns;
    lastLoadGrant = lastPfGrant = -1e18;
    ctr = PerfCounters{};
    budget = mem_read_budget;
}

PerfCounters
SimCpu::run(const HammerKernel &kernel, MemoryBackend &mem,
            std::uint64_t mem_read_budget, Ns start_ns)
{
    const auto &body = kernel.body();
    if (body.empty() || kernel.memReadsPerPeriod() == 0)
        fatal("SimCpu::run: kernel has no memory reads");

    resetRunState(kernel, mem_read_budget, start_ns);

    // A zero budget is satisfied before any memory op runs; the
    // reference loop's after-every-op check then stops after exactly
    // one op. The blocked loop only checks at memory ops (the only
    // sites where memReads changes), so route that edge to the
    // reference engine instead of carrying per-op checks for it.
    if (kind == CpuModelKind::Reference || budget == 0) {
        bool done = false;
        while (!done) {
            for (std::uint64_t i = 0; i < body.size(); ++i) {
                execOp(body[i], kernel, mem, i);
                if (ctr.memReads >= budget) {
                    done = true;
                    break;
                }
            }
        }
    } else {
        // Compile + resolve once per run (linear in the body), then
        // replay with the variant specialized for this run's tracer
        // and addressing mode.
        // NOP runs fuse into the following memory op only when the run
        // needs no InstrRetire trace event of its own.
        plan.compile(kernel, arch, /*fuse_nop_runs=*/tracer == nullptr);
        plan.resolveLines(mem);
        bool indexed = kernel.mode() == AddressingMode::CppIndexed;
        if (tracer) {
            if (indexed)
                replayBlocked<true, true>(mem);
            else
                replayBlocked<true, false>(mem);
        } else {
            if (indexed)
                replayBlocked<false, true>(mem);
            else
                replayBlocked<false, false>(mem);
        }
    }

    ctr.timeNs = now - start_ns;
    return ctr;
}

/**
 * Replay the compiled plan. Every arithmetic expression here is the
 * hoisted twin of one in execOp() — evaluated in the same order on the
 * same values, so clocks, counters, randomness consumption and the
 * DRAM command stream are bit-identical to the reference engine (the
 * oracle suite enforces this). The wins are strictly structural: no
 * per-op divisions, no deque/heap bookkeeping, no address re-decode
 * (pre-resolved handles), and no trace guards when untraced.
 */
template <bool Traced, bool Indexed>
void
SimCpu::replayBlocked(MemoryBackend &mem)
{
    const PlanOp *const ops = plan.ops.data();
    const std::size_t n = plan.ops.size();
    const Ns fetch_delta = plan.fetchDelta;
    const Ns addr_gen_delta = plan.addrGenDelta;
    const Ns l1_hit_delta = plan.l1HitDelta;
    const Ns rob_issue_delta = plan.robIssueDelta;
    const Rng::Coin jitter_coin = plan.flushJitterCoin;
    const Rng::Coin branch_coin = plan.branchCoin;
    const bool flush_sync = arch.flushSynchronous;
    const Ns flush_lat_base = arch.flushLatencyNs;
    const Ns jitter_add = arch.flushJitterNs;

    for (;;) {
        for (std::size_t i = 0; i < n; ++i) {
            const PlanOp &op = ops[i];
            switch (op.code) {
              case PlanCode::Nop:
                now += op.d0; // cyc(nopCyc) * count
                ctr.nops += op.count;
                if constexpr (Traced) {
                    RHO_TRACE(tracer, now, EventKind::InstrRetire, 0,
                              static_cast<std::uint32_t>(op.rawKind), 0,
                              op.count);
                }
                break;

              case PlanCode::Alu:
                now += op.d0; // cyc(aluCyc) * count
                if constexpr (Traced) {
                    RHO_TRACE(tracer, now, EventKind::InstrRetire, 0,
                              static_cast<std::uint32_t>(op.rawKind), 0,
                              op.count);
                }
                break;

              case PlanCode::Lfence: {
                Ns ready = std::max(lastLoadComplete, lastAddrLoadComplete);
                if (ready > now)
                    now = ready + op.d0; // cyc(lfenceCyc): wait + restart
                else
                    now += op.d1; // cyc(lfenceIssueCyc): nothing to drain
                break;
              }

              case PlanCode::Mfence: {
                Ns ready = std::max({lastLoadComplete, lastAddrLoadComplete,
                                     lastFlushDone});
                now = std::max(now + op.d0, ready);
                break;
              }

              case PlanCode::Cpuid: {
                Ns ready = std::max({lastLoadComplete, lastAddrLoadComplete,
                                     lastFlushDone, lastFillDone});
                now = std::max(now + op.d0, ready);
                break;
              }

              case PlanCode::BranchObf: {
                ++ctr.branches;
                now += op.d0; // cyc(obfOverheadCyc)
                bool taken = rng.flip(branch_coin); // chance(0.5)
                // Reference: `taken ? 1 + uniformInt(0, 7) : 0`. That
                // gates a draw on a coin flip — an unpredictable host
                // branch. Peek the would-be draw, advance the stream
                // only if taken, and mask the target instead.
                // uniformInt(0, 7)'s Lemire downscale is one draw with
                // no rejection (8 divides 2^64) and reduces to x >> 61.
                std::uint64_t tdraw = rng.peek();
                rng.consumeIf(taken);
                std::uint64_t target = (1 + (tdraw >> 61))
                    & (0 - static_cast<std::uint64_t>(taken));
                bool miss = bp.predictAndUpdate(op.pcHash, taken, target);
                // Select arithmetic, not control flow: `miss` is
                // random here, so a host branch on it mispredicts at
                // the full random rate. Adding 0.0 on a hit leaves the
                // clock bit-identical (now > 0, so no -0.0 edge).
                ctr.branchMispredicts += miss;
                now += static_cast<double>(miss) * op.d1;
                if constexpr (Traced) {
                    if (miss) {
                        RHO_TRACE(tracer, now, EventKind::PipelineFlush, 0,
                                  1, op.opIndex, 0);
                    }
                }
                break;
              }

              case PlanCode::BranchLoop: {
                ++ctr.branches;
                now += op.d0; // cyc(0.25)
                bool miss = bp.predictAndUpdate(op.pcHash, true,
                                                /*target=*/1);
                ctr.branchMispredicts += miss;
                now += static_cast<double>(miss) * op.d1;
                if constexpr (Traced) {
                    if (miss) {
                        RHO_TRACE(tracer, now, EventKind::PipelineFlush, 0,
                                  0, op.opIndex, 0);
                    }
                }
                break;
              }

              // Fused cases: perform the NOP run's own clock addition
              // (the same `now += cyc(nopCyc) * count` the unfused op
              // would) and fall through into the unchanged memory-op
              // body — fusion merges dispatch, never arithmetic.
              case PlanCode::NopFlush:
                now += op.d1; // cyc(nopCyc) * count
                ctr.nops += op.count;
                [[fallthrough]];
              case PlanCode::Flush: {
                now += fetch_delta;
                Ns issue = now;
                if constexpr (Indexed) {
                    issue = std::max(issue, lastMemIssue + addr_gen_delta);
                    lastAddrLoadComplete = std::max(lastAddrLoadComplete,
                                                    issue + l1_hit_delta);
                }
                ++ctr.flushes;
                // The jitter coin is random: consume it branchlessly
                // (false adds 0.0, leaving the latency bit-identical).
                // A coin of probability 0 draws nothing, as the
                // reference's `flushJitterProb > 0` gate.
                Ns flush_lat = flush_lat_base
                    + static_cast<double>(rng.flip(jitter_coin)) * jitter_add;
                Ns done = cache.recordFlush(op.line, issue, flush_lat);
                if (done >= 0.0) {
                    lastFlushDone = std::max(lastFlushDone, done);
                    if (sbRing.size() >= arch.sbSize) {
                        stallTo(sbRing.front(), 2);
                        sbRing.popFront();
                    }
                    sbRing.pushBack(done);
                    // Synchronous flush ISAs (DC CIVAC + DSB): dispatch
                    // resumes only once the line is clean.
                    if (flush_sync)
                        now = std::max(now, done);
                }
                if (robRing.size() >= arch.robSize) {
                    lastRobRetire = std::max(lastRobRetire, robRing.front());
                    robRing.popFront();
                    stallTo(lastRobRetire, 0);
                }
                robRing.pushBack(issue + rob_issue_delta);
                lastMemIssue = std::max(lastMemIssue, issue);
                break;
              }

              case PlanCode::NopLoad:
                now += op.d1; // cyc(nopCyc) * count
                ctr.nops += op.count;
                [[fallthrough]];
              case PlanCode::Load: {
                now += fetch_delta;
                Ns issue = now;
                if constexpr (Indexed) {
                    issue = std::max(issue, lastMemIssue + addr_gen_delta);
                    lastAddrLoadComplete = std::max(lastAddrLoadComplete,
                                                    issue + l1_hit_delta);
                }
                ++ctr.memReads;
                Ns completion;
                if (cache.presentOrInFlight(op.line, issue)) {
                    ++ctr.cacheHits;
                    if constexpr (Traced) {
                        RHO_TRACE(tracer, issue, EventKind::CacheHit, 0, 0,
                                  op.pa, 0);
                    }
                    completion = std::max(issue, cache.fillDone(op.line))
                        + l1_hit_delta;
                } else {
                    if constexpr (Traced) {
                        RHO_TRACE(tracer, issue, EventKind::CacheMiss, 0, 0,
                                  op.pa, 0);
                    }
                    Ns grant = lfbAcquireFlat(std::max(
                        issue, lastLoadGrant + arch.loadIssueOccupancyNs));
                    lastLoadGrant = grant;
                    lastDramTime = std::max(lastDramTime, grant);
                    Ns lat = op.handle
                        ? mem.dramAccessResolved(op.handle, lastDramTime)
                        : mem.dramAccess(op.pa, lastDramTime);
                    completion = grant + lat + arch.loadExtraNs;
                    lfbReleaseFlat(completion);
                    cache.recordFill(op.line, completion);
                    ++ctr.dramAccesses;
                    lastFillDone = std::max(lastFillDone, completion);
                }
                if (lqRing.size() >= arch.lqSize) {
                    lastLoadRetire = std::max(lastLoadRetire,
                                              lqRing.front());
                    lqRing.popFront();
                    stallTo(lastLoadRetire, 1);
                }
                lqRing.pushBack(completion);
                if (robRing.size() >= arch.robSize) {
                    lastRobRetire = std::max(lastRobRetire, robRing.front());
                    robRing.popFront();
                    stallTo(lastRobRetire, 0);
                }
                robRing.pushBack(completion);
                lastLoadComplete = std::max(lastLoadComplete, completion);
                lastMemIssue = std::max(lastMemIssue, issue);
                if (ctr.memReads >= budget)
                    return;
                break;
              }

              case PlanCode::NopPrefetch:
                now += op.d1; // cyc(nopCyc) * count
                ctr.nops += op.count;
                [[fallthrough]];
              case PlanCode::Prefetch: {
                now += fetch_delta;
                Ns issue = now;
                if constexpr (Indexed) {
                    issue = std::max(issue, lastMemIssue + addr_gen_delta);
                    lastAddrLoadComplete = std::max(lastAddrLoadComplete,
                                                    issue + l1_hit_delta);
                }
                ++ctr.memReads;
                // Prefetch retires as soon as the address resolves.
                if (robRing.size() >= arch.robSize) {
                    lastRobRetire = std::max(lastRobRetire, robRing.front());
                    robRing.popFront();
                    stallTo(lastRobRetire, 0);
                }
                robRing.pushBack(issue + rob_issue_delta);
                if (cache.presentOrInFlight(op.line, issue)) {
                    ++ctr.cacheHits;
                    if constexpr (Traced) {
                        RHO_TRACE(tracer, issue, EventKind::CacheHit, 1, 0,
                                  op.pa, 0);
                    }
                } else {
                    while (!pfRing.empty() && pfRing.front() <= issue)
                        pfRing.popFront();
                    if (pfRing.size() >= arch.pfQueueSize) {
                        ++ctr.pfQueueDrops;
                        if constexpr (Traced) {
                            RHO_TRACE(tracer, issue, EventKind::PrefetchDrop,
                                      0, 0, op.pa, 0);
                        }
                    } else {
                        Ns base = pfRing.empty()
                            ? issue : std::max(issue, pfRing.back());
                        base = std::max(base,
                            lastPfGrant + arch.prefetchIssueOccupancyNs);
                        Ns grant = lfbAcquireFlat(base);
                        lastPfGrant = grant;
                        lastDramTime = std::max(lastDramTime, grant);
                        Ns lat = op.handle
                            ? mem.dramAccessResolved(op.handle, lastDramTime)
                            : mem.dramAccess(op.pa, lastDramTime);
                        Ns fill_done = grant + lat + op.d0; // hint extra
                        lfbReleaseFlat(fill_done);
                        cache.recordFill(op.line, fill_done);
                        pfRing.pushBack(grant);
                        ++ctr.dramAccesses;
                        if constexpr (Traced) {
                            RHO_TRACE(tracer, grant,
                                      EventKind::PrefetchIssue, 0, 0, op.pa,
                                      0);
                        }
                        lastFillDone = std::max(lastFillDone, fill_done);
                    }
                }
                lastMemIssue = std::max(lastMemIssue, issue);
                if (ctr.memReads >= budget)
                    return;
                break;
              }
            }
            // The reference engine checks the budget after every op;
            // the condition only becomes true where memReads changes,
            // so checking at the two memory-op sites stops at the
            // identical op (run() pre-handles the zero-budget edge).
        }
    }
}

void
SimCpu::execOp(const Op &op, const HammerKernel &kernel, MemoryBackend &mem,
               std::uint64_t op_index)
{
    bool indexed = kernel.mode() == AddressingMode::CppIndexed;

    switch (op.kind) {
      case OpKind::NopRun:
        // A run of NOPs occupies dispatch bandwidth (and transiently
        // ROB slots); its only effect is to space later ops out.
        now += cyc(arch.nopCyc) * op.count;
        ctr.nops += op.count;
        RHO_TRACE(tracer, now, EventKind::InstrRetire, 0,
                  static_cast<std::uint32_t>(op.kind), 0, op.count);
        return;

      case OpKind::AluDep:
        now += cyc(arch.aluCyc) * op.count;
        RHO_TRACE(tracer, now, EventKind::InstrRetire, 0,
                  static_cast<std::uint32_t>(op.kind), 0, op.count);
        return;

      case OpKind::Lfence: {
        // Waits for older loads (including the address-generation
        // loads of the indexed primitive) and blocks younger
        // execution. Does not wait for prefetch fills, so with
        // immediate (JIT) addressing and a pure prefetch stream it
        // retires almost immediately and orders nothing.
        Ns ready = std::max(lastLoadComplete, lastAddrLoadComplete);
        if (ready > now)
            now = ready + cyc(arch.lfenceCyc); // wait + restart
        else
            now += cyc(arch.lfenceIssueCyc); // nothing to drain
        return;
      }

      case OpKind::Mfence: {
        Ns ready = std::max({lastLoadComplete, lastAddrLoadComplete,
                             lastFlushDone});
        now = std::max(now + cyc(arch.mfenceCyc), ready);
        return;
      }

      case OpKind::Cpuid: {
        // Fully serializing: even prefetch fills must land first.
        Ns ready = std::max({lastLoadComplete, lastAddrLoadComplete,
                             lastFlushDone, lastFillDone});
        now = std::max(now + cyc(arch.cpuidCyc), ready);
        return;
      }

      case OpKind::BranchObf: {
        ++ctr.branches;
        now += cyc(arch.obfOverheadCyc);
        // rdrand-derived direction and one of 8 dispatch targets: the
        // predictor cannot learn either.
        bool taken = rng.chance(0.5);
        std::uint64_t target = taken ? 1 + rng.uniformInt(0, 7) : 0;
        bool miss =
            bp.predictAndUpdate(splitMix64(0x4000 + op_index), taken, target);
        if (miss) {
            ++ctr.branchMispredicts;
            now += cyc(arch.branchResolveCyc + arch.mispredictPenaltyCyc);
            RHO_TRACE(tracer, now, EventKind::PipelineFlush, 0, 1,
                      op_index, 0);
        }
        return;
      }

      case OpKind::BranchLoop: {
        ++ctr.branches;
        now += cyc(0.25);
        bool miss = bp.predictAndUpdate(splitMix64(0x8000 + op_index), true,
                                        /*target=*/1);
        if (miss) {
            ++ctr.branchMispredicts;
            now += cyc(arch.branchResolveCyc + arch.mispredictPenaltyCyc);
            RHO_TRACE(tracer, now, EventKind::PipelineFlush, 0, 0,
                      op_index, 0);
        }
        return;
      }

      case OpKind::ClFlushOpt: {
        now += cyc(1.0 / arch.fetchWidth);
        Ns issue = now;
        if (indexed) {
            issue = std::max(issue, lastMemIssue
                + cyc(arch.addrGenLatencyCyc * arch.depChainBreakFactor));
            lastAddrLoadComplete = std::max(lastAddrLoadComplete,
                                            issue + cyc(arch.l1HitCyc));
        }
        ++ctr.flushes;
        // Residual speculative disorder: occasionally the weakly
        // ordered flush is delayed far beyond its nominal latency and
        // the next same-line access still hits the stale line. This
        // cannot be fenced or NOP-padded away, and is the dominant
        // effect on Alder/Raptor Lake.
        Ns flush_lat = arch.flushLatencyNs;
        if (arch.flushJitterProb > 0.0 && rng.chance(arch.flushJitterProb))
            flush_lat += arch.flushJitterNs;
        Ns done = cache.recordFlush(op.line, issue, flush_lat);
        if (done >= 0.0) {
            lastFlushDone = std::max(lastFlushDone, done);
            // The flush holds a store-buffer entry until it completes;
            // a full buffer stalls dispatch, pacing the front end to
            // memory reality.
            if (storeBuffer.size() >= arch.sbSize) {
                stallTo(storeBuffer.front(), 2);
                storeBuffer.pop_front();
            }
            storeBuffer.push_back(done);
            // Synchronous flush ISAs (DC CIVAC + DSB): dispatch
            // resumes only once the line is clean.
            if (arch.flushSynchronous)
                now = std::max(now, done);
        }
        robPush(issue + cyc(1.0));
        lastMemIssue = std::max(lastMemIssue, issue);
        return;
      }

      case OpKind::Load:
      case OpKind::PrefetchT0:
      case OpKind::PrefetchT1:
      case OpKind::PrefetchT2:
      case OpKind::PrefetchNta:
        break; // handled below
    }

    // Memory read (load or prefetch).
    now += cyc(1.0 / arch.fetchWidth);
    Ns issue = now;
    if (indexed) {
        issue = std::max(issue, lastMemIssue
            + cyc(arch.addrGenLatencyCyc * arch.depChainBreakFactor));
        lastAddrLoadComplete = std::max(lastAddrLoadComplete,
                                        issue + cyc(arch.l1HitCyc));
    }
    ++ctr.memReads;
    PhysAddr pa = kernel.addrOf(op.line);

    if (op.kind == OpKind::Load) {
        Ns completion;
        if (cache.presentOrInFlight(op.line, issue)) {
            ++ctr.cacheHits;
            RHO_TRACE(tracer, issue, EventKind::CacheHit, 0, 0, pa, 0);
            completion = std::max(issue, cache.fillDone(op.line))
                + cyc(arch.l1HitCyc);
        } else {
            RHO_TRACE(tracer, issue, EventKind::CacheMiss, 0, 0, pa, 0);
            // Demand misses enter the memory subsystem with a minimum
            // spacing; this is what keeps single-threaded loads from
            // saturating DRAM bandwidth.
            Ns grant = lfbAcquire(std::max(
                issue, lastLoadGrant + arch.loadIssueOccupancyNs));
            lastLoadGrant = grant;
            Ns lat = dram(mem, pa, grant);
            completion = grant + lat + arch.loadExtraNs;
            // Loads hold their fill buffer for the full fill-to-use
            // path (fill into L1 + forwarding), unlike prefetches.
            lfbRelease(completion);
            cache.recordFill(op.line, completion);
            ++ctr.dramAccesses;
            lastFillDone = std::max(lastFillDone, completion);
        }
        if (loadQueue.size() >= arch.lqSize) {
            lastLoadRetire = std::max(lastLoadRetire, loadQueue.front());
            loadQueue.pop_front();
            stallTo(lastLoadRetire, 1);
        }
        loadQueue.push_back(completion);
        robPush(completion);
        lastLoadComplete = std::max(lastLoadComplete, completion);
    } else {
        // Prefetch: retires as soon as the address resolves.
        robPush(issue + cyc(1.0));
        if (cache.presentOrInFlight(op.line, issue)) {
            // Hint ignored: line present or still being flushed/filled.
            ++ctr.cacheHits;
            RHO_TRACE(tracer, issue, EventKind::CacheHit, 1, 0, pa, 0);
        } else {
            while (!pfQueue.empty() && pfQueue.front() <= issue)
                pfQueue.pop_front();
            if (pfQueue.size() >= arch.pfQueueSize) {
                ++ctr.pfQueueDrops;
                RHO_TRACE(tracer, issue, EventKind::PrefetchDrop, 0, 0,
                          pa, 0);
            } else {
                Ns base = pfQueue.empty()
                    ? issue : std::max(issue, pfQueue.back());
                base = std::max(base,
                    lastPfGrant + arch.prefetchIssueOccupancyNs);
                Ns grant = lfbAcquire(base);
                lastPfGrant = grant;
                Ns lat = dram(mem, pa, grant);
                Ns extra = op.kind == OpKind::PrefetchT0
                    ? arch.prefetchExtraT0Ns : arch.prefetchExtraNs;
                Ns fill_done = grant + lat + extra;
                lfbRelease(fill_done);
                cache.recordFill(op.line, fill_done);
                pfQueue.push_back(grant);
                ++ctr.dramAccesses;
                RHO_TRACE(tracer, grant, EventKind::PrefetchIssue, 0, 0,
                          pa, 0);
                lastFillDone = std::max(lastFillDone, fill_done);
            }
        }
    }
    lastMemIssue = std::max(lastMemIssue, issue);
}

} // namespace rho
