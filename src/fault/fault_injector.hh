/**
 * @file
 * FaultInjector: deterministic, seeded execution of a FaultSchedule.
 *
 * The injector is bound to the simulation clock and queried by the
 * components it perturbs (TimingProbe, Dimm, BuddyAllocator). Each
 * fault channel draws from its own Rng stream, seeded from
 * hashCombine(seed, channel), so enabling one channel never shifts
 * another channel's draw sequence — schedules compose without
 * perturbing each other's determinism.
 *
 * A channel only consumes a draw while its level is non-zero, so a
 * schedule with a channel entirely off is bit-identical to one where
 * that channel was never mentioned.
 */

#ifndef RHO_FAULT_FAULT_INJECTOR_HH
#define RHO_FAULT_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "fault/fault_schedule.hh"
#include "trace/tracer.hh"

namespace rho
{

/** Counters of every fault the injector actually delivered. */
struct FaultStats
{
    std::uint64_t timingPerturbations = 0;
    std::uint64_t flipsSuppressed = 0;
    std::uint64_t spuriousRefreshes = 0;
    std::uint64_t allocFailures = 0;
    std::uint64_t fragmentSpikes = 0;
    std::uint64_t workerCrashes = 0;
    std::uint64_t workerHangs = 0;
    std::uint64_t journalBitsFlipped = 0;

    std::uint64_t
    total() const
    {
        return timingPerturbations + flipsSuppressed + spuriousRefreshes +
               allocFailures + fragmentSpikes + workerCrashes +
               workerHangs + journalBitsFlipped;
    }

    /** One-line human-readable summary for bench/chaos output. */
    std::string summary() const;
};

/** Executes a FaultSchedule against the simulation clock. */
class FaultInjector
{
  public:
    FaultInjector(FaultSchedule schedule, std::uint64_t seed);

    /**
     * Bind to a simulation clock. The pointee must outlive the
     * injector (MemorySystem::attachFaultInjector does this).
     * Unbound, the injector evaluates the schedule at t = 0.
     */
    void bindClock(const Ns *clock_ptr) { clock = clock_ptr; }

    Ns now() const { return clock ? *clock : 0.0; }

    const FaultSchedule &schedule() const { return sched; }
    FaultLevels levelsNow() const { return sched.levelsAt(now()); }

    // ---- Fault queries (each draws from its own stream) --------------

    /** Additive timing perturbation (ns) for one measurement. */
    Ns timingPerturbation();

    /** True if a threshold-crossing weak cell holds its charge. */
    bool suppressFlip();

    /** True if this ACT triggers a spurious neighbour refresh. */
    bool spuriousRefresh();

    /** True if this buddy allocation should fail. */
    bool allocFails();

    /** True if a fragmentation spike should hit the allocator now. */
    bool fragmentSpike();

    /** True if this worker launch should crash mid-shard (supervisor). */
    bool workerCrash();

    /** True if this worker launch should wedge (miss heartbeats). */
    bool workerHang();

    /**
     * Journal bit-rot for one record of `num_bits` bits: the bit index
     * to flip, or -1 to leave the record intact. Wire into
     * JournalOptions::bitRot.
     */
    int journalBitRot(std::size_t num_bits);

    const FaultStats &stats() const { return st; }

    /**
     * Attach a tracer (nullptr detaches) for FaultDelivered events and
     * schedule activity transitions (FaultPhaseEnter/Exit, observed at
     * query time — the injector only sees the schedule when consulted).
     * Tracing never consumes a random draw.
     */
    void setTracer(Tracer *t) { tracer = t; }

  private:
    /** Emit phase-transition events when schedule activity changes. */
    void noteActivity(bool active);

    FaultSchedule sched;
    const Ns *clock = nullptr;
    Rng timingRng;
    Rng flipRng;
    Rng refreshRng;
    Rng allocRng;
    Rng fragmentRng;
    Rng crashRng;
    Rng hangRng;
    Rng rotRng;
    FaultStats st;
    Tracer *tracer = nullptr;
    bool lastActive = false;
};

} // namespace rho

#endif // RHO_FAULT_FAULT_INJECTOR_HH
