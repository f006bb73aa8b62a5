/**
 * @file
 * HammerSession: instantiates a pattern at a DIMM location, builds the
 * hammer kernel for a given attack configuration (instruction kind,
 * addressing mode, bank count, counter-speculation settings), executes
 * it on the CPU model and verifies victim rows for bit flips.
 */

#ifndef RHO_HAMMER_HAMMER_SESSION_HH
#define RHO_HAMMER_HAMMER_SESSION_HH

#include <optional>
#include <vector>

#include "common/failure.hh"
#include "cpu/sim_cpu.hh"
#include "hammer/pattern.hh"
#include "memsys/memory_system.hh"

namespace rho
{

/** Which x86 instruction performs the DRAM access. */
enum class HammerInstr : std::uint8_t
{
    Load,
    PrefetchT0,
    PrefetchT1,
    PrefetchT2,
    PrefetchNta,
};

/** Barrier inserted after each hammer+flush group. */
enum class BarrierKind : std::uint8_t
{
    None,
    Nop,    //!< rhoHammer's NOP pseudo-barrier (count = nopCount)
    Lfence,
    Mfence,
    Cpuid,
};

/** Full attack configuration (one Table 6 / Fig. 9 cell). */
struct HammerConfig
{
    HammerInstr instr = HammerInstr::PrefetchNta;
    AddressingMode mode = AddressingMode::CppIndexed;
    unsigned numBanks = 1;       //!< multi-bank replication factor
    bool obfuscate = false;      //!< control-flow obfuscation
    BarrierKind barrier = BarrierKind::None;
    unsigned nopCount = 0;       //!< NOPs per access (barrier == Nop)
    std::uint64_t accessBudget = 600000; //!< hammer attempts per run
    std::uint8_t victimFill = 0x55;
    std::uint8_t aggrFill = 0xAA;

    /**
     * Synchronize with the refresh window before hammering
     * (hammer/ref_sync): detect the REF period from the latency-spike
     * side channel and start the kernel just after a boundary. Only
     * useful on refBlocking platforms (Zen, LPDDR4); a no-op
     * elsewhere because no spikes are detectable.
     */
    bool refSync = false;

    /** Baseline (load) vs rhoHammer (prefetch) shorthand. */
    bool isPrefetch() const { return instr != HammerInstr::Load; }
};

/** Where a pattern is instantiated. */
struct HammerLocation
{
    std::uint32_t bank = 0;
    std::uint64_t baseRow = 0;
};

/** Outcome of trying to place a pattern in a bank. */
struct LocationPick
{
    std::optional<HammerLocation> loc;
    FailureCode failure = FailureCode::None;

    bool ok() const { return loc.has_value(); }
};

/** Result of executing one pattern at one location. */
struct HammerOutcome
{
    std::uint64_t flips = 0;
    PerfCounters perf;
    std::vector<FlipRecord> flipList;
};

/** Execution engine for hammer attempts. */
class HammerSession
{
  public:
    HammerSession(MemorySystem &sys, std::uint64_t seed);

    /** Build the kernel only (inspection / micro-benchmarks). */
    HammerKernel buildKernel(const HammerPattern &pattern,
                             const HammerLocation &loc,
                             const HammerConfig &cfg) const;

    /** Initialize data, hammer, verify, and restore victim rows. */
    HammerOutcome hammer(const HammerPattern &pattern,
                         const HammerLocation &loc,
                         const HammerConfig &cfg);

    /**
     * Hammer without touching victim data (no fill, no diff, no
     * restore). Used when victim rows hold live system data, e.g. a
     * massaged page-table page; flips are taken from the device log.
     */
    HammerOutcome hammerRaw(const HammerPattern &pattern,
                            const HammerLocation &loc,
                            const HammerConfig &cfg);

    /**
     * A valid random location for the pattern footprint, or
     * FailureCode::PatternUnplaceable (drawing nothing) when the
     * footprint plus guard rows does not fit the bank's row space.
     * `cfg` is unused; rhobench/src/bypass_ddr5.cc pins the signature.
     */
    LocationPick tryRandomLocation(const HammerPattern &pattern,
                                   const HammerConfig &cfg);

    MemorySystem &system() { return sys; }
    SimCpu &cpu() { return core; }

  private:
    /** Victim rows of the instantiated pattern (per replicated bank). */
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
    victimRows(const HammerPattern &pattern, const HammerLocation &loc,
               const HammerConfig &cfg) const;

    /** Aggressor rows per pair and bank. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
    aggressorRows(const HammerPattern &pattern, const HammerLocation &loc,
                  const HammerConfig &cfg) const;

    std::uint32_t bankAt(const HammerLocation &loc, unsigned idx) const;

    /** Run REF-window detection + alignment when cfg.refSync is set. */
    void maybeAlignToRef(const HammerConfig &cfg);

    MemorySystem &sys;
    SimCpu core;
    Rng rng;
};

/** Convert HammerInstr to the kernel op kind. */
OpKind opKindOf(HammerInstr instr);

/** Short display name ("load", "pref-nta", ...). */
std::string hammerInstrName(HammerInstr instr);

} // namespace rho

#endif // RHO_HAMMER_HAMMER_SESSION_HH
