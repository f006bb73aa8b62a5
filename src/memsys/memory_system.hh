/**
 * @file
 * MemorySystem: the composition root tying one architecture (mapping +
 * core parameters) to one DIMM behind a memory controller, with a
 * global simulated clock.
 */

#ifndef RHO_MEMSYS_MEMORY_SYSTEM_HH
#define RHO_MEMSYS_MEMORY_SYSTEM_HH

#include <deque>
#include <memory>
#include <unordered_map>

#include "cpu/arch_params.hh"
#include "cpu/sim_cpu.hh"
#include "dram/controller.hh"
#include "fault/fault_injector.hh"
#include "mapping/mapping_presets.hh"
#include "trace/tracer.hh"

namespace rho
{

struct SystemSpec;

/**
 * One simulated machine: CPU architecture + single-channel DIMM.
 * Implements MemoryBackend so SimCpu kernels can drive it, and keeps
 * a monotone global clock so successive experiment phases observe a
 * consistent refresh/TRR timeline.
 */
class MemorySystem : public MemoryBackend
{
  public:
    /**
     * Build the machine `spec` describes: the architecture's mapping
     * for the DIMM's geometry, the mitigation and ECC configs, the
     * refresh boost, and the row-store and CPU replay engines.
     */
    explicit MemorySystem(const SystemSpec &spec);

    /**
     * Build `spec`'s machine behind an explicit mapping (used by
     * reverse-engineering property tests that randomize the mapping).
     */
    MemorySystem(const SystemSpec &spec, AddressMapping mapping);

    /**
     * MemorySystem(SystemSpec(arch, dimm, trr)); `seed` is ignored.
     * Kept only because the frozen rhobench harness inherits it
     * (rhobench/src/revng.cc); everything else builds from a spec.
     */
    MemorySystem(Arch arch, const DimmProfile &dimm, const TrrConfig &trr,
                 std::uint64_t seed);

    // MemoryBackend
    Ns dramAccess(PhysAddr pa, Ns now) override;

    /**
     * Memoized physical-to-DRAM address decode: the first request for
     * a line runs the full GF(2) mapping and caches the result in
     * pointer-stable storage, so a hammer kernel's fixed working set
     * decodes once per system instead of once per access. Handles stay
     * valid for this system's lifetime.
     */
    const void *resolveLine(PhysAddr pa) override;
    Ns dramAccessResolved(const void *handle, Ns now) override;

    /** CPU replay engine newly built cores use (see CpuModelKind). */
    CpuModelKind cpuModel() const { return cpuKind; }

    /** Current global simulated time. */
    Ns now() const { return clock; }

    /** Advance the clock (idle time between experiment phases). */
    void advance(Ns dt) { clock += dt; }

    /** Fold a CPU-run end time into the global clock. */
    void syncTo(Ns t) { clock = std::max(clock, t); }

    Arch arch() const { return archId; }
    const ArchParams &cpuParams() const { return *params; }
    const AddressMapping &mapping() const { return mc->mapping(); }
    MemoryController &controller() { return *mc; }
    Dimm &dimm() { return mc->dimm(); }
    const Dimm &dimm() const { return mc->dimm(); }

    /**
     * Attach a fault injector to this machine: binds it to the global
     * clock and enables its DRAM-side channels (flip suppression,
     * spurious refresh). TimingProbe and BuddyAllocator consult it via
     * faultInjector(). Pass nullptr to detach. The injector must
     * outlive the system or be detached before destruction.
     */
    void
    attachFaultInjector(FaultInjector *inj)
    {
        injector = inj;
        if (inj) {
            inj->bindClock(&clock);
            inj->setTracer(tr);
        }
        mc->dimm().setFaultInjector(inj);
    }

    /** Attached injector, or nullptr when running fault-free. */
    FaultInjector *faultInjector() const { return injector; }

    /**
     * Attach a tracer to this machine: wires the DIMM (and through it
     * the TRR sampler) and any already-attached fault injector. Order
     * relative to attachFaultInjector does not matter — whichever is
     * attached second picks the other up. Pass nullptr to detach. The
     * tracer must outlive the system or be detached first.
     */
    void
    attachTracer(Tracer *t)
    {
        tr = t;
        mc->dimm().setTracer(t);
        if (injector)
            injector->setTracer(t);
    }

    /** Attached tracer, or nullptr when not tracing. */
    Tracer *tracer() const { return tr; }

    /** Functional data path at the current clock. */
    std::uint8_t readByte(PhysAddr pa) { return mc->readByte(pa, clock); }
    void
    writeByte(PhysAddr pa, std::uint8_t v)
    {
        mc->writeByte(pa, v, clock);
    }

  private:
    Arch archId;
    const ArchParams *params;
    std::unique_ptr<MemoryController> mc;
    FaultInjector *injector = nullptr;
    Tracer *tr = nullptr;
    Ns clock = 0.0;
    CpuModelKind cpuKind = CpuModelKind::Blocked;

    // resolveLine memo: deque keeps decoded addresses pointer-stable
    // while the index grows.
    std::deque<DramAddr> resolvedLines;
    std::unordered_map<PhysAddr, const DramAddr *> resolvedIndex;
};

/**
 * A recipe for building identical MemorySystems on demand.
 *
 * Parallel campaign engines instantiate one fresh system per task so
 * tasks share no mutable state; construction is cheap because the
 * DIMM's per-row state is lazy (nothing is allocated until a row is
 * touched). The referenced DimmProfile must outlive the spec — the
 * static Table 2 profiles (`DimmProfile::byId`) always do.
 */
struct SystemSpec
{
    Arch arch = Arch::RaptorLake;
    const DimmProfile *dimm = nullptr;
    TrrConfig trr{};
    RfmConfig rfm{};
    PracConfig prac{};
    EccConfig ecc{};     //!< on-die ECC model (campaign identity)
    /**
     * Refresh boosting defense: the refresh clock (tREFI and the tREFW
     * sweep) runs this many times faster than stock. Part of campaign
     * identity; 1.0 is a plain machine.
     */
    double refreshBoost = 1.0;
    TraceConfig trace{}; //!< campaign workers trace per-task when enabled

    /**
     * Route every instantiated DIMM through the original hash-map row
     * store (RowStoreKind::Reference) instead of the flat fast path.
     * Used by the differential tests in tests/test_rowstore.cc; both
     * stores are observably identical.
     */
    bool referenceRowStore = false;

    /**
     * CPU replay engine for cores built against the instantiated
     * system (HammerSession reads it). Blocked is the block-cached
     * fast path; Reference keeps the original op-by-op interpreter as
     * the differential oracle (tests/test_cpu_oracle.cc). Both are
     * observably identical, so — like referenceRowStore — this field
     * is not part of a campaign's content-addressed identity.
     */
    CpuModelKind cpuModel = CpuModelKind::Blocked;

    SystemSpec() = default;
    SystemSpec(Arch arch_, const DimmProfile &dimm_,
               const TrrConfig &trr_ = TrrConfig{},
               const RfmConfig &rfm_ = RfmConfig{})
        : arch(arch_), dimm(&dimm_), trr(trr_), rfm(rfm_)
    {
    }

    /**
     * MemorySystem(*this). The seed does not reach the machine; the
     * parameter stays for the frozen rhobench harness.
     */
    MemorySystem
    instantiate(std::uint64_t) const
    {
        return MemorySystem(*this);
    }
};

} // namespace rho

#endif // RHO_MEMSYS_MEMORY_SYSTEM_HH
