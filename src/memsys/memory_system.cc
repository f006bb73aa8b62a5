#include "memsys/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rho
{

namespace
{

const DimmProfile &
profileOf(const SystemSpec &spec)
{
    if (!spec.dimm)
        panic("MemorySystem: SystemSpec has no DIMM profile");
    return *spec.dimm;
}

} // namespace

MemorySystem::MemorySystem(const SystemSpec &spec)
    : MemorySystem(spec, mappingFor(spec.arch, profileOf(spec).geom.sizeGib(),
                                    profileOf(spec).geom.ranks))
{
}

MemorySystem::MemorySystem(Arch arch, const DimmProfile &dimm,
                           const TrrConfig &trr, std::uint64_t)
    : MemorySystem(SystemSpec(arch, dimm, trr))
{
}

MemorySystem::MemorySystem(const SystemSpec &spec, AddressMapping mapping)
    : archId(spec.arch), params(&ArchParams::forArch(spec.arch)),
      cpuKind(spec.cpuModel)
{
    const DimmProfile &dimm = profileOf(spec);
    const Arch arch = spec.arch;
    // The platform clamps the DIMM to its supported data rate. The
    // profile's MemStandard picks the timing preset; Auto keeps the
    // historical rule (>= 4000 MT/s rating means DDR5, else DDR4).
    MemStandard std_ = dimm.standard;
    if (std_ == MemStandard::Auto)
        std_ = dimm.freqMts >= 4000 ? MemStandard::Ddr5 : MemStandard::Ddr4;
    unsigned mts = std_ == MemStandard::Ddr4
                       ? std::min(dimm.freqMts, archMemFreq(arch))
                       : dimm.freqMts;
    DramTiming timing;
    switch (std_) {
      case MemStandard::Ddr4:
        timing = DramTiming::ddr4(mts);
        break;
      case MemStandard::Ddr5:
        timing = DramTiming::ddr5(mts);
        break;
      case MemStandard::Lpddr4:
        timing = DramTiming::lpddr4(mts);
        break;
      case MemStandard::Auto:
        panic("MemorySystem: unresolved MemStandard::Auto");
    }
    // Shallow-controller platforms expose REF stalls to the core even
    // on DDR4 parts (hammer/ref_sync relies on the spikes).
    timing.refBlocking = timing.refBlocking || archRefBlocking(arch);
    // Refresh boosting: the controller issues REF this many times
    // faster, so both the tREFI tick (TRR/RFM clocks, REF blocking)
    // and the tREFW all-rows sweep shrink together.
    if (spec.refreshBoost <= 0.0)
        panic("MemorySystem: refresh boost must be positive");
    if (spec.refreshBoost != 1.0) {
        timing.tREFI /= spec.refreshBoost;
        timing.tREFW /= spec.refreshBoost;
    }
    mc = std::make_unique<MemoryController>(std::move(mapping), dimm,
                                            timing, spec.trr, spec.rfm,
                                            spec.prac, spec.ecc);
    if (spec.referenceRowStore)
        mc->dimm().setRowStore(RowStoreKind::Reference);
}

Ns
MemorySystem::dramAccess(PhysAddr pa, Ns now)
{
    Ns t = std::max(clock, now);
    DramAccessResult res = mc->access(pa, t);
    clock = t;
    return res.latency;
}

const void *
MemorySystem::resolveLine(PhysAddr pa)
{
    auto it = resolvedIndex.find(pa);
    if (it != resolvedIndex.end())
        return it->second;
    resolvedLines.push_back(mc->decode(pa));
    const DramAddr *da = &resolvedLines.back();
    resolvedIndex.emplace(pa, da);
    return da;
}

Ns
MemorySystem::dramAccessResolved(const void *handle, Ns now)
{
    // Must stay the exact twin of dramAccess() minus the decode.
    Ns t = std::max(clock, now);
    DramAccessResult res =
        mc->access(*static_cast<const DramAddr *>(handle), t);
    clock = t;
    return res.latency;
}

} // namespace rho
