#include "dram/controller.hh"

#include "common/logging.hh"

namespace rho
{

MemoryController::MemoryController(AddressMapping mapping,
                                   const DimmProfile &profile,
                                   const DramTiming &timing,
                                   const TrrConfig &trr_cfg,
                                   const RfmConfig &rfm_cfg,
                                   const PracConfig &prac_cfg,
                                   const EccConfig &ecc_cfg)
    : map(std::move(mapping)),
      dev(std::make_unique<Dimm>(profile, timing, trr_cfg, rfm_cfg,
                                 prac_cfg, ecc_cfg))
{
    if (map.numBanks() != profile.geom.flatBanks()) {
        fatal("MemoryController: mapping has %u banks, DIMM has %u",
              map.numBanks(), profile.geom.flatBanks());
    }
    if (map.numRows() != profile.geom.rowsPerBank) {
        fatal("MemoryController: mapping has %llu rows, DIMM has %llu",
              static_cast<unsigned long long>(map.numRows()),
              static_cast<unsigned long long>(profile.geom.rowsPerBank));
    }
    recent.fill({0, map.decode(0)});
}

DramAccessResult
MemoryController::access(const DramAddr &da, Ns now)
{
    return dev->access(da, now);
}

std::uint8_t
MemoryController::readByte(PhysAddr pa, Ns now)
{
    return dev->readByte(map.decode(pa), now);
}

void
MemoryController::writeByte(PhysAddr pa, std::uint8_t value, Ns now)
{
    std::uint8_t v = value;
    dev->writeBytes(map.decode(pa), &v, 1, now);
}

} // namespace rho
