/**
 * @file
 * Memory controller: binds an AddressMapping to a Dimm and exposes
 * physical-address based timed and functional access.
 */

#ifndef RHO_DRAM_CONTROLLER_HH
#define RHO_DRAM_CONTROLLER_HH

#include <array>
#include <memory>

#include "dram/dimm.hh"
#include "mapping/address_mapping.hh"

namespace rho
{

/**
 * Single-channel memory controller. Owns the DIMM; translation uses
 * the (CPU-specific) AddressMapping.
 */
class MemoryController
{
  public:
    MemoryController(AddressMapping mapping, const DimmProfile &profile,
                     const DramTiming &timing, const TrrConfig &trr_cfg,
                     const RfmConfig &rfm_cfg = RfmConfig{},
                     const PracConfig &prac_cfg = PracConfig{},
                     const EccConfig &ecc_cfg = EccConfig{});

    /**
     * Timed access by physical address. The last two decodes are
     * memoized, so a probe alternating two lines (TimingProbe's pair
     * trains) decodes each once per train.
     */
    DramAccessResult
    access(PhysAddr pa, Ns now)
    {
        return dev->access(memoDecode(pa), now);
    }

    /**
     * Timed access by pre-decoded DRAM address — the fast path for
     * callers that cache decode() results for a fixed working set
     * (MemorySystem::resolveLine). Identical to access(pa, now) for
     * da == decode(pa).
     */
    DramAccessResult access(const DramAddr &da, Ns now);

    /** Physical-to-DRAM address translation (pure). */
    DramAddr decode(PhysAddr pa) const { return map.decode(pa); }

    /** Functional data path (used to plant and check victim data). */
    std::uint8_t readByte(PhysAddr pa, Ns now);
    void writeByte(PhysAddr pa, std::uint8_t value, Ns now);

    const AddressMapping &mapping() const { return map; }
    Dimm &dimm() { return *dev; }
    const Dimm &dimm() const { return *dev; }

  private:
    /** decode(pa) through the two-entry memo (least recent evicted). */
    const DramAddr &
    memoDecode(PhysAddr pa)
    {
        if (recent[mru].pa != pa) {
            mru ^= 1;
            if (recent[mru].pa != pa)
                recent[mru] = {pa, map.decode(pa)};
        }
        return recent[mru].da;
    }

    struct Decoded
    {
        PhysAddr pa;
        DramAddr da;
    };

    AddressMapping map;
    std::unique_ptr<Dimm> dev;
    /** Memoized decodes; both start as address 0's, so none is stale. */
    std::array<Decoded, 2> recent;
    unsigned mru = 0; //!< index of the most recently used entry
};

} // namespace rho

#endif // RHO_DRAM_CONTROLLER_HH
