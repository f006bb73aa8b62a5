/**
 * @file
 * Ground-truth DRAM address mappings per architecture (paper Table 4
 * plus the multi-vendor backends of ROADMAP item 1) and the machine
 * inventory (paper Table 1).
 */

#ifndef RHO_MAPPING_MAPPING_PRESETS_HH
#define RHO_MAPPING_MAPPING_PRESETS_HH

#include <array>
#include <string>

#include "common/rng.hh"
#include "mapping/address_mapping.hh"

namespace rho
{

/**
 * The architecture registry: the single source of truth for the Arch
 * enum AND the allArchs iteration array. Adding a backend means adding
 * one X() line here; every per-arch dispatch switch is compiled with
 * -Wall (-Wswitch) and no default case, so a missing preset is a
 * compile warning, and tests/test_backend.cc calls every per-arch
 * function for every registry entry so a runtime panic cannot hide.
 *
 * Order: the four evaluated Intel micro-architectures (paper Table 1)
 * in generation order, then the non-Intel backends.
 */
#define RHO_ARCH_LIST(X)                                                \
    X(CometLake)  /* Intel i7-10700K, 10th gen                */        \
    X(RocketLake) /* Intel i7-11700, 11th gen                 */        \
    X(AlderLake)  /* Intel i9-12900, 12th gen                 */        \
    X(RaptorLake) /* Intel i7-14700K, 14th gen                */        \
    X(Zen3)       /* AMD Ryzen 9 5950X, non-linear mapping    */        \
    X(CortexA72)  /* ARMv8 Cortex-A72 board, DC CIVAC flushes */

/** All modelled micro-architectures (see RHO_ARCH_LIST). */
enum class Arch
{
#define RHO_ARCH_ENUM_ENTRY(name) name,
    RHO_ARCH_LIST(RHO_ARCH_ENUM_ENTRY)
#undef RHO_ARCH_ENUM_ENTRY
};

/** All architectures, derived from the registry — never hand-count. */
inline constexpr std::array allArchs = {
#define RHO_ARCH_ARRAY_ENTRY(name) Arch::name,
    RHO_ARCH_LIST(RHO_ARCH_ARRAY_ENTRY)
#undef RHO_ARCH_ARRAY_ENTRY
};

/** Number of registered architectures. */
inline constexpr std::size_t archCount = allArchs.size();

static_assert(static_cast<std::size_t>(allArchs.back()) + 1 == archCount,
              "allArchs out of sync with the Arch enum");

/** Short display name, e.g. "Comet Lake". */
std::string archName(Arch arch);

/** CPU model string from Table 1, e.g. "i7-10700K". */
std::string archCpu(Arch arch);

/** Max memory frequency (MT/s) from Table 1. */
unsigned archMemFreq(Arch arch);

/**
 * Does this platform's memory controller expose REF blocking to the
 * attacker (tRFC-long latency spikes every tREFI that synchronized
 * hammering can lock onto, ZenHammer style)? Intel parts hide the
 * spikes behind deep controller queues in the modelled configurations.
 */
bool archRefBlocking(Arch arch);

/**
 * Ground-truth mapping for an architecture and DRAM geometry.
 * Intel presets follow paper Table 4 (Comet/Rocket Lake share one
 * linear scheme; Alder/Raptor Lake another with wider, more numerous
 * bank functions). Zen 3 applies interleaved XOR-of-hashed-bits
 * functions after subtracting a region base (a non-zero
 * regionOffset()), so its end-to-end map is non-linear. Cortex-A72 boards use the
 * simple linear interleaving scheme.
 *
 * @param size_gib total DIMM capacity: 8, 16 or 32.
 * @param ranks number of ranks: 1 (8 GiB) or 2 (16/32 GiB).
 */
AddressMapping mappingFor(Arch arch, unsigned size_gib, unsigned ranks);

/**
 * Generate a random—but structurally valid—mapping for property
 * testing the reverse-engineering algorithms. The result is bijective,
 * has the requested number of bank functions, contiguous row bits and
 * low column bits; a configurable number of functions exclude row bits
 * (low-order functions such as (9,11,13) on Alder/Raptor).
 */
AddressMapping randomizedMapping(Rng &rng, unsigned phys_bits,
                                 unsigned num_bank_fns,
                                 unsigned num_non_row_fns);

} // namespace rho

#endif // RHO_MAPPING_MAPPING_PRESETS_HH
