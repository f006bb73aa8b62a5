#include "mapping/mapping_presets.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace rho
{

std::string
archName(Arch arch)
{
    switch (arch) {
      case Arch::CometLake: return "Comet Lake";
      case Arch::RocketLake: return "Rocket Lake";
      case Arch::AlderLake: return "Alder Lake";
      case Arch::RaptorLake: return "Raptor Lake";
      case Arch::Zen3: return "Zen 3";
      case Arch::CortexA72: return "Cortex-A72";
    }
    panic("archName: bad arch");
}

std::string
archCpu(Arch arch)
{
    switch (arch) {
      case Arch::CometLake: return "i7-10700K";
      case Arch::RocketLake: return "i7-11700";
      case Arch::AlderLake: return "i9-12900";
      case Arch::RaptorLake: return "i7-14700K";
      case Arch::Zen3: return "R9-5950X";
      case Arch::CortexA72: return "Cortex-A72";
    }
    panic("archCpu: bad arch");
}

unsigned
archMemFreq(Arch arch)
{
    switch (arch) {
      case Arch::CometLake: return 2933;
      case Arch::RocketLake: return 2933;
      case Arch::AlderLake: return 3200;
      case Arch::RaptorLake: return 3200;
      case Arch::Zen3: return 3200;
      case Arch::CortexA72: return 3200;
    }
    panic("archMemFreq: bad arch");
}

bool
archRefBlocking(Arch arch)
{
    switch (arch) {
      case Arch::CometLake:
      case Arch::RocketLake:
      case Arch::AlderLake:
      case Arch::RaptorLake:
        return false;
      case Arch::Zen3:
      case Arch::CortexA72:
        return true;
    }
    panic("archRefBlocking: bad arch");
}

namespace
{

std::vector<unsigned>
range(unsigned lo, unsigned hi)
{
    std::vector<unsigned> out;
    for (unsigned i = lo; i <= hi; ++i)
        out.push_back(i);
    return out;
}

std::vector<std::uint64_t>
masksOf(const std::vector<std::vector<unsigned>> &fns)
{
    std::vector<std::uint64_t> masks;
    masks.reserve(fns.size());
    for (const auto &f : fns)
        masks.push_back(maskOfBits(f));
    return masks;
}

AddressMapping
make(unsigned phys_bits,
     std::vector<std::vector<unsigned>> fns,
     unsigned row_lo, unsigned row_hi, std::uint64_t region_offset = 0)
{
    // Column bits are the low 13 bits (8 KiB row across the rank) in
    // all configurations of Table 4.
    return AddressMapping(phys_bits, masksOf(fns), range(row_lo, row_hi),
                          range(0, 12), region_offset);
}

/**
 * The Zen DRAM region base: the modelled part interleaves its UMC
 * regions at 3 GiB, so the controller subtracts 0xC0000000 before
 * hashing. Two set bits — the subtraction's borrow chain is what makes
 * the end-to-end map non-linear (a single-bit base would reduce to an
 * XOR).
 */
constexpr std::uint64_t zenRegionBase = 0xC0000000ULL;

} // namespace

AddressMapping
mappingFor(Arch arch, unsigned size_gib, unsigned ranks)
{
    bool newer = arch == Arch::AlderLake || arch == Arch::RaptorLake;

    // AMD Zen 3: ZenHammer-style interleaved functions — one COL-ish
    // low function plus stride-4 hashed-bit combs reaching the top
    // address bit — applied to the region-normalized address.
    if (arch == Arch::Zen3) {
        if (size_gib == 8 && ranks == 1) {
            return make(33,
                        {{6, 13},
                         {14, 18, 22, 26, 30},
                         {15, 19, 23, 27, 31},
                         {16, 20, 24, 28, 32}},
                        17, 32, zenRegionBase);
        }
        if (size_gib == 16 && ranks == 2) {
            return make(34,
                        {{6, 13},
                         {14, 18, 22, 26, 30},
                         {15, 19, 23, 27, 31},
                         {16, 20, 24, 28, 32},
                         {17, 21, 25, 29, 33}},
                        18, 33, zenRegionBase);
        }
        if (size_gib == 32 && ranks == 2) {
            return make(35,
                        {{6, 13},
                         {14, 18, 22, 26, 30, 34},
                         {15, 19, 23, 27, 31},
                         {16, 20, 24, 28, 32},
                         {17, 21, 25, 29, 33}},
                        18, 34, zenRegionBase);
        }
        fatal("mappingFor: unsupported geometry %u GiB x %u ranks",
              size_gib, ranks);
    }

    // Cortex-A72 boards ship the simple linear interleaving scheme
    // (same shape Comet/Rocket use); Intel Comet/Rocket vs Alder/
    // Raptor split per paper Table 4.
    if (size_gib == 8 && ranks == 1) {
        if (!newer) {
            return make(33, {{16, 19}, {15, 18}, {14, 17}, {6, 13}},
                        17, 32);
        }
        return make(33,
                    {{14, 17, 21, 26, 29, 32},
                     {15, 18, 20, 23, 24, 27, 30},
                     {16, 19, 22, 25, 28, 31},
                     {9, 11, 13}},
                    17, 32);
    }
    if (size_gib == 16 && ranks == 2) {
        if (!newer) {
            return make(34,
                        {{17, 21}, {16, 20}, {15, 19}, {14, 18}, {6, 13}},
                        18, 33);
        }
        return make(34,
                    {{14, 18, 26, 29, 32},
                     {16, 20, 23, 24, 27, 30, 33},
                     {17, 21, 22, 25, 28, 31},
                     {15, 19},
                     {9, 11, 13}},
                    18, 33);
    }
    if (size_gib == 32 && ranks == 2) {
        if (!newer) {
            return make(35,
                        {{17, 21}, {16, 20}, {15, 19}, {14, 18}, {6, 13}},
                        18, 34);
        }
        return make(35,
                    {{14, 18, 26, 29, 32},
                     {16, 20, 23, 24, 27, 30, 33},
                     {17, 21, 22, 25, 28, 31, 34},
                     {15, 19},
                     {9, 11, 13}},
                    18, 34);
    }
    fatal("mappingFor: unsupported geometry %u GiB x %u ranks",
          size_gib, ranks);
}

AddressMapping
randomizedMapping(Rng &rng, unsigned phys_bits, unsigned num_bank_fns,
                  unsigned num_non_row_fns)
{
    constexpr unsigned num_col_bits = 13;
    if (num_non_row_fns >= num_bank_fns)
        fatal("randomizedMapping: need at least one row-inclusive fn");
    if (phys_bits < num_col_bits + num_bank_fns + 4)
        fatal("randomizedMapping: phys_bits too small");

    unsigned row_lo = num_col_bits + num_bank_fns;
    unsigned row_hi = phys_bits - 1;

    // Each function gets one dedicated "unique" bit (13..row_lo-1),
    // which guarantees the overall system is full rank / bijective.
    std::vector<unsigned> unique_bits = range(num_col_bits, row_lo - 1);
    rng.shuffle(unique_bits);

    // Bank functions must be bit-disjoint (as in every observed real
    // mapping): a shared bit would make two functions cancel jointly
    // and is not recoverable from pairwise timings alone.
    // Column extras start at bit 6: bits 0-5 address within a cache
    // line / burst and never participate in bank functions on real
    // parts (and timing probes cannot see them).
    std::vector<unsigned> col_pool = range(6, num_col_bits - 1);
    std::vector<unsigned> row_pool = range(row_lo, row_hi);
    rng.shuffle(col_pool);
    rng.shuffle(row_pool);
    std::size_t col_at = 0, row_at = 0;

    std::vector<std::uint64_t> masks;
    for (unsigned i = 0; i < num_bank_fns; ++i) {
        std::uint64_t mask = 1ULL << unique_bits[i];
        bool non_row = i < num_non_row_fns;
        if (non_row) {
            // Low-order function: unique bit + 1-2 column bits.
            unsigned extra = 1 + rng.uniformInt(0, 1);
            for (unsigned k = 0; k < extra && col_at < col_pool.size();
                 ++k) {
                mask |= 1ULL << col_pool[col_at++];
            }
        } else {
            // Row-inclusive function: unique bit + 1-3 row bits.
            unsigned extra = 1 + rng.uniformInt(0, 2);
            for (unsigned k = 0; k < extra && row_at < row_pool.size();
                 ++k) {
                mask |= 1ULL << row_pool[row_at++];
            }
        }
        masks.push_back(mask);
    }

    return AddressMapping(phys_bits, std::move(masks),
                          range(row_lo, row_hi), range(0, num_col_bits - 1));
}

} // namespace rho
