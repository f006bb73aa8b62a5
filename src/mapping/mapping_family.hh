/**
 * @file
 * Mapping families: invertible phys<->DRAM transforms.
 *
 * Every memory controller we model ends in a linear GF(2) core —
 * bank bits are XORs of address bits, row/column indices are gathered
 * bit sets. What differs across vendors is the *coordinate space* the
 * core operates in:
 *
 *  - Intel (LinearGf2Family): the core consumes the physical address
 *    directly. The whole mapping is linear over GF(2).
 *  - AMD Zen (ZenOffsetFamily): the controller first subtracts a
 *    region base address ("address-offset regions" in the ZenHammer
 *    reverse engineering) and applies the XOR-of-hashed-bits functions
 *    to the *normalized* address. The mod-2^n subtraction carries, so
 *    the end-to-end phys->bank map is NOT linear over GF(2): naive
 *    XOR-pair probing mixes timing classes for any bit the carry chain
 *    can reach.
 *
 * A family therefore is: a bijective normalized<->physical transform
 * (normalize/denormalize) around the shared linear core. decode() and
 * encode() compose the two; reverse engineering recovers the offset
 * first and the core second (see revng/reverse_engineer).
 */

#ifndef RHO_MAPPING_MAPPING_FAMILY_HH
#define RHO_MAPPING_MAPPING_FAMILY_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/gf2.hh"
#include "common/types.hh"

namespace rho
{

/** Geographic DRAM coordinates. Bank is flat across ranks/groups. */
struct DramAddr
{
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint64_t col = 0;

    bool
    operator==(const DramAddr &o) const
    {
        return bank == o.bank && row == o.row && col == o.col;
    }
};

/** Which coordinate-space transform a mapping family applies. */
enum class MappingFamilyKind
{
    LinearGf2, //!< identity transform: fully linear over GF(2)
    ZenOffset, //!< mod-2^n region-offset subtraction before the core
};

/**
 * An invertible phys<->DRAM transform: a per-family normalization
 * bijection wrapped around a linear GF(2) core.
 *
 * Invariants: the union of {bank functions as rows, row bits, column
 * bits} must form a square full-rank GF(2) system so the core is
 * bijective over the normalized space; normalize()/denormalize() must
 * be mutually inverse bijections of [0, 2^physBits).
 */
class MappingFamily
{
  public:
    /**
     * @param phys_bits total number of physical address bits covered
     *        (memory size = 2^phys_bits bytes).
     * @param bank_fn_masks one mask per bank bit; mask bit j selects
     *        normalized bit j into the XOR.
     * @param row_bits normalized bit positions forming the row index
     *        (ascending significance).
     * @param col_bits normalized bit positions forming the column
     *        index.
     */
    MappingFamily(unsigned phys_bits,
                  std::vector<std::uint64_t> bank_fn_masks,
                  std::vector<unsigned> row_bits,
                  std::vector<unsigned> col_bits);
    virtual ~MappingFamily() = default;

    MappingFamily(const MappingFamily &) = delete;
    MappingFamily &operator=(const MappingFamily &) = delete;

    virtual MappingFamilyKind kind() const = 0;

    /**
     * Region base subtracted before the linear core (0 for linear
     * families). Measured in bytes; always a multiple of 1 GiB on the
     * modelled parts.
     */
    virtual std::uint64_t regionOffset() const = 0;

    /** Physical address -> normalized core coordinate. */
    virtual PhysAddr normalize(PhysAddr pa) const = 0;

    /** Normalized core coordinate -> physical address. */
    virtual PhysAddr denormalize(PhysAddr norm) const = 0;

    /** Translate a physical address into DRAM coordinates. */
    DramAddr
    decode(PhysAddr pa) const
    {
        return coreDecode(normalize(pa));
    }

    /** Exact inverse of decode(). */
    PhysAddr
    encode(const DramAddr &da) const
    {
        return denormalize(coreEncode(da));
    }

    // Normalized-space introspection (the structure reverse
    // engineering recovers).
    unsigned physBits() const { return nPhysBits; }
    std::uint64_t memBytes() const { return 1ULL << nPhysBits; }
    unsigned numBankFns() const { return bankFns.size(); }
    std::uint32_t numBanks() const { return 1u << bankFns.size(); }
    std::uint64_t numRows() const { return 1ULL << rowBits.size(); }
    std::uint64_t numCols() const { return 1ULL << colBits.size(); }
    const std::vector<std::uint64_t> &bankFnMasks() const
    {
        return bankFns;
    }
    const std::vector<unsigned> &rowBitPositions() const
    {
        return rowBits;
    }
    const std::vector<unsigned> &colBitPositions() const
    {
        return colBits;
    }

    /** @return true iff decode() is a bijection (full-rank core). */
    bool isBijective() const { return bijective; }

    /** Human-readable summary, Table 4 style. */
    std::string describe() const;

  protected:
    DramAddr coreDecode(PhysAddr norm) const;
    PhysAddr coreEncode(const DramAddr &da) const;

  private:
    unsigned nPhysBits;
    std::vector<std::uint64_t> bankFns;
    std::vector<unsigned> rowBits;
    std::vector<unsigned> colBits;
    std::shared_ptr<const Gf2Solver> solver;
    bool bijective;

    /**
     * coreDecode() as table lookups. The core is linear over GF(2), so
     * the packed result — bank bits, then row bits, then column bits,
     * nPhysBits <= 63 in all — is the XOR of the images of the
     * address's set bits. decodeTable[k][v] is the image of byte k of
     * the address having value v.
     */
    std::array<std::array<std::uint64_t, 256>, 8> decodeTable;
    std::uint64_t rowFieldMask; //!< numRows() - 1
    std::uint64_t colFieldMask; //!< numCols() - 1
};

/** Intel-style fully linear mapping: normalize is the identity. */
class LinearGf2Family final : public MappingFamily
{
  public:
    using MappingFamily::MappingFamily;

    MappingFamilyKind kind() const override
    {
        return MappingFamilyKind::LinearGf2;
    }
    std::uint64_t regionOffset() const override { return 0; }
    PhysAddr normalize(PhysAddr pa) const override { return pa; }
    PhysAddr denormalize(PhysAddr norm) const override { return norm; }
};

/**
 * AMD Zen-style mapping: the controller subtracts a region base
 * (mod 2^physBits) before applying the XOR-of-hashed-bits core. The
 * subtraction's borrow chain makes the end-to-end map non-linear over
 * GF(2) for every bit at or above the offset's lowest set bit.
 */
class ZenOffsetFamily final : public MappingFamily
{
  public:
    ZenOffsetFamily(unsigned phys_bits, std::uint64_t region_offset,
                    std::vector<std::uint64_t> bank_fn_masks,
                    std::vector<unsigned> row_bits,
                    std::vector<unsigned> col_bits);

    MappingFamilyKind kind() const override
    {
        return MappingFamilyKind::ZenOffset;
    }
    std::uint64_t regionOffset() const override { return offset; }

    PhysAddr
    normalize(PhysAddr pa) const override
    {
        return (pa - offset) & addrMask;
    }

    PhysAddr
    denormalize(PhysAddr norm) const override
    {
        return (norm + offset) & addrMask;
    }

  private:
    std::uint64_t offset;
    std::uint64_t addrMask;
};

} // namespace rho

#endif // RHO_MAPPING_MAPPING_FAMILY_HH
