/**
 * @file
 * Physical-address to DRAM-address mapping.
 *
 * Modern memory controllers translate physical addresses into
 * (bank, row, column) coordinates. Every modelled controller ends in a
 * linear GF(2) core — each bank bit is the XOR of a set of address
 * bits (a "bank function"), row/column indices are gathered bit sets.
 * Vendors differ only in the coordinate space the core consumes:
 *
 *  - Intel and Cortex-A72: the core consumes the physical address
 *    directly, so the whole mapping is linear over GF(2) (region
 *    offset 0).
 *  - AMD Zen: the controller first subtracts a region base address
 *    ("address-offset regions" in the ZenHammer reverse engineering)
 *    and hashes the *normalized* address. The mod-2^n subtraction
 *    carries, so the end-to-end phys->bank map is NOT linear over
 *    GF(2): naive XOR-pair probing mixes timing classes for any bit
 *    the borrow chain can reach.
 *
 * A mapping therefore is the core plus a region offset K: decode(pa)
 * runs the core on (pa - K) mod 2^physBits and encode() inverts it.
 * Reverse engineering recovers K first and the core second (see
 * revng/reverse_engineer).
 */

#ifndef RHO_MAPPING_ADDRESS_MAPPING_HH
#define RHO_MAPPING_ADDRESS_MAPPING_HH

#include <array>
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

/**
 * A DRAM address mapping: a linear GF(2) core behind a region offset.
 *
 * Invariants: the union of {bank functions as rows, row bits, column
 * bits} is a square GF(2) system over bits [0, physBits), so a
 * full-rank core makes decode() a bijection of [0, 2^physBits). Bits
 * at and above physBits never reach the core.
 */
class AddressMapping
{
  public:
    /**
     * @param phys_bits total number of physical address bits covered
     *        (memory size = 2^phys_bits bytes), at most 63.
     * @param bank_fn_masks one mask per bank bit; mask bit j selects
     *        normalized bit j into the XOR.
     * @param row_bits normalized bit positions forming the row index
     *        (ascending significance).
     * @param col_bits normalized bit positions forming the column
     *        index.
     * @param region_offset region base subtracted (mod 2^phys_bits)
     *        before the core; 0 for a linear mapping. A non-zero
     *        offset needs at least two set bits: a single-bit one is
     *        an XOR with that bit, i.e. still linear.
     */
    AddressMapping(unsigned phys_bits,
                   std::vector<std::uint64_t> bank_fn_masks,
                   std::vector<unsigned> row_bits,
                   std::vector<unsigned> col_bits,
                   std::uint64_t region_offset = 0);

    unsigned physBits() const { return nPhysBits; }
    std::uint64_t memBytes() const { return 1ULL << nPhysBits; }
    unsigned numBankFns() const { return bankFns.size(); }
    std::uint32_t numBanks() const { return 1u << bankFns.size(); }
    std::uint64_t numRows() const { return 1ULL << rowBits.size(); }
    std::uint64_t numCols() const { return 1ULL << colBits.size(); }

    // Normalized-space structure (the structure reverse engineering
    // recovers; with offset 0 it is the physical space).
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

    /**
     * Region base subtracted before the core (0 for linear mappings).
     * Measured in bytes; always a multiple of 1 GiB on the modelled
     * parts.
     */
    std::uint64_t regionOffset() const { return offset; }

    /** Physical address -> normalized core coordinate. */
    PhysAddr normalize(PhysAddr pa) const { return (pa - offset) & addrMask; }

    /** Translate a physical address into DRAM coordinates. */
    DramAddr decode(PhysAddr pa) const;

    /**
     * Construct the physical address of the given DRAM coordinates.
     * Exact inverse of decode() (mapping is bijective by construction).
     */
    PhysAddr encode(const DramAddr &da) const;

    /** Shorthand: physical address of (bank, row) at column 0. */
    PhysAddr
    rowToPhys(std::uint32_t bank, std::uint64_t row) const
    {
        return encode({bank, row, 0});
    }

    /** @return true iff decode() is a bijection (full-rank core). */
    bool isBijective() const { return bijective; }

    /** Human-readable summary, Table 4 style. */
    std::string describe() const;

    /**
     * Structural equality of the *mapping function* (not representation):
     * two mappings are equivalent if they subtract the same region
     * offset and their cores induce the same bank partition (same span
     * of bank functions) and the same row classification. Used to
     * validate reverse-engineering results.
     */
    bool sameBankAndRowStructure(const AddressMapping &o) const;

  private:
    unsigned nPhysBits;
    std::uint64_t offset;
    std::uint64_t addrMask = 0; //!< memBytes() - 1
    std::vector<std::uint64_t> bankFns;
    std::vector<unsigned> rowBits;
    std::vector<unsigned> colBits;
    Gf2Solver solver; //!< the core's system, for encode()
    bool bijective = false;

    /**
     * The core as table lookups. It is linear over GF(2), so the
     * packed result — bank bits, then row bits, then column bits,
     * nPhysBits <= 63 in all — is the XOR of the images of the
     * normalized address's set bits. decodeTable[k][v] is the image of
     * byte k of the address having value v. The 16 KiB live on the heap,
     * so passing a mapping by value moves a pointer, not the tables.
     */
    std::vector<std::array<std::uint64_t, 256>> decodeTable;
    std::uint64_t rowFieldMask = 0; //!< numRows() - 1
    std::uint64_t colFieldMask = 0; //!< numCols() - 1
};

} // namespace rho

#endif // RHO_MAPPING_ADDRESS_MAPPING_HH
