#include "mapping/address_mapping.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace rho
{

namespace
{

std::vector<unsigned>
sorted(std::vector<unsigned> bits)
{
    std::sort(bits.begin(), bits.end());
    return bits;
}

/**
 * The core's square system — rows ordered bank fns, row bits, col
 * bits — after rejecting every input that cannot describe a mapping of
 * a 2^phys_bits space.
 */
Gf2Matrix
coreSystem(unsigned phys_bits, const std::vector<std::uint64_t> &fns,
           const std::vector<unsigned> &rows,
           const std::vector<unsigned> &cols)
{
    if (phys_bits > 63)
        fatal("AddressMapping: phys_bits %u too large", phys_bits);
    if (fns.size() + rows.size() + cols.size() != phys_bits) {
        fatal("AddressMapping: %zu bank fns + %zu row + %zu col bits "
              "!= %u phys bits",
              fns.size(), rows.size(), cols.size(), phys_bits);
    }
    Gf2Matrix m(phys_bits);
    for (std::uint64_t fn : fns) {
        if (fn >> phys_bits)
            fatal("AddressMapping: bank function 0x%llx uses a bit at "
                  "or above bit %u",
                  static_cast<unsigned long long>(fn), phys_bits);
        m.addRow(fn);
    }
    for (const auto *bits : {&rows, &cols}) {
        for (unsigned b : *bits) {
            if (b >= phys_bits)
                fatal("AddressMapping: bit %u outside %u-bit space", b,
                      phys_bits);
            m.addRow(1ULL << b);
        }
    }
    return m;
}

} // namespace

AddressMapping::AddressMapping(unsigned phys_bits,
                               std::vector<std::uint64_t> bank_fn_masks,
                               std::vector<unsigned> row_bits,
                               std::vector<unsigned> col_bits,
                               std::uint64_t region_offset)
    : nPhysBits(phys_bits), offset(region_offset),
      bankFns(std::move(bank_fn_masks)),
      rowBits(sorted(std::move(row_bits))),
      colBits(sorted(std::move(col_bits))),
      solver(coreSystem(phys_bits, bankFns, rowBits, colBits)),
      decodeTable(8)
{
    addrMask = memBytes() - 1;
    if (offset > addrMask)
        fatal("AddressMapping: offset 0x%llx outside %u-bit space",
              static_cast<unsigned long long>(offset), phys_bits);
    // An offset with a single set bit degenerates to XOR with that bit
    // for half the space and is better modelled as a linear function;
    // real Zen region bases are sums of DIMM capacities (>= 2 bits).
    if (std::popcount(offset) == 1)
        fatal("AddressMapping: single-bit offset 0x%llx is linear; fold "
              "it into the bank functions",
              static_cast<unsigned long long>(offset));
    bijective = solver.fullRank();

    // Packed image of each single address bit: bank function i at
    // bit i, row bit i at numBankFns() + i, column bit i after the
    // row field.
    std::array<std::uint64_t, 64> basis{};
    for (std::size_t i = 0; i < bankFns.size(); ++i) {
        for (unsigned j : bitsOfMask(bankFns[i]))
            basis[j] |= 1ULL << i;
    }
    unsigned pos = bankFns.size();
    for (unsigned b : rowBits)
        basis[b] |= 1ULL << pos++;
    for (unsigned b : colBits)
        basis[b] |= 1ULL << pos++;
    // Each entry extends an already-built one by its lowest set bit.
    for (unsigned k = 0; k < 8; ++k) {
        auto &t = decodeTable[k];
        for (unsigned v = 1; v < 256; ++v)
            t[v] = t[v & (v - 1)] ^ basis[8 * k + std::countr_zero(v)];
    }
    rowFieldMask = numRows() - 1;
    colFieldMask = numCols() - 1;
}

DramAddr
AddressMapping::decode(PhysAddr pa) const
{
    PhysAddr norm = normalize(pa);
    std::uint64_t packed = 0;
    for (unsigned k = 0; k < 8; ++k)
        packed ^= decodeTable[k][(norm >> (8 * k)) & 0xff];
    DramAddr da;
    unsigned nb = bankFns.size();
    da.bank = static_cast<std::uint32_t>(packed & ((1ULL << nb) - 1));
    da.row = (packed >> nb) & rowFieldMask;
    da.col = (packed >> (nb + rowBits.size())) & colFieldMask;
    return da;
}

PhysAddr
AddressMapping::encode(const DramAddr &da) const
{
    std::uint64_t rhs = 0;
    unsigned pos = 0;
    for (std::size_t i = 0; i < bankFns.size(); ++i, ++pos)
        rhs |= bit(da.bank, i) << pos;
    for (std::size_t i = 0; i < rowBits.size(); ++i, ++pos)
        rhs |= bit(da.row, i) << pos;
    for (std::size_t i = 0; i < colBits.size(); ++i, ++pos)
        rhs |= bit(da.col, i) << pos;

    auto norm = solver.solve(rhs);
    if (!norm)
        panic("AddressMapping::encode: unsolvable (core not bijective)");
    return (*norm + offset) & addrMask;
}

std::string
AddressMapping::describe() const
{
    std::string out = "Bank Func:";
    for (std::size_t i = 0; i < bankFns.size(); ++i) {
        out += i ? ", (" : " (";
        auto bits = bitsOfMask(bankFns[i]);
        for (std::size_t j = 0; j < bits.size(); ++j) {
            if (j)
                out += ", ";
            out += std::to_string(bits[j]);
        }
        out += ")";
    }
    if (!rowBits.empty()) {
        out += strFormat("; Row: %u-%u", rowBits.front(), rowBits.back());
    }
    if (offset != 0)
        out += strFormat("; Offset: 0x%llx",
                         static_cast<unsigned long long>(offset));
    return out;
}

bool
AddressMapping::sameBankAndRowStructure(const AddressMapping &o) const
{
    return offset == o.offset && nPhysBits == o.nPhysBits
        && rowBits == o.rowBits
        && sameFnSpan(bankFns, o.bankFns, nPhysBits);
}

} // namespace rho
