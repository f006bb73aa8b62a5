#include "mapping/mapping_family.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace rho
{

MappingFamily::MappingFamily(unsigned phys_bits,
                             std::vector<std::uint64_t> bank_fn_masks,
                             std::vector<unsigned> row_bits,
                             std::vector<unsigned> col_bits)
    : nPhysBits(phys_bits), bankFns(std::move(bank_fn_masks)),
      rowBits(std::move(row_bits)), colBits(std::move(col_bits))
{
    if (phys_bits > 63)
        fatal("MappingFamily: phys_bits %u too large", phys_bits);
    std::sort(rowBits.begin(), rowBits.end());
    std::sort(colBits.begin(), colBits.end());

    unsigned total = bankFns.size() + rowBits.size() + colBits.size();
    if (total != nPhysBits) {
        fatal("MappingFamily: %zu bank fns + %zu row + %zu col bits "
              "!= %u phys bits",
              bankFns.size(), rowBits.size(), colBits.size(), nPhysBits);
    }

    // Build the linear system once: rows ordered bank fns, row bits,
    // col bits; coreEncode() solves it for arbitrary right-hand sides.
    Gf2Matrix m(nPhysBits);
    for (std::uint64_t fn : bankFns)
        m.addRow(fn);
    for (unsigned b : rowBits)
        m.addRow(1ULL << b);
    for (unsigned b : colBits)
        m.addRow(1ULL << b);
    solver = std::make_shared<Gf2Solver>(m);
    bijective = solver->fullRank();

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
        t[0] = 0;
        for (unsigned v = 1; v < 256; ++v)
            t[v] = t[v & (v - 1)] ^ basis[8 * k + std::countr_zero(v)];
    }
    rowFieldMask = (1ULL << rowBits.size()) - 1;
    colFieldMask = (1ULL << colBits.size()) - 1;
}

DramAddr
MappingFamily::coreDecode(PhysAddr norm) const
{
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
MappingFamily::coreEncode(const DramAddr &da) const
{
    std::uint64_t rhs = 0;
    unsigned pos = 0;
    for (std::size_t i = 0; i < bankFns.size(); ++i, ++pos)
        rhs |= bit(da.bank, i) << pos;
    for (std::size_t i = 0; i < rowBits.size(); ++i, ++pos)
        rhs |= bit(da.row, i) << pos;
    for (std::size_t i = 0; i < colBits.size(); ++i, ++pos)
        rhs |= bit(da.col, i) << pos;

    auto sol = solver->solve(rhs);
    if (!sol)
        panic("MappingFamily::encode: unsolvable (core not bijective)");
    return *sol;
}

std::string
MappingFamily::describe() const
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
    if (regionOffset() != 0)
        out += strFormat("; Offset: 0x%llx",
                         static_cast<unsigned long long>(regionOffset()));
    return out;
}

ZenOffsetFamily::ZenOffsetFamily(unsigned phys_bits,
                                 std::uint64_t region_offset,
                                 std::vector<std::uint64_t> bank_fn_masks,
                                 std::vector<unsigned> row_bits,
                                 std::vector<unsigned> col_bits)
    : MappingFamily(phys_bits, std::move(bank_fn_masks),
                    std::move(row_bits), std::move(col_bits)),
      offset(region_offset), addrMask((1ULL << phys_bits) - 1)
{
    if (region_offset >= (1ULL << phys_bits))
        fatal("ZenOffsetFamily: offset 0x%llx outside %u-bit space",
              static_cast<unsigned long long>(region_offset), phys_bits);
    // An offset with a single set bit degenerates to XOR with that bit
    // for half the space and is better modelled as a linear function;
    // real Zen region bases are sums of DIMM capacities (>= 2 bits).
    if (region_offset != 0 && (region_offset & (region_offset - 1)) == 0)
        fatal("ZenOffsetFamily: single-bit offset is linear; use "
              "LinearGf2Family");
}

} // namespace rho
