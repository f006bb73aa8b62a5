#include "common/gf2.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace rho
{

Gf2Solver::Gf2Solver(const Gf2Matrix &m)
    : nCols(m.numCols()), fullRowRank(true)
{
    if (m.numRows() > 64)
        panic("Gf2Solver supports at most 64 rows (got %u)", m.numRows());

    // Forward elimination, tracking which combination of original rows
    // produced each echelon row so that any rhs can be reduced later.
    for (unsigned i = 0; i < m.numRows(); ++i) {
        std::uint64_t row = m.row(i);
        std::uint64_t comb = 1ULL << i;
        for (const auto &e : ech) {
            if (bit(row, e.pivot)) {
                row ^= e.row;
                comb ^= e.comb;
            }
        }
        if (row == 0) {
            zeroCombs.push_back(comb);
            fullRowRank = false;
        } else {
            unsigned pivot = 63 - std::countl_zero(row);
            ech.push_back({row, comb, pivot});
        }
    }

    // Back elimination to reduced row echelon form: clear each pivot
    // column from every other echelon row.
    for (std::size_t i = 0; i < ech.size(); ++i) {
        for (std::size_t j = 0; j < ech.size(); ++j) {
            if (i != j && bit(ech[j].row, ech[i].pivot)) {
                ech[j].row ^= ech[i].row;
                ech[j].comb ^= ech[i].comb;
            }
        }
    }

    // Null-space basis: one vector per free (non-pivot) column.
    std::uint64_t pivot_mask = 0;
    for (const auto &e : ech)
        pivot_mask |= 1ULL << e.pivot;
    for (unsigned f = 0; f < nCols; ++f) {
        if (bit(pivot_mask, f))
            continue;
        std::uint64_t n = 1ULL << f;
        for (const auto &e : ech) {
            // In RREF each row reads x_pivot + sum(free bits in row) = 0.
            if (bit(e.row, f))
                n |= 1ULL << e.pivot;
        }
        nullVecs.push_back(n);
    }
}

std::optional<std::uint64_t>
Gf2Solver::solve(std::uint64_t rhs) const
{
    for (std::uint64_t comb : zeroCombs) {
        if (parity(rhs, comb))
            return std::nullopt; // inconsistent system
    }
    std::uint64_t x = 0;
    for (const auto &e : ech) {
        if (parity(rhs, e.comb))
            x |= 1ULL << e.pivot;
    }
    return x;
}

unsigned
Gf2Matrix::rank() const
{
    // rank + nullity = #columns (rank-nullity theorem).
    Gf2Solver s(*this);
    return numCols() - static_cast<unsigned>(s.nullBasis().size());
}

std::optional<std::uint64_t>
Gf2Matrix::solve(std::uint64_t rhs) const
{
    return Gf2Solver(*this).solve(rhs);
}

std::vector<std::uint64_t>
Gf2Matrix::nullBasis() const
{
    return Gf2Solver(*this).nullBasis();
}

bool
sameFnSpan(const std::vector<std::uint64_t> &a,
           const std::vector<std::uint64_t> &b, unsigned bits)
{
    if (a.size() != b.size())
        return false;
    Gf2Matrix ma(bits);
    for (auto fn : a)
        ma.addRow(fn);
    unsigned rank_a = ma.rank();
    if (rank_a != a.size())
        return false;
    // Equal-dimension spans are equal iff adding any vector of b does
    // not increase the rank.
    for (auto fn : b) {
        Gf2Matrix ext = ma;
        ext.addRow(fn);
        if (ext.rank() != rank_a)
            return false;
    }
    return true;
}

} // namespace rho
