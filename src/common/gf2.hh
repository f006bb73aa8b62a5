/**
 * @file
 * Dense linear algebra over GF(2) with 64-bit word rows.
 *
 * DRAM address mappings are linear maps over GF(2): every output bit
 * (bank-function bit, row bit, column bit) is the XOR of a subset of
 * physical address bits. Constructing a physical address for a desired
 * (bank, row, column) triple therefore reduces to solving a linear
 * system, which this module provides.
 */

#ifndef RHO_COMMON_GF2_HH
#define RHO_COMMON_GF2_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace rho
{

/**
 * A matrix over GF(2) with up to 64 columns. Each row is stored as a
 * 64-bit mask; column j of row i is bit j of rows[i].
 */
class Gf2Matrix
{
  public:
    Gf2Matrix(unsigned num_cols = 0) : nCols(num_cols) {}

    /** Append a row given as a bitmask of its set columns. */
    void addRow(std::uint64_t mask) { rows.push_back(mask); }

    unsigned numRows() const { return rows.size(); }
    unsigned numCols() const { return nCols; }
    std::uint64_t row(unsigned i) const { return rows[i]; }

    /** Rank via Gaussian elimination (does not modify *this). */
    unsigned rank() const;

    /**
     * Solve A x = b. Rows of A are this matrix; b is a bit per row
     * (bit i of rhs corresponds to row i; supports up to 64 rows).
     *
     * @return a particular solution mask, or nullopt if inconsistent.
     *         Free variables are set to zero.
     */
    std::optional<std::uint64_t> solve(std::uint64_t rhs) const;

    /**
     * Basis of the null space: masks n such that A n = 0. The set of
     * all solutions of A x = b is particular + span(null basis).
     */
    std::vector<std::uint64_t> nullBasis() const;

  private:
    unsigned nCols;
    std::vector<std::uint64_t> rows;
};

/**
 * Precomputed solver for repeated solves against a fixed matrix.
 * Performs the elimination once; each solve() is then O(rows).
 */
class Gf2Solver
{
  public:
    explicit Gf2Solver(const Gf2Matrix &m);

    /** Whether the matrix has full row rank (every rhs is solvable). */
    bool fullRank() const { return fullRowRank; }

    /** Particular solution with free variables zero; nullopt if none. */
    std::optional<std::uint64_t> solve(std::uint64_t rhs) const;

    /** Null-space basis of the matrix. */
    const std::vector<std::uint64_t> &nullBasis() const { return nullVecs; }

  private:
    unsigned nCols;
    // Echelon rows paired with the rhs-combination mask that produced
    // them, so a new rhs can be reduced without re-eliminating.
    struct EchRow { std::uint64_t row; std::uint64_t comb; unsigned pivot; };
    std::vector<EchRow> ech;
    std::vector<std::uint64_t> zeroCombs; // rows reduced to zero
    std::vector<std::uint64_t> nullVecs;
    bool fullRowRank;
};

/**
 * GF(2) span equality of two sets of `bits`-bit vectors, e.g. two bank
 * function sets: a is linearly independent, b has as many vectors and
 * every one of them lies in the span of a. Decides whether two
 * mappings' bank functions induce the same bank partition.
 */
bool sameFnSpan(const std::vector<std::uint64_t> &a,
                const std::vector<std::uint64_t> &b, unsigned bits);

} // namespace rho

#endif // RHO_COMMON_GF2_HH
