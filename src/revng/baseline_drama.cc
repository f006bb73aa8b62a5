#include "revng/baseline_drama.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/stats.hh"
#include "revng/threshold.hh"

namespace rho
{

namespace
{

constexpr unsigned kSampleAddrs = 768; //!< addresses to color
constexpr unsigned kMaxBit = 30;       //!< candidate bank-bit upper bound
constexpr unsigned kLowestBit = 6;
constexpr Ns kSetupCostPerPageNs = 1500.0;

} // namespace

DramaReverseEngineer::DramaReverseEngineer(TimingProbe &probe_,
                                           const PhysPool &pool_,
                                           std::uint64_t seed)
    : probe(probe_), pool(pool_), rng(seed)
{
}

MappingRecovery
DramaReverseEngineer::run()
{
    MemorySystem &sys = probe.system();
    Ns t0 = sys.now();
    std::uint64_t acc0 = probe.accessCount();
    MappingRecovery out;

    sys.advance(static_cast<Ns>(pool.ownedPages()) * kSetupCostPerPageNs);

    // Threshold from a latency histogram of random pairs, collected
    // in time-separated chunks so an interference burst cannot
    // contaminate the whole distribution.
    std::optional<double> found =
        robustSeparatingThreshold(probe, pool, rng, 600);
    if (!found)
        return emptyPoolRecovery(sys.now() - t0);
    double thres = *found;
    out.thresholdNs = thres;

    // Coloring: each sampled address joins the first bank set whose
    // representative it conflicts with. Decisions use the robust
    // (median + re-measure) probe so a single noise burst does not
    // spawn phantom bank sets.
    std::vector<std::vector<PhysAddr>> groups;
    for (unsigned i = 0; i < kSampleAddrs; ++i) {
        PhysAddr a = pool.randomAddr(rng);
        bool placed = false;
        for (auto &g : groups) {
            if (probe.measurePairRobust(a, g.front(), 10, 3,
                                        &out.measureRetry) > thres) {
                g.push_back(a);
                placed = true;
                break;
            }
        }
        if (!placed)
            groups.push_back({a});
    }

    // Caveat of the original method on these machines: same-bank
    // same-row pairs are fast, so coloring by "conflicts with the
    // representative" splits banks into many row-sharing sets; and
    // pure-row pairs look like conflicts. The function search below
    // inherits those errors.

    // Exhaustive search over the candidate bit range for functions of
    // one or two bits.
    std::vector<std::uint64_t> candidates;
    std::vector<unsigned> bits;
    for (unsigned b = kLowestBit; b <= kMaxBit; ++b)
        bits.push_back(b);
    auto constant_in_groups = [&](std::uint64_t mask) {
        for (const auto &g : groups) {
            std::uint64_t p0 = parity(g.front(), mask);
            for (PhysAddr a : g) {
                if (parity(a, mask) != p0)
                    return false;
            }
        }
        return true;
    };
    for (std::size_t i = 0; i < bits.size(); ++i) {
        std::uint64_t m1 = 1ULL << bits[i];
        if (constant_in_groups(m1))
            candidates.push_back(m1);
        for (std::size_t j = i + 1; j < bits.size(); ++j) {
            std::uint64_t m2 = m1 | (1ULL << bits[j]);
            if (constant_in_groups(m2))
                candidates.push_back(m2);
        }
    }

    // Reduce to an independent basis.
    unsigned phys_bits = sys.mapping().physBits();
    std::vector<std::uint64_t> basis;
    for (std::uint64_t c : candidates) {
        Gf2Matrix m(phys_bits);
        for (auto b : basis)
            m.addRow(b);
        m.addRow(c);
        if (m.rank() == basis.size() + 1)
            basis.push_back(c);
    }

    std::size_t expected_fns = 0;
    while ((1ULL << expected_fns) < groups.size())
        ++expected_fns;
    if (basis.size() < expected_fns || basis.empty()) {
        out.failureReason = "function search incomplete for " +
            std::to_string(groups.size()) + " sets";
        out.code = FailureCode::FunctionSearchIncomplete;
        out.simTimeNs = sys.now() - t0;
        out.timedAccesses = probe.accessCount() - acc0;
        return out;
    }
    out.bankFns = basis;

    // Row bits: the original heuristic assumes pure high-order row
    // bits; single-bit conflicts mark them.
    for (unsigned b = kLowestBit; b < phys_bits; ++b) {
        auto base = pool.pairBase(rng, 1ULL << b);
        if (!base)
            continue;
        if (probe.measurePairRobust(*base, *base ^ (1ULL << b), 10, 3,
                                    &out.measureRetry) > thres)
            out.rowBits.push_back(b);
    }

    out.success = !out.rowBits.empty();
    if (!out.success) {
        out.failureReason = "no pure row bits detected";
        out.code = FailureCode::NoPureRowBits;
    }
    out.simTimeNs = sys.now() - t0;
    out.timedAccesses = probe.accessCount() - acc0;
    return out;
}

} // namespace rho
