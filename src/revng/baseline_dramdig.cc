#include "revng/baseline_dramdig.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/bits.hh"
#include "common/stats.hh"
#include "revng/threshold.hh"

namespace rho
{

namespace
{

constexpr unsigned kLowestBit = 6;
constexpr unsigned kColoredSample = 1200; //!< addresses simulated in detail
/**
 * Per-page cost of the full-memory coloring sweep (the tool times
 * every allocated page against bank representatives, with
 * verification rounds); charged analytically for the pool pages
 * beyond kColoredSample.
 */
constexpr Ns kColorCostPerPageNs = 120000.0;
constexpr unsigned kMaxFnBits = 4;
constexpr Ns kSetupCostPerPageNs = 1500.0;

} // namespace

DramDigReverseEngineer::DramDigReverseEngineer(TimingProbe &probe_,
                                               const PhysPool &pool_,
                                               std::uint64_t seed)
    : probe(probe_), pool(pool_), rng(seed)
{
}

MappingRecovery
DramDigReverseEngineer::run()
{
    MemorySystem &sys = probe.system();
    Ns t0 = sys.now();
    std::uint64_t acc0 = probe.accessCount();
    MappingRecovery out;

    sys.advance(static_cast<Ns>(pool.ownedPages()) * kSetupCostPerPageNs);

    std::optional<double> found =
        robustSeparatingThreshold(probe, pool, rng, 800);
    if (!found)
        return emptyPoolRecovery(sys.now() - t0);
    double thres = *found;
    out.thresholdNs = thres;

    unsigned phys_bits = sys.mapping().physBits();

    // Knowledge-assisted step: find and exclude pure row bits. The
    // robust probe replaces the tool's plain 4-sample average so an
    // interference burst cannot misclassify a bit.
    std::vector<unsigned> pure_row, non_pure;
    for (unsigned b = kLowestBit; b < phys_bits; ++b) {
        auto base = pool.pairBase(rng, 1ULL << b);
        if (!base)
            continue;
        double t = probe.measurePairRobust(*base, *base ^ (1ULL << b),
                                           100, 4, &out.measureRetry);
        if (t > thres)
            pure_row.push_back(b);
        else
            non_pure.push_back(b);
    }

    if (pure_row.empty()) {
        // The tool's core assumption: pure row bits must exist to
        // bound the brute-force space. On Alder/Raptor they do not.
        out.failureReason = "premature exit: no pure row bits";
        out.code = FailureCode::NoPureRowBits;
        out.simTimeNs = sys.now() - t0;
        out.timedAccesses = probe.accessCount() - acc0;
        return out;
    }

    // Exhaustive coloring of the entire pool into banks. A detailed
    // sample is simulated; the remaining pages are charged at the
    // tool's per-page coloring cost.
    std::vector<std::vector<PhysAddr>> groups;
    for (unsigned i = 0; i < kColoredSample; ++i) {
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
    std::uint64_t rest = pool.ownedPages() > kColoredSample
        ? pool.ownedPages() - kColoredSample : 0;
    sys.advance(static_cast<Ns>(rest) * kColorCostPerPageNs);

    // Brute-force XOR functions over the non-pure-row bits, smallest
    // first, testing parity constancy within every colored bank set.
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

    std::vector<std::uint64_t> candidates;
    std::vector<unsigned> bits = non_pure;
    // Size-2 .. size-maxFnBits subsets (size-1 cannot exist after the
    // pure-row exclusion: a single constant bit would be a bank bit
    // used alone, which duet-style coloring already separates).
    std::vector<unsigned> idx;
    std::function<void(std::size_t, unsigned)> enumerate =
        [&](std::size_t start, unsigned remaining) {
            if (idx.size() >= 2) {
                std::uint64_t mask = 0;
                for (unsigned i : idx)
                    mask |= 1ULL << bits[i];
                if (constant_in_groups(mask))
                    candidates.push_back(mask);
            }
            if (remaining == 0)
                return;
            for (std::size_t i = start; i < bits.size(); ++i) {
                idx.push_back(static_cast<unsigned>(i));
                enumerate(i + 1, remaining - 1);
                idx.pop_back();
            }
        };
    enumerate(0, kMaxFnBits);
    // Each tested subset costs a verification measurement.
    std::uint64_t tested = 0;
    for (unsigned k = 2; k <= kMaxFnBits; ++k) {
        std::uint64_t c = 1;
        for (unsigned i = 0; i < k; ++i)
            c = c * (bits.size() - i) / (i + 1);
        tested += c;
    }
    sys.advance(static_cast<Ns>(tested) * 2000.0);

    std::sort(candidates.begin(), candidates.end(),
              [](std::uint64_t a, std::uint64_t b) {
                  unsigned pa = std::popcount(a), pb = std::popcount(b);
                  return pa != pb ? pa < pb : a < b;
              });
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
    if (basis.size() != expected_fns) {
        out.failureReason = "function basis does not explain bank sets";
        out.code = FailureCode::FunctionSearchIncomplete;
        out.simTimeNs = sys.now() - t0;
        out.timedAccesses = probe.accessCount() - acc0;
        return out;
    }
    out.bankFns = basis;

    // Split row-inclusive functions: flipping all bits of such a
    // function keeps the bank but changes the row (SBDR).
    std::vector<unsigned> rows = pure_row;
    for (std::uint64_t fn : basis) {
        auto base = pool.pairBase(rng, fn);
        if (!base)
            continue;
        if (probe.measurePairRobust(*base, *base ^ fn, 25, 3,
                                    &out.measureRetry) > thres) {
            auto fn_bits = bitsOfMask(fn);
            rows.push_back(fn_bits.back());
        }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    out.rowBits = rows;

    out.success = true;
    out.simTimeNs = sys.now() - t0;
    out.timedAccesses = probe.accessCount() - acc0;
    return out;
}

} // namespace rho
