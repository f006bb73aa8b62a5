#include "revng/baseline_dare.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/stats.hh"
#include "revng/threshold.hh"

namespace rho
{

namespace
{

constexpr unsigned kLowestBit = 6;
constexpr unsigned kSuperpageBit = 20; //!< highest in-superpage bit
constexpr double kHighBitErrorProb = 0.03; //!< per high-bit misclassify
constexpr unsigned kSuperpages = 512;  //!< allocation budget
constexpr Ns kSuperpageSetupNs = 60e6; //!< per-superpage allocation cost

} // namespace

DareReverseEngineer::DareReverseEngineer(TimingProbe &probe_,
                                         const PhysPool &pool_,
                                         const AddressMapping &truth_,
                                         std::uint64_t seed)
    : probe(probe_), pool(pool_), truth(truth_), rng(seed)
{
}

MappingRecovery
DareReverseEngineer::run()
{
    MemorySystem &sys = probe.system();
    Ns t0 = sys.now();
    std::uint64_t acc0 = probe.accessCount();
    MappingRecovery out;

    // Superpage allocation dominates the tool's runtime.
    sys.advance(static_cast<double>(kSuperpages) * kSuperpageSetupNs);

    std::optional<double> found =
        robustSeparatingThreshold(probe, pool, rng, 400);
    if (!found)
        return emptyPoolRecovery(sys.now() - t0);
    double thres = *found;
    out.thresholdNs = thres;

    // In-superpage measurements: all pairwise tests over bits the
    // superpage physically pins down (exact, like rhoHammer's Duet
    // restricted to the low range).
    for (unsigned bx = kLowestBit; bx <= kSuperpageBit; ++bx) {
        for (unsigned by = bx + 1; by <= kSuperpageBit; ++by) {
            std::uint64_t m = (1ULL << bx) | (1ULL << by);
            auto base = pool.pairBase(rng, m);
            if (base)
                probe.measurePair(*base, *base ^ m, 10);
        }
    }

    // Cross-superpage extension (modelled): per-function, bits above
    // the superpage range are inferred via offset/coloring heuristics
    // with an error probability each; functions with two or more such
    // bits cannot be disambiguated at all.
    for (std::uint64_t fn : truth.bankFnMasks()) {
        unsigned high_bits = 0;
        for (unsigned b : bitsOfMask(fn)) {
            if (b > kSuperpageBit)
                ++high_bits;
        }
        if (high_bits >= 2) {
            out.failureReason =
                "bank functions exceed superpage-resolvable range";
            out.code = FailureCode::SuperpageRangeExceeded;
            out.simTimeNs = sys.now() - t0;
            out.timedAccesses = probe.accessCount() - acc0;
            return out;
        }
        std::uint64_t recovered = 0;
        for (unsigned b : bitsOfMask(fn)) {
            if (b <= kSuperpageBit || !rng.chance(kHighBitErrorProb))
                recovered |= 1ULL << b;
            else if (b + 1 < truth.physBits())
                recovered |= 1ULL << (b + 1); // misattributed offset
        }
        out.bankFns.push_back(recovered);
    }

    // Row bits: in-range rows from timing, high rows via the same
    // noisy extension.
    for (unsigned b : truth.rowBitPositions()) {
        if (b <= kSuperpageBit || !rng.chance(kHighBitErrorProb)) {
            out.rowBits.push_back(b);
        }
    }
    std::sort(out.rowBits.begin(), out.rowBits.end());

    out.success = true;
    out.simTimeNs = sys.now() - t0;
    out.timedAccesses = probe.accessCount() - acc0;
    return out;
}

} // namespace rho
