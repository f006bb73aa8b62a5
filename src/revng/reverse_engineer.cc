#include "revng/reverse_engineer.hh"

#include <algorithm>
#include <functional>
#include <map>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "revng/threshold.hh"
#include "trace/tracer.hh"

namespace rho
{

namespace
{

constexpr unsigned kPairsPerMeasurement = 16; //!< random pairs per T_SBDR
constexpr unsigned kRoundsPerPair = 50;       //!< accesses per address
constexpr unsigned kThresholdPairs = 1200;    //!< random pairs for step 0
constexpr unsigned kLowestBit = 6; //!< cache-line bits never matter
/** Modelled mmap+pagemap setup cost per pooled 4 KiB page. */
constexpr Ns kSetupCostPerPageNs = 1500.0;

// Robustness against environmental interference (co-running workload
// bursts injected by a FaultSchedule). Fault-free these change
// nothing measurable: the MAD of a clean sample set sits well under
// kMadStableNs, so no re-measurement ever triggers.
constexpr double kMadK = 3.5;       //!< inlier band half-width, in MADs
constexpr double kMadFloorNs = 1.0; //!< MAD floor (zero spread)
constexpr double kMadStableNs = 3.0; //!< spread above this: interference
constexpr double kMinInlierFrac = 0.75; //!< surviving-sample fraction
constexpr unsigned kMaxRemeasureRounds = 3; //!< extra batches, unstable
constexpr Ns kRemeasureBackoffNs = 2e6; //!< first backoff, simulated ns
constexpr double kBackoffFactor = 2.0;  //!< exponential backoff growth
constexpr Ns kMaxBackoffNs = 8e6;       //!< backoff ceiling

// Non-linear (AMD Zen) region-offset recovery, step 0b. Region bases
// are multiples of 2^kOffsetGranuleBits; each candidate is gated by
// the *minimum* per-mask classification consistency of {low anchor
// bit, high bit} probe pairs and ranked by how many masks classify
// consistently SBDR-slow. A non-zero offset is adopted only when the
// zero-offset (linear) hypothesis FAILS the consistency bar on its
// own masks while the winner clears it and recovers strictly more
// slow masks — so linear mappings (which always time consistently at
// 0, even when a shifted description happens to be gauge-equivalent)
// and noise floods (which gate every candidate out) both fall back to
// offset 0.
constexpr unsigned kOffsetGranuleBits = 30; //!< candidate spacing, log2
constexpr double kOffsetAcceptScore = 0.85; //!< consistency bar per mask

} // namespace

MappingRecovery
emptyPoolRecovery(Ns sim_time_ns)
{
    MappingRecovery out;
    out.failureReason = "physical page pool is empty";
    out.code = FailureCode::AllocationFailed;
    out.simTimeNs = sim_time_ns;
    return out;
}

bool
MappingRecovery::matches(const AddressMapping &truth) const
{
    if (!success)
        return false;
    if (regionOffset != truth.regionOffset())
        return false;
    if (rowBits != truth.rowBitPositions())
        return false;
    return sameFnSpan(bankFns, truth.bankFnMasks(), truth.physBits());
}

RhoReverseEngineer::RhoReverseEngineer(TimingProbe &probe_,
                                       const PhysPool &pool_,
                                       std::uint64_t seed,
                                       ReverseEngineerConfig cfg_)
    : probe(probe_), pool(pool_), rng(seed), cfg(cfg_)
{
}

std::optional<PhysAddr>
RhoReverseEngineer::pairBaseAt(std::uint64_t diff_mask, PhysAddr &partner)
{
    if (offset == 0) {
        auto base = pool.pairBase(rng, diff_mask);
        if (!base)
            return std::nullopt;
        partner = *base ^ diff_mask;
        return base;
    }
    // Non-linear probing: the partner differs by diff_mask in the
    // region-normalized space, which is an addition-mangled (not XOR)
    // physical difference. Same acceptance loop as PhysPool::pairBase.
    for (unsigned i = 0; i < 4096; ++i) {
        PhysAddr a = pool.randomAddr(rng);
        PhysAddr b = denormalize(normalize(a) ^ diff_mask);
        if (pool.contains(b)) {
            partner = b;
            return a;
        }
    }
    return std::nullopt;
}

double
RhoReverseEngineer::tSbdr(std::uint64_t diff_mask)
{
    auto measureBatch = [&]() {
        std::vector<double> samples;
        samples.reserve(kPairsPerMeasurement);
        for (unsigned i = 0; i < kPairsPerMeasurement; ++i) {
            PhysAddr partner = 0;
            auto base = pairBaseAt(diff_mask, partner);
            if (!base)
                continue;
            samples.push_back(probe.measurePair(*base, partner,
                                                kRoundsPerPair));
        }
        return samples;
    };

    // A batch's instability score: the spread of its MAD inliers, with
    // an extra penalty when too many samples were rejected as
    // outliers. A clean batch (intrinsic rdtscp jitter only) scores
    // well under kMadStableNs; a batch overlapping an interference
    // burst scores far above it.
    auto score = [&](const std::vector<double> &samples,
                     const std::vector<double> &inliers) {
        double spread = medianAbsDeviation(inliers, median(inliers));
        if (inliers.size() <
            static_cast<std::size_t>(kMinInlierFrac * samples.size()))
            spread += kMadStableNs;
        return spread;
    };

    std::vector<double> samples = measureBatch();
    measureRetry.recordAttempt();
    if (samples.empty()) {
        warn("tSbdr: no owned pair for mask %llx",
             static_cast<unsigned long long>(diff_mask));
        return 0.0;
    }

    // Keep whole batches independent instead of pooling them: a batch
    // taken inside a burst is contaminated wholesale, and pooling it
    // with later clean samples would let the poisoned majority own
    // the median. The most stable batch wins; re-measure with bounded
    // exponential backoff until one is stable or the budget is spent.
    std::vector<double> inliers =
        madFilter(samples, kMadK, kMadFloorNs);
    double best_value = median(inliers);
    double best_score = score(samples, inliers);

    Ns backoff = kRemeasureBackoffNs;
    for (unsigned round = 0;
         round < kMaxRemeasureRounds && best_score > kMadStableNs;
         ++round) {
        probe.system().advance(backoff);
        measureRetry.recordRetry(backoff);
        backoff = std::min(backoff * kBackoffFactor, kMaxBackoffNs);

        samples = measureBatch();
        if (samples.empty())
            continue;
        inliers = madFilter(samples, kMadK, kMadFloorNs);
        double s = score(samples, inliers);
        if (s < best_score) {
            best_score = s;
            best_value = median(inliers);
        }
    }

    return best_value;
}

std::uint64_t
RhoReverseEngineer::recoverOffset(double thres, unsigned phys_bits)
{
    unsigned g = kOffsetGranuleBits;
    offset = 0;
    if (phys_bits <= g)
        return 0;
    // Offsets differing only in the address-space MSB are physically
    // equivalent: XOR at the top bit commutes with mod-2^n add/sub,
    // so the larger offset is the smaller one composed with a uniform
    // bank/row relabeling. Canonicalize to the half range.
    std::uint64_t candidates = 1ULL << (phys_bits - g);
    if (candidates > 1)
        candidates /= 2;

    // The low-bit structure is offset-invariant: candidates only
    // differ in bits >= g, and subtracting a multiple of 2^g never
    // borrows into the low bits, so a low-only diff mask predicts the
    // same partner under every candidate. Classify low single bits,
    // then collect same-function row-inclusive pairs entirely below
    // the granule — one anchor per function, because each candidate
    // discriminator needs an anchor in the function that owns the
    // high bit it perturbs.
    std::vector<unsigned> fast;
    for (unsigned b = kLowestBit; b < g; ++b) {
        if (tSbdr(1ULL << b) <= thres)
            fast.push_back(b);
    }
    constexpr unsigned maxAnchors = 4;
    std::vector<unsigned> anchors;
    std::vector<bool> used(g, false);
    // Descending search: the interleaved functions put their
    // row-partnered bits at the top of the low range, so each
    // function's first slow pair comes quickly, and excluding found
    // bits steers the scan to the next function rather than a
    // duplicate pair of the same one.
    for (std::size_t i = fast.size();
         anchors.size() < maxAnchors && i-- > 1;) {
        if (used[fast[i]])
            continue;
        for (std::size_t j = i; j-- > 0;) {
            if (used[fast[j]])
                continue;
            std::uint64_t m = (1ULL << fast[i]) | (1ULL << fast[j]);
            if (tSbdr(m) > thres) {
                anchors.push_back(fast[j]);
                used[fast[i]] = used[fast[j]] = true;
                break;
            }
        }
    }
    if (anchors.empty())
        return 0;

    // Probe masks {anchor, high bit}. Under the true offset every
    // mask's normalized difference is exactly the mask, so every mask
    // classifies consistently and the same-function {anchor, high}
    // masks are all SBDR-slow. A wrong offset's borrow chain mangles
    // the difference per base, mixing the classes of the masks whose
    // high bit sits where the candidate-vs-truth borrow patterns
    // diverge — killing the MINIMUM per-mask consistency. Score =
    // (#consistent-slow masks, min consistency); the slow count ranks
    // the surviving candidates because residual borrow garbage lands
    // on other functions and turns row conflicts into bank misses.
    std::vector<std::uint64_t> masks;
    for (unsigned hi = g; hi < phys_bits; ++hi) {
        for (unsigned lo : anchors)
            masks.push_back((1ULL << hi) | (1ULL << lo));
    }

    std::uint64_t best = 0;
    double best_cons = -1.0, zero_cons = 0.0;
    unsigned best_slow = 0, zero_slow = 0;
    for (std::uint64_t k = 0; k < candidates; ++k) {
        offset = k << g;
        double min_cons = 1.0;
        unsigned slow_masks = 0;
        for (std::uint64_t m : masks) {
            unsigned slow = 0, n = 0;
            for (unsigned s = 0; s < cfg.offsetSamplesPerMask; ++s) {
                PhysAddr partner = 0;
                auto base = pairBaseAt(m, partner);
                if (!base)
                    continue;
                double t =
                    probe.measurePair(*base, partner, kRoundsPerPair);
                ++n;
                slow += t > thres ? 1 : 0;
            }
            if (n == 0)
                continue;
            double slow_frac =
                static_cast<double>(slow) / static_cast<double>(n);
            min_cons =
                std::min(min_cons, std::max(slow_frac, 1.0 - slow_frac));
            if (slow_frac >= kOffsetAcceptScore)
                ++slow_masks;
        }
        if (verbose()) {
            inform("recoverOffset: candidate %#llx cons %.3f slow %u",
                   static_cast<unsigned long long>(k << g), min_cons,
                   slow_masks);
        }
        if (k == 0) {
            zero_cons = min_cons;
            zero_slow = slow_masks;
        }
        // Consistency is the gate, recovered-SBDR count the ranking.
        if (min_cons < kOffsetAcceptScore)
            continue;
        if (slow_masks > best_slow
            || (slow_masks == best_slow && min_cons > best_cons)) {
            best_cons = min_cons;
            best_slow = slow_masks;
            best = k;
        }
    }

    // Prefer the linear hypothesis: adopt a non-zero offset only when
    // offset 0 is REJECTED by its own masks — a true region offset
    // makes some zero-offset mask mix classes (the borrow chain flips
    // different functions per base), while a linear mapping times
    // perfectly consistently at 0 no matter how tempting a shifted,
    // gauge-equivalent description looks. Noise floods gate every
    // candidate out (best stays 0); both fall back to 0.
    offset = 0;
    if (best != 0 && zero_cons < kOffsetAcceptScore
        && best_slow > zero_slow) {
        offset = best << g;
    }
    return offset;
}

std::optional<double>
RhoReverseEngineer::findThreshold()
{
    // Probability-distribution method: random pairs fall into two
    // assembly areas (SBDR and non-SBDR); split them at the widest
    // density gap. The SBDR fraction is roughly 1/(#banks-1), so the
    // upper mode is small but well separated. Chunked over simulated
    // time so a burst poisons at most a minority of the per-chunk
    // thresholds, never the merged histogram.
    return robustSeparatingThreshold(probe, pool, rng,
                                     kThresholdPairs);
}

MappingRecovery
RhoReverseEngineer::run()
{
    MemorySystem &sys = probe.system();
    Ns t0 = sys.now();
    std::uint64_t acc0 = probe.accessCount();

    MappingRecovery out;
    measureRetry = RetryStats{};
    RHO_TRACE(sys.tracer(), t0, EventKind::PhaseBegin, 0,
              static_cast<std::uint32_t>(SimPhase::ReverseEng), 0, 0);

    // Charge the (dominant) setup cost: allocating ~70% of physical
    // memory in 4 KiB pages and reading their pagemap entries.
    sys.advance(static_cast<Ns>(pool.ownedPages()) *
                kSetupCostPerPageNs);

    // Step 0: threshold.
    std::optional<double> found = findThreshold();
    if (!found) {
        out = emptyPoolRecovery(sys.now() - t0);
        RHO_TRACE(sys.tracer(), sys.now(), EventKind::PhaseEnd, 0,
                  static_cast<std::uint32_t>(SimPhase::ReverseEng), 0,
                  0);
        return out;
    }
    double thres = *found;
    out.thresholdNs = thres;

    unsigned phys_bits = sys.mapping().physBits();
    addrMask = phys_bits >= 64 ? ~0ULL : (1ULL << phys_bits) - 1;

    // Step 0b: non-linear region offset. All subsequent probing runs
    // in the normalized space, where the mapping is plain GF(2) again
    // and Algorithm 1 applies unchanged.
    out.regionOffset = recoverOffset(thres, phys_bits);

    std::vector<unsigned> all_bits;
    for (unsigned b = kLowestBit; b < phys_bits; ++b)
        all_bits.push_back(b);

    // Exclude pure row bits: a single-bit difference that is slow can
    // only be a row bit outside every bank function.
    std::vector<unsigned> pure_row, non_pure;
    for (unsigned b : all_bits) {
        if (tSbdr(1ULL << b) > thres)
            pure_row.push_back(b);
        else
            non_pure.push_back(b);
    }

    // Step 1: Duet. SBDR iff both bits share one bank function and at
    // least one of them is a row bit.
    std::vector<std::pair<unsigned, unsigned>> fn_pairs;
    std::vector<unsigned> row_bits = pure_row;
    for (std::size_t i = 0; i < non_pure.size(); ++i) {
        for (std::size_t j = i + 1; j < non_pure.size(); ++j) {
            unsigned bx = non_pure[i], by = non_pure[j];
            if (tSbdr((1ULL << bx) | (1ULL << by)) > thres) {
                fn_pairs.push_back({bx, by});
                row_bits.push_back(std::max(bx, by));
            }
        }
    }

    if (fn_pairs.empty()) {
        out.failureReason = "no row-inclusive bank functions found";
        out.code = FailureCode::NoRowFunctions;
        out.simTimeNs = sys.now() - t0;
        out.timedAccesses = probe.accessCount() - acc0;
        out.measureRetry = measureRetry;
        RHO_TRACE(sys.tracer(), sys.now(), EventKind::PhaseEnd, 0,
                  static_cast<std::uint32_t>(SimPhase::ReverseEng), 0,
                  0);
        return out;
    }

    std::sort(row_bits.begin(), row_bits.end());
    row_bits.erase(std::unique(row_bits.begin(), row_bits.end()),
                   row_bits.end());

    // Step 2: Trios. Borrow an SBDR state from a row-inclusive
    // function; a third differing bit that is a bank bit breaks it.
    auto [bf, bf2] = fn_pairs.front();
    std::uint64_t borrow = (1ULL << bf) | (1ULL << bf2);
    std::vector<unsigned> non_row_bank;
    for (unsigned bx : non_pure) {
        if (bx == bf || bx == bf2)
            continue;
        if (std::binary_search(row_bits.begin(), row_bits.end(), bx))
            continue;
        if (tSbdr(borrow | (1ULL << bx)) < thres)
            non_row_bank.push_back(bx);
    }

    // Step 3: Quartet. Two non-row bank bits in the same function
    // cancel out and preserve the borrowed SBDR state.
    for (std::size_t i = 0; i < non_row_bank.size(); ++i) {
        for (std::size_t j = i + 1; j < non_row_bank.size(); ++j) {
            unsigned bx = non_row_bank[i], by = non_row_bank[j];
            std::uint64_t m = borrow | (1ULL << bx) | (1ULL << by);
            if (tSbdr(m) > thres)
                fn_pairs.push_back({bx, by});
        }
    }

    // Merge pairs into functions (union-find over bits).
    std::map<unsigned, unsigned> parent;
    std::function<unsigned(unsigned)> find = [&](unsigned x) {
        auto it = parent.find(x);
        if (it == parent.end() || it->second == x)
            return x;
        unsigned r = find(it->second);
        parent[x] = r;
        return r;
    };
    for (auto [a, b] : fn_pairs) {
        parent.try_emplace(a, a);
        parent.try_emplace(b, b);
        unsigned ra = find(a), rb = find(b);
        if (ra != rb)
            parent[ra] = rb;
    }
    std::map<unsigned, std::uint64_t> groups;
    for (auto &[bit, _] : parent)
        groups[find(bit)] |= 1ULL << bit;

    for (auto &[root, mask] : groups)
        out.bankFns.push_back(mask);
    std::sort(out.bankFns.begin(), out.bankFns.end());
    out.rowBits = row_bits;

    out.success = !out.bankFns.empty() && !out.rowBits.empty();
    if (!out.success) {
        out.failureReason = "incomplete structure";
        out.code = FailureCode::IncompleteStructure;
    }
    out.simTimeNs = sys.now() - t0;
    out.timedAccesses = probe.accessCount() - acc0;
    out.measureRetry = measureRetry;
    RHO_TRACE(sys.tracer(), sys.now(), EventKind::PhaseEnd,
              out.success ? 1 : 0,
              static_cast<std::uint32_t>(SimPhase::ReverseEng),
              out.bankFns.size(), out.rowBits.size());
    return out;
}

} // namespace rho
