#include "hammer/pattern.hh"

#include <algorithm>

#include "common/table.hh"

namespace rho
{

std::string
patternParamsError(const PatternParams &params)
{
    if (params.minPairs < 1)
        return "minPairs must be >= 1";
    if (params.minPairs > params.maxPairs)
        return strFormat("minPairs (%u) > maxPairs (%u)",
                         params.minPairs, params.maxPairs);
    if (params.minPeriodLog2 > params.maxPeriodLog2)
        return strFormat("minPeriodLog2 (%u) > maxPeriodLog2 (%u)",
                         params.minPeriodLog2, params.maxPeriodLog2);
    if (params.maxPeriodLog2 >= 20)
        return strFormat("maxPeriodLog2 (%u) unreasonably large",
                         params.maxPeriodLog2);
    if (params.maxFreqLog2 >= params.minPeriodLog2)
        return strFormat(
            "maxFreqLog2 (%u) >= minPeriodLog2 (%u): frequencies could "
            "exceed the period",
            params.maxFreqLog2, params.minPeriodLog2);
    if (params.maxAmpLog2 >= params.minPeriodLog2)
        return strFormat(
            "maxAmpLog2 (%u) >= minPeriodLog2 (%u): one appearance "
            "could cover the whole period",
            params.maxAmpLog2, params.minPeriodLog2);
    return "";
}

std::uint64_t
hashPatternParams(std::uint64_t key, const PatternParams &params)
{
    for (unsigned v : {params.minPairs, params.maxPairs,
                       params.minPeriodLog2, params.maxPeriodLog2,
                       params.maxFreqLog2, params.maxAmpLog2,
                       params.maxRowSpread})
        key = hashCombine(key, v);
    return key;
}

namespace
{

/** floor(log2(x)) for x >= 1. */
unsigned
floorLog2(unsigned x)
{
    unsigned l = 0;
    while (x >>= 1)
        ++l;
    return l;
}

/**
 * Claim the next free slot at or after `pos` (wrapping) for `pair`.
 * Placements beyond a full period are silently dropped — the pattern
 * is oversubscribed and the earlier pairs win their slots.
 */
void
placeSlot(std::vector<unsigned> &slot_seq, unsigned pos, unsigned pair)
{
    unsigned period = static_cast<unsigned>(slot_seq.size());
    for (unsigned k = 0; k < period; ++k) {
        unsigned s = (pos + k) % period;
        if (slot_seq[s] == ~0u) {
            slot_seq[s] = pair;
            return;
        }
    }
}

/**
 * Materialize a genome into a slot sequence: pairs claim slots in
 * gene order at evenly spaced phases. Frequencies above the period
 * are clamped to it — `period / freq` would otherwise truncate to a
 * zero step and collapse all appearances of the pair onto one run of
 * slots (and loop `freq` times doing it).
 */
void
placeGenes(std::vector<unsigned> &slot_seq,
           const std::vector<PairGene> &genes)
{
    unsigned period = static_cast<unsigned>(slot_seq.size());
    for (unsigned pair = 0; pair < genes.size(); ++pair) {
        const PairGene &g = genes[pair];
        unsigned freq = std::min(1u << g.freqLog2, period);
        unsigned amp = 1u << g.ampLog2;
        unsigned phase = g.phase % period;
        unsigned step = period / freq;
        for (unsigned j = 0; j < freq; ++j) {
            unsigned pos = (phase + j * step) % period;
            for (unsigned k = 0; k < amp; ++k)
                placeSlot(slot_seq, pos + k, pair);
        }
    }
}

} // namespace

HammerPattern
HammerPattern::randomNonUniform(Rng &rng, const PatternParams &params)
{
    HammerPattern p;
    p.patternId = rng.raw();
    unsigned period = 1u << rng.uniformInt(params.minPeriodLog2,
                                           params.maxPeriodLog2);
    p.nPairs = static_cast<unsigned>(
        rng.uniformInt(params.minPairs, params.maxPairs));
    p.slotSeq.assign(period, ~0u);

    // Draw order (freq, amp, phase per pair; fill draws last) is
    // pinned: the golden traces replay these exact streams.
    p.genes.reserve(p.nPairs);
    for (unsigned pair = 0; pair < p.nPairs; ++pair) {
        PairGene g;
        unsigned freq = 1u << rng.uniformInt(0, params.maxFreqLog2);
        g.freqLog2 = floorLog2(std::min(freq, period));
        g.ampLog2 = static_cast<unsigned>(
            rng.uniformInt(0, params.maxAmpLog2));
        g.phase = static_cast<unsigned>(rng.uniformInt(0, period - 1));
        g.rowOffset = pair * p.pairStride;
        p.genes.push_back(g);
    }
    placeGenes(p.slotSeq, p.genes);

    // Fill the remaining slots with random pairs so every slot
    // hammers (Blacksmith keeps the bus saturated).
    for (unsigned s = 0; s < period; ++s) {
        if (p.slotSeq[s] == ~0u) {
            p.slotSeq[s] = static_cast<unsigned>(
                rng.uniformInt(0, p.nPairs - 1));
        }
    }
    return p;
}

HammerPattern
HammerPattern::randomGenome(Rng &rng, const PatternParams &params)
{
    std::uint64_t id = rng.raw();
    unsigned period_log2 = static_cast<unsigned>(rng.uniformInt(
        params.minPeriodLog2, params.maxPeriodLog2));
    unsigned n_pairs = static_cast<unsigned>(
        rng.uniformInt(params.minPairs, params.maxPairs));
    std::vector<PairGene> genome;
    genome.reserve(n_pairs);
    for (unsigned pair = 0; pair < n_pairs; ++pair) {
        PairGene g;
        g.freqLog2 = static_cast<unsigned>(rng.uniformInt(
            0, std::min(params.maxFreqLog2, period_log2)));
        g.ampLog2 = static_cast<unsigned>(
            rng.uniformInt(0, params.maxAmpLog2));
        g.phase = static_cast<unsigned>(
            rng.uniformInt(0, (1u << period_log2) - 1));
        g.rowOffset = static_cast<unsigned>(
            rng.uniformInt(0, params.maxRowSpread));
        genome.push_back(g);
    }
    return fromGenome(id, 1u << period_log2, std::move(genome));
}

HammerPattern
HammerPattern::fromGenome(std::uint64_t id, unsigned period_slots,
                          std::vector<PairGene> genome)
{
    HammerPattern p;
    p.patternId = id;
    p.legacySpan = false;
    p.nPairs = static_cast<unsigned>(genome.size());
    p.genes = std::move(genome);
    if (period_slots == 0)
        period_slots = 1;
    for (PairGene &g : p.genes)
        g.phase %= period_slots;
    p.slotSeq.assign(period_slots, ~0u);
    if (p.nPairs == 0) {
        p.slotSeq.assign(period_slots, 0);
        p.nPairs = 1;
        p.genes.push_back(PairGene{});
        return p;
    }
    placeGenes(p.slotSeq, p.genes);
    // Deterministic filler (no rng): equal genomes materialize
    // bit-identically, which the evolved search's resume digests rely
    // on.
    for (unsigned s = 0; s < period_slots; ++s) {
        if (p.slotSeq[s] == ~0u) {
            p.slotSeq[s] = static_cast<unsigned>(
                splitMix64(hashCombine(id, s)) % p.nPairs);
        }
    }
    return p;
}

HammerPattern
HammerPattern::doubleSided(unsigned period_slots)
{
    HammerPattern p;
    p.patternId = 0xd5;
    p.nPairs = 1;
    p.slotSeq.assign(period_slots, 0);
    return p;
}

HammerPattern
HammerPattern::mutate(Rng &rng, const PatternParams &params) const
{
    unsigned period = static_cast<unsigned>(slotSeq.size());
    unsigned period_log2 = floorLog2(period);
    std::vector<PairGene> genome = genes;
    if (genome.empty()) {
        // Legacy pattern without genes (doubleSided): lift the uniform
        // layout into a genome first so mutation has state to act on.
        for (unsigned pair = 0; pair < nPairs; ++pair)
            genome.push_back(PairGene{0, 0, pair, pair * pairStride});
    }

    auto random_gene = [&]() {
        PairGene g;
        g.freqLog2 = static_cast<unsigned>(rng.uniformInt(
            0, std::min(params.maxFreqLog2, period_log2)));
        g.ampLog2 = static_cast<unsigned>(
            rng.uniformInt(0, params.maxAmpLog2));
        g.phase = static_cast<unsigned>(
            rng.uniformInt(0, period - 1));
        g.rowOffset = static_cast<unsigned>(
            rng.uniformInt(0, params.maxRowSpread));
        return g;
    };

    // One guaranteed edit plus a geometric tail: single-field tweaks
    // alone walk the landscape too slowly for short searches.
    unsigned n_ops = 1;
    while (n_ops < 3 && rng.chance(0.35))
        ++n_ops;
    for (unsigned edit = 0; edit < n_ops; ++edit) {
        unsigned op = static_cast<unsigned>(rng.uniformInt(0, 6));
        unsigned victim = static_cast<unsigned>(
            rng.uniformInt(0, genome.size() - 1));
        switch (op) {
          case 0: // retune frequency
            genome[victim].freqLog2 =
                static_cast<unsigned>(rng.uniformInt(
                    0, std::min(params.maxFreqLog2, period_log2)));
            break;
          case 1: // retune amplitude
            genome[victim].ampLog2 = static_cast<unsigned>(
                rng.uniformInt(0, params.maxAmpLog2));
            break;
          case 2: // re-phase
            genome[victim].phase = static_cast<unsigned>(
                rng.uniformInt(0, period - 1));
            break;
          case 3: // move the pair to a new row offset
            genome[victim].rowOffset = static_cast<unsigned>(
                rng.uniformInt(0, params.maxRowSpread));
            break;
          case 4: // grow (or, at the cap, refresh) a pair
            if (genome.size() < params.maxPairs)
                genome.push_back(random_gene());
            else
                genome[victim] = random_gene();
            break;
          case 5: // shrink (or, at the floor, refresh) a pair
            if (genome.size() > params.minPairs)
                genome.erase(genome.begin() + victim);
            else
                genome[victim] = random_gene();
            break;
          case 6: { // resize the period (re-wrapped in fromGenome)
            unsigned new_log2 = static_cast<unsigned>(rng.uniformInt(
                params.minPeriodLog2, params.maxPeriodLog2));
            period = 1u << new_log2;
            break;
          }
        }
    }
    return fromGenome(rng.raw(), period, std::move(genome));
}

HammerPattern
HammerPattern::crossover(Rng &rng, const HammerPattern &a,
                         const HammerPattern &b)
{
    const std::vector<PairGene> &ga = a.genes;
    const std::vector<PairGene> &gb = b.genes;
    unsigned period = static_cast<unsigned>(
        rng.chance(0.5) ? a.slotSeq.size() : b.slotSeq.size());
    std::size_t lo = std::min(ga.size(), gb.size());
    std::size_t hi = std::max(ga.size(), gb.size());
    std::size_t n = static_cast<std::size_t>(rng.uniformInt(lo, hi));
    std::vector<PairGene> genome;
    genome.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= ga.size())
            genome.push_back(gb[i]);
        else if (i >= gb.size())
            genome.push_back(ga[i]);
        else
            genome.push_back(rng.chance(0.5) ? ga[i] : gb[i]);
    }
    return fromGenome(rng.raw(), period, std::move(genome));
}

std::uint64_t
HammerPattern::genomeFingerprint() const
{
    std::uint64_t h = hashCombine(slotSeq.size(), 0x6e0e5ULL);
    for (const PairGene &g : genes) {
        h = hashCombine(h, g.freqLog2);
        h = hashCombine(h, g.ampLog2);
        h = hashCombine(h, g.phase);
        h = hashCombine(h, g.rowOffset);
    }
    return h;
}

std::string
HammerPattern::describe() const
{
    return strFormat("pattern{id=%llx, pairs=%u, period=%zu%s}",
                     static_cast<unsigned long long>(patternId), nPairs,
                     slotSeq.size(), hasGenome() ? ", genome" : "");
}

} // namespace rho
