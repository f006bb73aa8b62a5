/**
 * @file
 * Non-uniform hammering patterns in the frequency domain
 * (Blacksmith-style, paper section 4.1).
 *
 * A pattern is a base period of slots; each slot hammers one
 * double-sided aggressor pair. Pairs carry different frequencies,
 * phases and amplitudes, so some act as true aggressors and others as
 * decoys that churn the TRR sampler. Patterns encode only *relative*
 * row offsets; they are instantiated at a concrete (bank, base row)
 * location when executed.
 *
 * Patterns built from a *genome* carry one PairGene per pair — the
 * (frequency, phase, amplitude, row offset) tuple is first-class
 * state, so the evolutionary fuzzer (hammer/evo_fuzzer) can mutate and
 * recombine patterns instead of sampling blindly. Genome pairs may sit
 * at arbitrary row offsets, not just the uniform `pair * stride`
 * layout of the legacy sampler; overlapping pairs are legal and act as
 * Blacksmith-style aggressor reuse.
 */

#ifndef RHO_HAMMER_PATTERN_HH
#define RHO_HAMMER_PATTERN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/failure.hh"
#include "common/rng.hh"

namespace rho
{

/** Generation knobs for the fuzzer. */
struct PatternParams
{
    unsigned minPairs = 4;
    unsigned maxPairs = 14;
    unsigned minPeriodLog2 = 5; //!< 32 slots
    unsigned maxPeriodLog2 = 7; //!< 128 slots
    unsigned maxFreqLog2 = 3;   //!< up to 8 appearances per period
    unsigned maxAmpLog2 = 2;    //!< up to 4 consecutive repeats
    unsigned maxRowSpread = 56; //!< largest genome pair row offset
};

/**
 * Human-readable rejection reason for a degenerate PatternParams, or
 * "" when the parameters are usable. Inverted ranges (minPairs >
 * maxPairs, minPeriodLog2 > maxPeriodLog2) would feed Rng::uniformInt
 * a lo > hi range — undefined behaviour in the underlying
 * distribution — and maxFreqLog2 >= minPeriodLog2 permits frequencies
 * above the period. Fuzzer entry points reject such params with
 * FailureCode::InvalidPatternParams instead of sampling from them.
 */
std::string patternParamsError(const PatternParams &params);

/**
 * `key` with every PatternParams field folded in, in declaration order
 * (the fuzz and evo journal keys end with it).
 */
std::uint64_t hashPatternParams(std::uint64_t key,
                                const PatternParams &params);

/** True when patternParamsError(params) is empty. */
inline bool
patternParamsOk(const PatternParams &params)
{
    return patternParamsError(params).empty();
}

/**
 * One pair's frequency-domain gene: how often the pair appears per
 * period (2^freqLog2, clamped to the period at materialization), how
 * many consecutive slots each appearance occupies (2^ampLog2), the
 * slot phase of the first appearance, and the row offset of the
 * pair's first aggressor relative to the instantiation base row (the
 * second aggressor sits at +2, the sandwiched victim at +1).
 */
struct PairGene
{
    unsigned freqLog2 = 0;
    unsigned ampLog2 = 0;
    unsigned phase = 0;
    unsigned rowOffset = 0;

    bool
    operator==(const PairGene &o) const
    {
        return freqLog2 == o.freqLog2 && ampLog2 == o.ampLog2
            && phase == o.phase && rowOffset == o.rowOffset;
    }
};

/** A frequency-domain aggressor schedule. */
class HammerPattern
{
  public:
    /** Pseudo-random non-uniform pattern (the blind sampler). */
    static HammerPattern randomNonUniform(
        Rng &rng, const PatternParams &params = PatternParams{});

    /**
     * Random genome-backed pattern (the evolutionary fuzzer's seed
     * generator): like randomNonUniform but with per-pair random row
     * offsets in [0, maxRowSpread] and frequencies clamped to the
     * period at draw time.
     */
    static HammerPattern randomGenome(
        Rng &rng, const PatternParams &params = PatternParams{});

    /**
     * Materialize a pattern from an explicit genome. Phases are
     * reduced mod the period and frequencies clamped to it; slots not
     * claimed by any gene are filled deterministically from `id` so
     * equal (id, period, genome) triples materialize bit-identically.
     */
    static HammerPattern fromGenome(std::uint64_t id,
                                    unsigned period_slots,
                                    std::vector<PairGene> genome);

    /** Classic uniform double-sided hammering (TRR catches this). */
    static HammerPattern doubleSided(unsigned period_slots = 64);

    /**
     * A genome-preserving point mutation: tweak one gene field, add or
     * drop a pair, or resize the period — all within `params` bounds.
     * Deterministic for a given rng state; the child gets a fresh
     * pattern id drawn from `rng`.
     */
    HammerPattern mutate(Rng &rng, const PatternParams &params) const;

    /**
     * Uniform crossover of two genomes: the child takes its period
     * from one parent and each gene from either parent (genes past the
     * shorter genome come from the longer one). Pair count stays
     * within [min(nA, nB), max(nA, nB)], which both parents keep
     * inside [minPairs, maxPairs].
     */
    static HammerPattern crossover(Rng &rng, const HammerPattern &a,
                                   const HammerPattern &b);

    /** Slot sequence: pair index hammered at each slot. */
    const std::vector<unsigned> &slots() const { return slotSeq; }

    unsigned numPairs() const { return nPairs; }

    /** Per-pair genes; empty for doubleSided() legacy patterns. */
    const std::vector<PairGene> &genome() const { return genes; }

    bool hasGenome() const { return !genes.empty(); }

    /**
     * Order-sensitive hash of (period, genome). Two patterns with
     * equal fingerprints materialize identical schedules for equal
     * ids; the evolutionary fuzzer journals population digests built
     * from this.
     */
    std::uint64_t genomeFingerprint() const;

    /**
     * Row offset (relative to the location base row) of the first
     * aggressor of a pair; the second aggressor sits at +2 and the
     * main victim at +1.
     */
    unsigned
    pairRowOffset(unsigned pair) const
    {
        if (pair < genes.size())
            return genes[pair].rowOffset;
        return pair * pairStride;
    }

    /** Rows per pair footprint (aggressors + guard). */
    unsigned stride() const { return pairStride; }

    /** Total footprint of the pattern in rows. */
    unsigned
    footprintRows() const
    {
        if (legacySpan || genes.empty())
            return nPairs * pairStride + 3;
        unsigned max_off = 0;
        for (const PairGene &g : genes)
            max_off = max_off < g.rowOffset ? g.rowOffset : max_off;
        return max_off + 3;
    }

    std::uint64_t id() const { return patternId; }
    std::string describe() const;

  private:
    std::vector<unsigned> slotSeq;
    std::vector<PairGene> genes;
    unsigned nPairs = 0;
    unsigned pairStride = 4;
    /**
     * Legacy samplers lay pairs out at uniform stride and quote the
     * footprint as nPairs * stride + 3; genome patterns quote the
     * tight max-offset footprint. The flag keeps the legacy quote (and
     * with it every pre-genome location schedule) bit-stable.
     */
    bool legacySpan = true;
    std::uint64_t patternId = 0;
};

} // namespace rho

#endif // RHO_HAMMER_PATTERN_HH
