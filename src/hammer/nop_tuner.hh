/**
 * @file
 * The NOP-count tuning phase of counter-speculation hammering
 * (paper section 4.4, Fig. 10): sweep the pseudo-barrier size and
 * keep the optimum, which balances prefetch ordering against
 * activation-rate loss.
 */

#ifndef RHO_HAMMER_NOP_TUNER_HH
#define RHO_HAMMER_NOP_TUNER_HH

#include <vector>

#include "hammer/hammer_session.hh"

namespace rho
{

/** One sweep point. */
struct NopTunePoint
{
    unsigned nops;
    std::uint64_t flips;
    Ns timeNs;
    double missRate;
};

/** Sweep outcome. */
struct NopTuneResult
{
    unsigned bestNops = 0;
    std::uint64_t bestFlips = 0;
    std::vector<NopTunePoint> curve;
    /** PatternUnplaceable (with an empty curve) when the pattern does
     *  not fit a bank. */
    FailureCode failure = FailureCode::None;
};

/**
 * Sweep nop counts for a fixed pattern/config over a set of
 * locations; cfg.barrier/nopCount are overridden per point.
 */
NopTuneResult tuneNops(HammerSession &session,
                       const HammerPattern &pattern, HammerConfig cfg,
                       const std::vector<unsigned> &nop_counts,
                       unsigned locations);

} // namespace rho

#endif // RHO_HAMMER_NOP_TUNER_HH
