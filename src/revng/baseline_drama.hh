/**
 * @file
 * DRAMA-style brute-force reverse engineering baseline
 * (Pessl et al., USENIX Security 2016), as reimplemented for the
 * Table 5 comparison.
 *
 * Method: time random address pairs to group addresses into bank
 * sets ("coloring"), then exhaustively search small XOR functions
 * that are constant within every set. Its documented assumptions -
 * small per-function bit counts, a bounded candidate-bit range, and
 * pure high-order row bits - fail on the mappings of all four
 * evaluated machines, matching the paper's "-" entries.
 */

#ifndef RHO_REVNG_BASELINE_DRAMA_HH
#define RHO_REVNG_BASELINE_DRAMA_HH

#include "revng/reverse_engineer.hh"

namespace rho
{

/** The baseline driver. */
class DramaReverseEngineer
{
  public:
    DramaReverseEngineer(TimingProbe &probe, const PhysPool &pool,
                         std::uint64_t seed);

    MappingRecovery run();

  private:
    TimingProbe &probe;
    const PhysPool &pool;
    Rng rng;
};

} // namespace rho

#endif // RHO_REVNG_BASELINE_DRAMA_HH
