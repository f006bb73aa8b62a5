/**
 * @file
 * DRAMDig-style knowledge-assisted baseline (Wang et al., DAC 2020)
 * for the Table 5 comparison.
 *
 * Method: identify and exclude pure row bits first, color *all*
 * allocated memory into banks, then brute-force XOR functions over
 * the remaining bits. Correct where its layout assumptions hold
 * (Comet/Rocket Lake), but two orders of magnitude slower than
 * rhoHammer because of the exhaustive coloring; aborts on
 * Alder/Raptor Lake where no pure row bits exist.
 */

#ifndef RHO_REVNG_BASELINE_DRAMDIG_HH
#define RHO_REVNG_BASELINE_DRAMDIG_HH

#include "revng/reverse_engineer.hh"

namespace rho
{

/** The baseline driver. */
class DramDigReverseEngineer
{
  public:
    DramDigReverseEngineer(TimingProbe &probe, const PhysPool &pool,
                           std::uint64_t seed);

    MappingRecovery run();

  private:
    TimingProbe &probe;
    const PhysPool &pool;
    Rng rng;
};

} // namespace rho

#endif // RHO_REVNG_BASELINE_DRAMDIG_HH
