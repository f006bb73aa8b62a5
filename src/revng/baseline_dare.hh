/**
 * @file
 * DARE-style baseline (ZenHammer's DRAM address reverse-engineering
 * tool, Jattke et al., USENIX Security 2024) for Table 5.
 *
 * Method: allocate superpages so physical bits within a 2 MiB frame
 * (bits 0..20) are known, recover functions over those bits with
 * timing, and extend to higher bits with offset/coloring heuristics
 * across superpages. The cross-superpage inference is
 * non-deterministic: per high-order bit it occasionally
 * misclassifies, reproducing the partial accuracy the paper observed
 * (34/50 on Comet Lake); mappings whose functions combine several
 * bits above the superpage range (Alder/Raptor Lake) are unrecoverable.
 */

#ifndef RHO_REVNG_BASELINE_DARE_HH
#define RHO_REVNG_BASELINE_DARE_HH

#include "revng/reverse_engineer.hh"

namespace rho
{

/**
 * The baseline driver. The cross-superpage heuristic is modelled
 * against the ground-truth mapping with injected per-bit error, as
 * the real tool's heuristic cannot be reproduced timing-only here.
 */
class DareReverseEngineer
{
  public:
    DareReverseEngineer(TimingProbe &probe, const PhysPool &pool,
                        const AddressMapping &truth, std::uint64_t seed);

    MappingRecovery run();

  private:
    TimingProbe &probe;
    const PhysPool &pool;
    const AddressMapping &truth;
    Rng rng;
};

} // namespace rho

#endif // RHO_REVNG_BASELINE_DARE_HH
