/**
 * @file
 * rhoHammer's DRAM address-mapping reverse engineering (paper
 * Algorithm 1): selective pairwise SBDR measurements with structured
 * deduction (Duet / Trios / Quartet), layout-agnostic and polynomial
 * in the number of physical address bits.
 */

#ifndef RHO_REVNG_REVERSE_ENGINEER_HH
#define RHO_REVNG_REVERSE_ENGINEER_HH

#include <optional>
#include <string>
#include <vector>

#include "common/failure.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "memsys/timing_probe.hh"
#include "os/pagemap.hh"

namespace rho
{

/**
 * Measurement-budget knob. The rest of the budget (paper defaults in
 * section 3.3) and the robustness tuning are constants in the .cc.
 */
struct ReverseEngineerConfig
{
    /** Timed pairs per probe mask in the region-offset scan. */
    unsigned offsetSamplesPerMask = 8;
};

/** Outcome of a mapping-recovery run (any tool). */
struct MappingRecovery
{
    bool success = false;
    std::string failureReason;
    FailureCode code = FailureCode::None;
    RetryStats measureRetry; //!< robust-measurement retries/backoffs
    std::vector<std::uint64_t> bankFns;
    std::vector<unsigned> rowBits; //!< ascending
    /**
     * Recovered non-linear region base (0 for linear mappings). When
     * non-zero, bankFns/rowBits describe the structure of the
     * region-normalized address (pa - regionOffset).
     */
    std::uint64_t regionOffset = 0;
    double thresholdNs = 0.0;
    Ns simTimeNs = 0.0;            //!< total simulated runtime
    std::uint64_t timedAccesses = 0;

    /**
     * Compare against ground truth: row bits must match exactly and
     * the bank functions must span the same GF(2) space.
     */
    bool matches(const AddressMapping &truth) const;
};

/**
 * The result of a tool whose page pool is empty: nothing can be
 * timed, so it fails with FailureCode::AllocationFailed after
 * `sim_time_ns` of setup.
 */
MappingRecovery emptyPoolRecovery(Ns sim_time_ns);

/** Algorithm 1. */
class RhoReverseEngineer
{
  public:
    RhoReverseEngineer(TimingProbe &probe, const PhysPool &pool,
                       std::uint64_t seed,
                       ReverseEngineerConfig cfg = ReverseEngineerConfig{});

    /** Run the full recovery. */
    MappingRecovery run();

  private:
    /**
     * T_SBDR(M, diff_mask): robust pairwise timing, in ns. Samples
     * are MAD-filtered; when the surviving set is too small or too
     * spread (interference burst), the measurement backs off in
     * simulated time and takes fresh batches, up to three times, then
     * returns the inlier median.
     */
    double tSbdr(std::uint64_t diff_mask);

    /**
     * Step 0: find the SBDR/non-SBDR separating threshold (nullopt
     * for an empty pool).
     */
    std::optional<double> findThreshold();

    /**
     * Step 0b: scan region-offset candidates (multiples of the
     * granule) and adopt the one whose predicted pairings time
     * consistently — the Zen non-linearity detector. Returns the
     * adopted offset (0 for linear mappings) and leaves the probing
     * state (this->offset) set to it.
     */
    std::uint64_t recoverOffset(double thres, unsigned phys_bits);

    /** (pa - offset) mod 2^physBits: the space the XOR core hashes. */
    PhysAddr normalize(PhysAddr pa) const
    {
        return (pa - offset) & addrMask;
    }
    PhysAddr denormalize(PhysAddr n) const
    {
        return (n + offset) & addrMask;
    }

    /**
     * A pooled base whose partner differs by diff_mask in normalized
     * space (plain XOR when offset is 0). Returns the base and writes
     * the partner; nullopt when the pool has no such pair.
     */
    std::optional<PhysAddr> pairBaseAt(std::uint64_t diff_mask,
                                       PhysAddr &partner);

    TimingProbe &probe;
    const PhysPool &pool;
    Rng rng;
    ReverseEngineerConfig cfg;
    RetryStats measureRetry;
    std::uint64_t offset = 0;   //!< region offset assumed while probing
    std::uint64_t addrMask = 0; //!< 2^physBits - 1
};

} // namespace rho

#endif // RHO_REVNG_REVERSE_ENGINEER_HH
