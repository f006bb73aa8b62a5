/**
 * @file
 * Branch prediction model: gshare pattern history table plus a direct
 * mapped branch target buffer.
 *
 * The counter-speculation technique (paper section 4.4) defeats both
 * structures with runtime-randomized multi-way control flow: the PHT
 * cannot learn a rdrand-derived direction and the BTB keeps being
 * retrained across the randomized targets. Here those branches are
 * fed genuinely random outcomes, so the mispredict rate is an emergent
 * property of the predictor, not a configured constant.
 */

#ifndef RHO_CPU_BRANCH_PREDICTOR_HH
#define RHO_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace rho
{

/** gshare + BTB predictor: a 4096-entry PHT and a 1024-entry BTB. */
class BranchPredictor
{
  public:
    BranchPredictor();

    /**
     * Predict and then resolve one branch.
     *
     * @param pc_hash splitMix64 of the branch instruction's static
     *        identity. The engines hash each branch PC once (the
     *        Blocked plan at compile time); splitMix64 is a bijection,
     *        so indexing and tagging by the hash is the same predictor
     *        as indexing by the hash and tagging by the PC.
     * @param taken actual direction.
     * @param target actual target identity (0 for fall-through).
     * @return true iff the branch was mispredicted (direction or
     *         target).
     */
    // Defined here so both engines inline it, and written with select
    // arithmetic instead of control flow: `taken` is rdrand-derived in
    // the obfuscated-branch workload, so any host branch on it (or on
    // anything derived from it) mispredicts at the full random rate.
    // The modeled predictor state machine is unchanged — each select
    // computes exactly the value the original if/else produced.
    bool
    predictAndUpdate(std::uint64_t pc_hash, bool taken, std::uint64_t target)
    {
        unsigned pht_idx =
            static_cast<unsigned>((pc_hash ^ history) & kPhtMask);
        std::uint8_t ctr = pht[pht_idx];
        bool predicted_taken = ctr >= 2;

        unsigned btb_idx = static_cast<unsigned>(pc_hash & kBtbMask);
        BtbEntry &be = btb[btb_idx];
        bool target_hit =
            be.valid & (be.tag == pc_hash) & (be.target == target);

        // taken: miss iff direction or target was wrong; not taken:
        // miss iff predicted taken.
        bool mispredict = taken ? !(predicted_taken & target_hit)
                                : predicted_taken;

        // Update: saturating 2-bit counter moves toward the outcome;
        // the BTB (re)learns the target only on taken branches.
        std::uint8_t up = ctr + (ctr < 3);
        std::uint8_t down = ctr - (ctr > 0);
        pht[pht_idx] = taken ? up : down;
        be.tag = taken ? pc_hash : be.tag;
        be.target = taken ? target : be.target;
        be.valid = be.valid | taken;
        history = ((history << 1) | (taken ? 1 : 0)) & kPhtMask;

        return mispredict;
    }

    void reset();

  private:
    static constexpr unsigned kPhtBits = 12, kBtbBits = 10;
    static constexpr std::uint64_t kPhtMask = (1u << kPhtBits) - 1;
    static constexpr std::uint64_t kBtbMask = (1u << kBtbBits) - 1;

    std::vector<std::uint8_t> pht;  //!< 2-bit saturating counters
    struct BtbEntry
    {
        std::uint64_t tag = 0; //!< the branch's pc_hash
        std::uint64_t target = 0;
        bool valid = false;
    };
    std::vector<BtbEntry> btb;
    std::uint64_t history = 0;
};

} // namespace rho

#endif // RHO_CPU_BRANCH_PREDICTOR_HH
