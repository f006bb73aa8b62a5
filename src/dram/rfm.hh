/**
 * @file
 * DDR5 Refresh Management (RFM) model (paper section 6, "Towards
 * Future Research on DDR5").
 *
 * DDR5 devices maintain a Rolling Accumulated ACT (RAA) counter per
 * bank with JEDEC-shaped bookkeeping:
 *
 *  - every ACT increments the bank's RAA counter;
 *  - when RAA reaches the *initial* management threshold (RAAIMT) the
 *    controller issues an RFM command at once, which subtracts RAAIMT
 *    from the counter — so after every ACT, RAA < RAAIMT;
 *  - every REF command subtracts a configurable amount from every
 *    bank's counter (refDecrement) — regular refresh already covers a
 *    slice of the disturbance budget, so the rolling count decays.
 *
 * The controller never defers an RFM, so RAA stays far below the
 * JEDEC maximum management threshold (RAAMMT) and the model has no
 * urgent-RFM path.
 *
 * Unlike DDR4 TRR's tiny probabilistic sampler, the RAA bookkeeping is
 * deterministic and cannot be starved by decoy churn — which is why
 * the paper (and concurrent work) observed no effective non-uniform
 * pattern on DDR5 setups.
 *
 * The model tracks per-bank RAA counters and the victimsPerRfm most
 * recently activated distinct rows; every RFM event refreshes their
 * neighbourhoods. Each ACT only appends its row to a short per-bank
 * log, which is folded into that list when an RFM reads it or the log
 * fills (RfmEngine::fold explains why the result is exact).
 */

#ifndef RHO_DRAM_RFM_HH
#define RHO_DRAM_RFM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "dram/trr.hh"

namespace rho
{

/**
 * Coarse RFM operating points (mode-register "RFM level" shorthand):
 * how aggressively the device demands refresh management.
 */
enum class RfmLevel : std::uint8_t
{
    Off,      //!< RFM not required (DDR5 with RFM disabled)
    Relaxed,  //!< high RAAIMT, few rows protected per RFM
    Default,  //!< JEDEC-typical RAAIMT = 32
    Strict,   //!< low RAAIMT, maximum protection per RFM
};

/** Stable display name ("off", "relaxed", ...). */
const char *rfmLevelName(RfmLevel level);

/** DDR5 RFM tunables (JEDEC-style knobs, simplified). */
struct RfmConfig
{
    bool enabled = false;
    std::uint32_t raaimt = 32;      //!< initial threshold: ACTs per RFM
    /**
     * RAA subtracted from every bank per REF command (saturating at
     * zero). 0 selects the JEDEC-typical raaimt / 2.
     */
    std::uint32_t refDecrement = 0;
    unsigned victimsPerRfm = 4;     //!< rows protected per RFM

    std::uint32_t
    refDecrementEffective() const
    {
        return refDecrement != 0 ? refDecrement : raaimt / 2;
    }

    /** The operating point for one RFM level. */
    static RfmConfig forLevel(RfmLevel level);
};

/** What one observed ACT made the refresh-management machinery do. */
struct RfmAction
{
    std::vector<TrrTarget> protect; //!< rows to protect now
    bool fired = false;             //!< an RFM command was issued
};

/**
 * Per-bank RAA counters + recency tracking. The owning Dimm feeds it
 * ACTs and REF commands; it returns rows whose neighbourhoods must be
 * refreshed when an RFM fires.
 */
class RfmEngine
{
  public:
    RfmEngine(const RfmConfig &cfg, std::uint32_t num_banks);

    /**
     * Observe one activation.
     * @return the RFM decision (protect list empty unless one fired).
     */
    RfmAction
    observeAct(std::uint32_t bank, std::uint64_t row)
    {
        if (!cfg.enabled)
            return {};
        BankState &b = banks[bank];
        ++b.increments;
        // Log the row; the recency list is only brought up to date
        // when an RFM reads it or the log fills.
        b.history[b.logged++] = row;
        // The controller issues the owed RFM as soon as RAA reaches
        // RAAIMT.
        if (++b.raa < cfg.raaimt) {
            if (b.logged == historyLen)
                fold(b);
            return {};
        }
        return issueRfm(bank, b);
    }

    /**
     * Observe one REF command: every bank's RAA counter is decremented
     * by refDecrement (saturating at zero). Per JEDEC, regular refresh
     * subtracts from the rolling count — a previous revision of this
     * model never decayed RAA on REF and over-fired RFMs.
     */
    void onRef();

    std::uint64_t rfmCommands() const { return rfms; }

    /**
     * Total RAA increments observed for one bank — exactly one per
     * ACT, so campaign accounting can be cross-checked against the
     * device's ACT stream (metamorphic RAA test).
     */
    std::uint64_t raaIncrements(std::uint32_t bank) const;

    /** Sum of raaIncrements over all banks. */
    std::uint64_t totalRaaIncrements() const;

    /** Current RAA counter of one bank (test introspection). */
    std::uint32_t raa(std::uint32_t bank) const;

    bool enabled() const { return cfg.enabled; }

    const RfmConfig &config() const { return cfg; }

    /**
     * Restore the factory-fresh engine: zeroes every bank's RAA
     * counter, increment accounting, ACT log and recency list plus
     * the RFM command counts.
     */
    void reset();

  private:
    /** ACTs a bank logs before it must fold them into `recent`. */
    static constexpr unsigned historyLen = 32;

    struct BankState
    {
        std::uint32_t raa = 0;
        std::uint32_t logged = 0; //!< valid entries of `history`
        std::uint64_t increments = 0;
        /** Rows activated since the last fold, oldest first. */
        std::array<std::uint64_t, historyLen> history{};
        /** Most recent distinct rows as of the last fold, newest first. */
        std::vector<std::uint64_t> recent;
    };

    void fold(BankState &b);
    RfmAction issueRfm(std::uint32_t bank, BankState &b);

    RfmConfig cfg;
    std::vector<BankState> banks;
    /** fold() builds the new list here, then swaps it in. */
    std::vector<std::uint64_t> scratch;
    std::uint64_t rfms = 0;
};

} // namespace rho

#endif // RHO_DRAM_RFM_HH
