/**
 * @file
 * PRAC — Per-Row Activation Counting with Alert Back-Off (ABO), the
 * DDR5 mitigation direction the paper's section 6 names as closing
 * the sampler-starvation loophole for good.
 *
 * PRAC stores an activation counter *in every DRAM row*; each ACT of a
 * row increments its own counter. The counters persist across regular
 * REF (they live in the row's storage, not in sampler SRAM), so no
 * amount of decoy churn or refresh phasing can make the device lose
 * track of an aggressor. When a row's count reaches the alert
 * threshold the device asserts ALERT_n and the host enters Alert
 * Back-Off: it stops issuing ACTs for the tABO window while the device
 * services the rows it knows are hottest — refreshing their
 * neighbourhoods and resetting the serviced counters.
 *
 * Model simplifications (documented in DESIGN.md):
 *  - counters are exact and per (bank, row), with no RFM-subtraction
 *    variant (JEDEC allows decrementing instead of zeroing);
 *  - ABO services up to `aboSlots` rows per alert: the crossing row
 *    plus the highest remaining counters at or above half threshold
 *    (deterministic tie-break on the lower row number);
 *  - the back-off stall is charged to the activating bank as a flat
 *    tABO penalty by the controller (see Dimm::access).
 */

#ifndef RHO_DRAM_PRAC_HH
#define RHO_DRAM_PRAC_HH

#include <cstdint>
#include <vector>

#include "dram/trr.hh"

namespace rho
{

/** PRAC/ABO tunables. */
struct PracConfig
{
    bool enabled = false;
    /**
     * Per-row ACT count that asserts ALERT_n. Safe deployments pick
     * this well below the DIMM's HC_first divided by the worst-case
     * neighbour amplification (two distance-1 aggressors at weight 1
     * plus two distance-2 at the half-double weight).
     */
    std::uint32_t threshold = 512;
    /**
     * Rows serviced per alert: the crossing row plus up to
     * (aboSlots - 1) further rows whose counters reached at least half
     * the threshold, hottest first.
     */
    unsigned aboSlots = 2;
};

/** What one alert serviced. */
struct PracAlertAction
{
    std::vector<TrrTarget> protect; //!< rows whose neighbourhoods refresh
    std::uint32_t peak = 0;         //!< counter value that crossed
};

/**
 * The PRAC alert rule. The per-row counters live in the owning Dimm's
 * row state (a real device keeps them in the rows themselves); the
 * engine counts ACTs on them, decides ALERT_n and picks the rows the
 * Alert Back-Off window services.
 */
class PracEngine
{
  public:
    explicit PracEngine(const PracConfig &cfg);

    /**
     * Count one activation on the activated row's counter.
     * @return true when the counter reached the threshold: ALERT_n is
     *         asserted and the caller runs alertBackOff().
     */
    bool
    countAct(std::uint32_t &counter) const
    {
        return ++counter >= cfg.threshold;
    }

    /**
     * Alert Back-Off for `row`, whose `counter` just crossed: the row
     * is serviced first, then the hottest other counters at or above
     * half the threshold fill the remaining aboSlots - 1 slots, hottest
     * first and the lower row on ties. That is a total order, so the
     * order in which `forEachCounter` visits the rows cannot change the
     * choice. Every serviced counter is zeroed.
     *
     * @param forEachCounter called with a visitor; calls the visitor
     *        with (row, counter&) for every row of `bank` it tracks.
     */
    template <typename ForEachCounter>
    PracAlertAction
    alertBackOff(std::uint32_t bank, std::uint64_t row,
                 std::uint32_t &counter, ForEachCounter forEachCounter)
    {
        ++alertCount;
        PracAlertAction action;
        action.peak = counter;
        action.protect.push_back({bank, row});
        counter = 0;
        if (cfg.aboSlots > 1) {
            std::vector<HotRow> hot;
            std::uint32_t floor = cfg.threshold / 2;
            forEachCounter([&](std::uint64_t r, std::uint32_t &c) {
                if (c > 0 && c >= floor)
                    hot.push_back({c, r, &c});
            });
            serviceHottest(bank, hot, action);
        }
        return action;
    }

    bool enabled() const { return cfg.enabled; }

    const PracConfig &config() const { return cfg; }

    /** ALERT_n assertions (= ABO windows) so far. */
    std::uint64_t alerts() const { return alertCount; }

    /**
     * Restore the factory-fresh engine: drops the alert count. (The
     * counters go with the owning Dimm's row state.)
     */
    void reset() { alertCount = 0; }

  private:
    struct HotRow
    {
        std::uint32_t count;
        std::uint64_t row;
        std::uint32_t *counter;
    };

    /** Fill the extra ABO slots from `hot` and zero their counters. */
    void serviceHottest(std::uint32_t bank, std::vector<HotRow> &hot,
                        PracAlertAction &action) const;

    PracConfig cfg;
    std::uint64_t alertCount = 0;
};

} // namespace rho

#endif // RHO_DRAM_PRAC_HH
