/**
 * @file
 * Behavioural DDR4 DIMM model: bank/row-buffer timing, periodic
 * refresh, TRR, and the charge-disturbance mechanism that produces
 * RowHammer bit flips.
 *
 * Flip mechanics: every activation (ACT) of a row disturbs its
 * neighbours (distance 1 fully, distance 2 attenuated). A row's
 * accumulated disturbance resets whenever the row itself is activated
 * or refreshed (auto-refresh sweeps all rows once per tREFW; TRR adds
 * targeted refreshes). When the accumulated disturbance crosses a weak
 * cell's threshold, the stored bit flips in the direction determined
 * by the cell's true/anti orientation.
 *
 * Flip-latch (re-arm) semantics: once a weak cell's threshold is
 * crossed, the cell is *latched* — the flip (or the orientation
 * mismatch that made it a no-op) has been applied to the currently
 * stored data, and the cell is skipped by later threshold scans. A
 * latched cell re-arms only when the data it stores is rewritten:
 * writeBytes() re-arms exactly the cells whose byte lies in the
 * written range, fillRow() re-arms the whole row. Charge-restoring
 * operations (self-ACT, readByte(), auto-refresh, TRR/RFM refresh)
 * reset the accumulated disturbance but do NOT re-arm — reading a
 * flipped cell senses and restores the flipped value, so there is no
 * fresh charge state to lose until the attacker (or victim) rewrites
 * it.
 *
 * Row-state storage: the hot activation path uses a flat per-bank
 * store (RowStoreKind::Flat) — a radix row index over a pointer-stable
 * pool, fronted by a per-bank cache of the activated row's open
 * neighbourhood. A hammer loop revisits the same handful of rows
 * millions of times, so nearly every activation is a cache hit and
 * never reaches the index; a broad working set (reverse engineering)
 * misses on nearly every ACT and finds the row and its blast-radius
 * neighbours in one 16-row leaf, and frees rows that auto-refresh has
 * returned to their factory state. The original std::unordered_map path
 * is kept as RowStoreKind::Reference; both produce bit-identical
 * traces and flip sequences (pinned by the differential tests in
 * tests/test_rowstore.cc and the committed goldens).
 */

#ifndef RHO_DRAM_DIMM_HH
#define RHO_DRAM_DIMM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dram/dimm_profile.hh"
#include "dram/ecc.hh"
#include "dram/timing.hh"
#include "dram/prac.hh"
#include "dram/rfm.hh"
#include "dram/trr.hh"
#include "mapping/address_mapping.hh"
#include "trace/tracer.hh"

namespace rho
{

class FaultInjector;

/** A committed bit flip, for statistics and test introspection. */
struct FlipRecord
{
    std::uint32_t bank;
    std::uint64_t row;
    std::uint32_t bitOffset; //!< within the 8 KiB row
    bool toOne;              //!< flip direction
    Ns when;

    bool operator==(const FlipRecord &) const = default;
};

/** Result of a timed DRAM access. */
struct DramAccessResult
{
    Ns latency;   //!< controller-visible latency, ns
    bool rowHit;  //!< served from the open row buffer
    bool act;     //!< an ACT was performed (hammer-relevant)
};

/**
 * Which per-row state organisation the device uses. Observable
 * behaviour is identical; Flat is the fast path, Reference the
 * original hash-map implementation kept as a differential-testing
 * oracle.
 */
enum class RowStoreKind
{
    Flat,      //!< per-bank radix index + lookup caches
    Reference  //!< global std::unordered_map, linear weak-cell scans
};

/**
 * One DIMM: geometry and weak cells from a DimmProfile, timing from a
 * DramTiming, mitigations from a TrrConfig.
 */
class Dimm
{
  public:
    Dimm(const DimmProfile &profile, const DramTiming &timing,
         const TrrConfig &trr_cfg, const RfmConfig &rfm_cfg = RfmConfig{},
         const PracConfig &prac_cfg = PracConfig{},
         const EccConfig &ecc_cfg = EccConfig{});

    /** Timed access; advances internal (lazy) refresh machinery. */
    DramAccessResult access(const DramAddr &da, Ns now);

    /**
     * Functional data-path write of contiguous bytes within one row,
     * starting at the byte offset da.col. Activates the row
     * (resetting its disturbance) as a real write would, and re-arms
     * the flip latches of exactly the weak cells whose byte falls in
     * the written range (see the flip-latch semantics in the file
     * comment).
     */
    void writeBytes(const DramAddr &da, const std::uint8_t *data,
                    std::size_t len, Ns now);

    /**
     * Functional read of one byte (flips already applied). Restores
     * the row's charge (disturbance resets) but does not re-arm flip
     * latches: a read-verified cell stays flipped until its data is
     * rewritten.
     */
    std::uint8_t readByte(const DramAddr &da, Ns now);

    /**
     * Fill an entire row with a repeating byte pattern. Re-arms every
     * flip latch in the row (the whole row's data is rewritten).
     */
    void fillRow(std::uint32_t bank, std::uint64_t row,
                 std::uint8_t pattern, Ns now);

    /**
     * Compare a row's stored data against the fill pattern it was
     * initialized with; returns the bit offsets that differ.
     *
     * With on-die ECC enabled, the comparison runs on the
     * controller-visible (post-correction) view: per aligned codeword
     * the decoder corrects single-bit errors (emitting EccCorrected)
     * and deterministically miscorrects the documented multi-bit
     * syndromes (EccMiscorrect) — so the returned flips are exactly
     * the ECC-escaping ones. The raw cell flips stay in flipLog().
     */
    std::vector<FlipRecord> diffRow(std::uint32_t bank, std::uint64_t row,
                                    std::uint8_t expected, Ns now);

    /** On-die ECC configuration this device was built with. */
    const EccConfig &eccConfig() const { return ecc; }

    const DimmProfile &profile() const { return prof; }
    const DramTiming &timing() const { return tim; }
    const DimmGeometry &geometry() const { return prof.geom; }

    /** Running log of every committed flip (clearable). */
    const std::vector<FlipRecord> &flipLog() const { return flips; }
    void clearFlipLog() { flips.clear(); }

    std::uint64_t totalActs() const { return acts; }
    std::uint64_t trrRefreshCount() const { return trr.targetedRefreshes(); }
    std::uint64_t rfmCommandCount() const { return rfm.rfmCommands(); }
    std::uint64_t pracAlertCount() const { return prac.alerts(); }

    /** Simulated time the bank spent stalled on RFM commands. */
    Ns rfmStallNs() const { return rfmStalls; }
    /** Simulated time the bank spent stalled in ABO windows. */
    Ns aboStallNs() const { return aboStalls; }

    /** Refresh-management engine (RAA accounting introspection). */
    const RfmEngine &rfmEngine() const { return rfm; }

    /**
     * PRAC activation counter of one row (test introspection): 0 for a
     * row the device holds no state for, and always 0 with PRAC off.
     */
    std::uint32_t pracCount(std::uint32_t bank, std::uint64_t row) const;

    /**
     * Rows the device holds state for (test introspection): every row
     * ever touched on the reference store, the live ones on the flat.
     */
    std::size_t rowsHeld() const;

    /**
     * Restore the factory-fresh device: drops all per-row state and
     * resets the mitigation engines (TRR sampler tables *and* sampling
     * randomness, RFM RAA counters), so a reset device produces the
     * same flip sequence as a newly constructed one.
     */
    void reset();

    /**
     * Select the row-state organisation. Must be called before any
     * row state materializes (right after construction or reset());
     * switching a device with live rows would discard accumulated
     * charge state, so it panics instead.
     */
    void setRowStore(RowStoreKind kind);
    RowStoreKind rowStore() const { return store; }

    /**
     * Attach a fault injector (nullptr detaches). Enables probabilistic
     * flip non-reproduction at threshold crossings and spurious
     * TRR-style neighbour refreshes per ACT. The injector must outlive
     * the DIMM or be detached first.
     */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }

    /**
     * Attach a tracer (nullptr detaches) for DRAM command, disturb,
     * flip, and mitigation events. Forwards to the TRR sampler.
     * Tracing draws no randomness and touches no timing state, so an
     * attached tracer never changes simulation results.
     */
    void
    setTracer(Tracer *t)
    {
        tracer = t;
        trr.setTracer(t);
    }

  private:
    /**
     * Cold per-row state, allocated the first time a row needs it: its
     * weak cells (built once its disturbance could flip one) and its
     * stored data. A broad working set of rows that are only activated
     * and disturbed never allocates one.
     */
    struct RowCells
    {
        std::vector<WeakCell> cells;
        std::vector<bool> flipped; //!< flip latch per cell
        /** Stored bytes; empty until a flip or write materializes it. */
        std::vector<std::uint8_t> data;
        /**
         * As-written copy of the row (on-die ECC only): what the
         * device's check bits were computed over. Maintained by the
         * functional write paths (writeBytes/fillRow), never by the
         * flip machinery — the shadow-vs-data diff per codeword is
         * exactly the decoder's error set. Materializes with `data`.
         */
        std::vector<std::uint8_t> shadow;
    };

    /**
     * Hot per-row state: everything an ACT, a disturbance or a refresh
     * reads, plus the pointer to the cold part, in 48 bytes.
     * A flat row is dead at `now` with no cold part, PRAC count 0,
     * fill 0 and lastRefresh < now - 2 tREFW: a touch at or after
     * now - tREFW applies the lazy auto-refresh first and finds it as
     * flatLookup creates a new row (DESIGN.md §5.13). reclaimRows frees
     * dead rows, but not while a tracer is attached: a reclaimed row's
     * next touch emits no DisturbReset(AutoRefresh), so a tracer
     * attached after a sweep misses those events. Creating a row before
     * the last sweep's now - tREFW panics.
     */
    struct alignas(16) RowState
    {
        Ns lastRefresh = -1e18;
        double disturb = 0.0;

        /**
         * Conservative lower bound on the smallest threshold among
         * unlatched weak cells (+inf when none): the threshold scan
         * runs only when `disturb` reaches it. Invariant:
         * minUnflipped <= min{threshold(c) : c unlatched}, so a stale
         * (too-low) bound costs a wasted scan but never skips a flip.
         * Flat rows start at the profile's hcMin (every threshold is
         * clamped to at least hcMin) and build their cells only when
         * `disturb` first reaches it; Reference rows build them at
         * their first disturbance.
         */
        double minUnflipped = std::numeric_limits<double>::infinity();

        // Auto-refresh memo: the slot time this row's lazy refresh was
        // last evaluated at. The next slot boundary is arLast + tREFW;
        // while now is short of it and lastRefresh hasn't been rolled
        // back below arLast, applyAutoRefresh is provably a no-op and
        // returns after one comparison. The default (arLast far in the
        // future, lastRefresh far in the past) fails the check.
        Ns arLast = 1e18;

        std::unique_ptr<RowCells> cold;

        /**
         * PRAC activation counter (PRAC on only). Like the device's
         * in-row counter it survives REF; only an ABO service or
         * reset() clears it.
         */
        std::uint32_t pracCount = 0;
        /** Weak cells looked up (cold->cells holds them, if any). */
        bool cellsInit = false;
        std::uint8_t fill = 0; //!< fill pattern the data starts as
    };
    static_assert(sizeof(RowState) == 48,
                  "the hot row state must stay 48 bytes");

    /**
     * Pointer-stable storage addressed by 32-bit ordinals (creation
     * order). Chunks fill in order, each as large as the elements
     * before it: 8, 8, 16, 32, 64, then 128 each. A bank holding a few
     * hot rows stays small and a broad working set allocates 128 at a
     * time; an ordinal finds its chunk from its bit width. Freed
     * ordinals are reused, reset, before the pool grows.
     */
    template <typename T>
    struct OrdinalPool
    {
        std::vector<std::unique_ptr<T[]>> chunks;
        std::vector<std::uint32_t> freed;
        std::uint32_t size = 0;
        std::uint32_t capacity = 0;

        std::uint32_t live() const { return size - freed.size(); }
        /** Elements in the chunk whose first ordinal is `first`. */
        static std::uint32_t chunkRows(std::uint32_t first)
        {
            return std::clamp(first, 8u, 128u);
        }

        T &
        operator[](std::uint32_t k) const
        {
            if (k >= 128) // the first five chunks hold 128
                return chunks[4 + k / 128][k % 128];
            if (k < 8)
                return chunks[0][k];
            unsigned w = std::bit_width(k); // chunk w - 3 starts at 2^(w-1)
            return chunks[w - 3][k - (1u << (w - 1))];
        }

        /** Append a value-initialized element; returns its ordinal. */
        std::uint32_t
        add()
        {
            if (!freed.empty()) {
                std::uint32_t k = freed.back();
                freed.pop_back();
                (*this)[k] = T{};
                return k;
            }
            if (size == capacity) {
                std::uint32_t n = chunkRows(size);
                chunks.push_back(std::make_unique<T[]>(n));
                capacity += n;
            }
            return size++;
        }
    };

    /**
     * Per-bank flat row store: radix index + row pool + open-
     * neighbourhood cache. Once its live rows reach reclaimAt, the next
     * mitigation tick frees its dead rows (see RowState).
     */
    struct BankRows
    {
        static constexpr std::uint64_t emptyKey = ~0ULL;
        static constexpr std::uint32_t freeLeaf = ~0u;
        static constexpr std::uint32_t minReclaimRows = 256;
        static constexpr unsigned nbWayBits = 5; //!< 32 ways
        static constexpr unsigned leafBits = 4;    //!< 16 rows per leaf
        static constexpr unsigned regionBits = 10; //!< 64 leaves per region

        /**
         * Radix index: row >> regionBits picks a region in `top`
         * (allocated with its first row), the next six bits a leaf
         * ordinal in the region, the low leafBits a row ordinal in the
         * leaf; 0 is none, else 1 + the ordinal. A leaf is one cache
         * line and holds a row's blast radius unless the row sits
         * within two rows of its edge. Nothing is ever rehashed.
         */
        struct alignas(64) Leaf
        {
            std::array<std::uint32_t, std::size_t{1} << leafBits> slot{};
        };
        using Region = std::array<std::uint32_t,
                                  std::size_t{1} << (regionBits - leafBits)>;
        std::vector<std::unique_ptr<Region>> top;
        OrdinalPool<Leaf> leaves;
        /** First row of each leaf by ordinal; freeLeaf once freed. */
        std::vector<std::uint32_t> leafRow;
        OrdinalPool<RowState> rows; //!< this bank's rows, by ordinal
        /** Live rows that make the bank due for a sweep. */
        std::uint32_t reclaimAt = minReclaimRows;

        /**
         * Open-neighbourhood cache for doAct: the activated row plus
         * its four blast-radius neighbours, resolved once and reused
         * while the hammer loop revisits the row. Direct-mapped on the
         * row number xor-folded in nbWayBits-wide slices, so
         * neighbouring rows and rows a power-of-two stride apart (an
         * SBDR pair differing in one row bit) take distinct ways; an
         * entry is displaced (invalidated) when a different row maps
         * onto its way. A non-uniform pattern puts up to 14 aggressor
         * pairs (28 rows) in one bank, so 32 ways hold a whole pattern
         * where 8 thrashed.
         */
        struct NbEntry
        {
            std::uint64_t tag = emptyKey;
            RowState *self = nullptr;
            std::array<RowState *, 4> nb{}; //!< d = -2,-1,+1,+2
        };
        std::array<NbEntry, std::size_t{1} << nbWayBits> nbCache;

        NbEntry &
        nbEntry(std::uint64_t row)
        {
            std::uint64_t x = row;
            for (unsigned s = nbWayBits; s < 32; s += nbWayBits)
                x ^= row >> s;
            return nbCache[x & (nbCache.size() - 1)];
        }
    };

    /** Reference-store key: the bank above the low rowKeyBits. */
    static constexpr unsigned rowKeyBits = 40;

    static std::uint64_t
    rowKey(std::uint32_t bank, std::uint64_t row)
    {
        return (static_cast<std::uint64_t>(bank) << rowKeyBits) | row;
    }

    RowState &rowState(std::uint32_t bank, std::uint64_t row, Ns now);
    RowState *flatFind(const BankRows &b, std::uint64_t row) const;
    RowState *flatLookup(BankRows &b, std::uint64_t row, Ns now);
    void reclaimRows(Ns now);
    bool anyRowState() const;
    void applyAutoRefresh(RowState &rs, std::uint32_t bank,
                          std::uint64_t row, Ns now);
    Ns autoRefreshBefore(std::uint64_t row, Ns now) const;
    void refreshNeighbours(std::uint32_t bank, std::uint64_t row, Ns now,
                           ResetSource source);
    void resetDisturb(RowState &rs, std::uint32_t bank, std::uint64_t row,
                      Ns when, ResetSource source);
    void doAct(std::uint32_t bank, std::uint64_t row, Ns now);
    std::uint32_t &pracCounter(std::uint32_t bank, std::uint64_t row,
                               Ns now);
    template <typename Visit>
    void forEachPracCounter(std::uint32_t bank, Visit visit);
    void disturbCells(RowState &rs, std::uint32_t bank,
                      std::uint64_t victim, double weight, Ns now);
    void initCells(RowState &rs, std::uint32_t bank, std::uint64_t victim);
    void scanCells(RowState &rs, std::uint32_t bank, std::uint64_t victim,
                   Ns now);
    void recomputeMinThreshold(RowState &rs);
    void processTrrTicks(Ns now);
    static RowCells &coldPart(RowState &rs);
    static bool hasCells(const RowState &rs);
    std::vector<std::uint8_t> &materializeData(RowState &rs);
    EccDecision decodeCodeword(const RowState &rs,
                               std::uint32_t base) const;

    const DimmProfile &prof;
    DramTiming tim;
    EccConfig ecc;
    SecOnDieEcc eccDecoder;
    TrrSampler trr;
    RfmEngine rfm;
    PracEngine prac;
    /**
     * Per-bank queue state, structure-of-arrays: access() only ever
     * touches one field class at a time (ready sweep, open-row
     * compare, ACT spacing), so parallel arrays keep the hot compares
     * on densely packed cache lines instead of striding over structs.
     */
    std::vector<std::int64_t> bankOpenRow; //!< open row, -1 = closed
    std::vector<Ns> bankReadyAt;           //!< bank busy until
    std::vector<Ns> bankLastActAt;         //!< last ACT (tRC spacing)
    /**
     * Last periodic-REF boundary this bank has accounted for (REF
     * blocking platforms only, see DramTiming::refBlocking): the
     * boundary closes the open row, and an access landing inside the
     * following tRFC window stalls to its end. Lazily advanced per
     * access so idle banks cost nothing.
     */
    std::vector<Ns> bankRefSeen;
    RowStoreKind store = RowStoreKind::Flat;
    std::vector<BankRows> bankRows;             //!< Flat storage
    std::unordered_map<std::uint64_t, RowState> rows; //!< Reference
    std::vector<FlipRecord> flips;
    std::uint64_t acts = 0;
    /**
     * Next tREFI epoch boundary. Constructed (and reset) to the first
     * tick, so the per-ACT mitigation-clock check in processTrrTicks
     * is a single compare until the epoch actually rolls over.
     */
    Ns nextTrrTick = 0.0;
    /** A bank reached reclaimAt: processTrrTicks sweeps (untraced). */
    bool reclaimDue = false;
    /** The last sweep's now - tREFW: no row may be created before it. */
    Ns reclaimFloor = -1e18;
    std::vector<std::uint8_t> sweepDead; //!< reclaimRows' scratch
    /**
     * Mitigation stall accrued by the current doAct (tRFM per RFM
     * fire, tABO per alert); access() folds it into the command's
     * latency and the bank's readyAt, then clears it.
     */
    Ns pendingStall = 0.0;
    Ns rfmStalls = 0.0;
    Ns aboStalls = 0.0;
    /**
     * Distance-2 coupling weight, copied out of the profile at
     * construction (the doAct hot loop reads it per neighbour).
     */
    double halfDoubleWeight = 0.08;
    FaultInjector *injector = nullptr;
    Tracer *tracer = nullptr;
};

} // namespace rho

#endif // RHO_DRAM_DIMM_HH
