#include "dram/dimm.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/fault_injector.hh"

namespace rho
{

Dimm::Dimm(const DimmProfile &profile, const DramTiming &timing,
           const TrrConfig &trr_cfg, const RfmConfig &rfm_cfg,
           const PracConfig &prac_cfg, const EccConfig &ecc_cfg)
    : prof(profile), tim(timing), ecc(ecc_cfg),
      eccDecoder(ecc_cfg.codewordBytes),
      trr(trr_cfg, profile.geom.flatBanks()),
      rfm(rfm_cfg, profile.geom.flatBanks()),
      prac(prac_cfg),
      bankOpenRow(profile.geom.flatBanks(), -1),
      bankReadyAt(profile.geom.flatBanks(), 0.0),
      bankLastActAt(profile.geom.flatBanks(), -1e18),
      bankRefSeen(profile.geom.flatBanks(), 0.0),
      bankRows(profile.geom.flatBanks()), nextTrrTick(timing.tREFI),
      halfDoubleWeight(profile.halfDoubleWeight)
{
    if (ecc.enabled
        && (ecc.codewordBytes == 0
            || profile.geom.rowBytes % ecc.codewordBytes != 0))
        panic("Dimm: ECC codeword (%u B) must evenly divide the row "
              "(%u B)",
              ecc.codewordBytes,
              static_cast<unsigned>(profile.geom.rowBytes));
}

void
Dimm::reset()
{
    rows.clear();
    for (BankRows &b : bankRows)
        b = BankRows{};
    flips.clear();
    std::fill(bankOpenRow.begin(), bankOpenRow.end(), -1);
    std::fill(bankReadyAt.begin(), bankReadyAt.end(), 0.0);
    std::fill(bankLastActAt.begin(), bankLastActAt.end(), -1e18);
    std::fill(bankRefSeen.begin(), bankRefSeen.end(), 0.0);
    acts = 0;
    nextTrrTick = tim.tREFI;
    pendingStall = 0.0;
    rfmStalls = 0.0;
    aboStalls = 0.0;
    trr.reset();
    rfm.reset();
    prac.reset();
}

void
Dimm::setRowStore(RowStoreKind kind)
{
    if (kind == store)
        return;
    if (acts != 0 || anyRowState())
        panic("Dimm::setRowStore: row state already materialized; "
              "select the store right after construction or reset()");
    store = kind;
}

bool
Dimm::anyRowState() const
{
    if (!rows.empty())
        return true;
    for (const BankRows &b : bankRows) {
        if (b.used != 0)
            return true;
    }
    return false;
}

Ns
Dimm::autoRefreshBefore(std::uint64_t row, Ns now) const
{
    // The refresh engine sweeps all rows once per tREFW in
    // refreshSlots bursts; a row's slot is its index modulo the slot
    // count, giving every row a fixed phase within the window.
    double slot = static_cast<double>(row % DramTiming::refreshSlots);
    Ns phase = (slot + 0.5) / DramTiming::refreshSlots * tim.tREFW;
    double k = std::floor((now - phase) / tim.tREFW);
    return phase + k * tim.tREFW;
}

// Zero a row's accumulated disturbance, emitting DisturbReset only
// when charge was actually dropped — so a quiet row never produces
// trace chatter and the causal replay sees exactly the resets that
// gate flips.
void
Dimm::resetDisturb(RowState &rs, std::uint32_t bank, std::uint64_t row,
                   Ns when, ResetSource source)
{
    if (rs.disturb > 0.0) {
        RHO_TRACE(tracer, when, EventKind::DisturbReset,
                  static_cast<std::uint8_t>(source), bank, row,
                  traceBits(rs.disturb));
    }
    rs.disturb = 0.0;
}

void
Dimm::applyAutoRefresh(RowState &rs, std::uint32_t bank,
                       std::uint64_t row, Ns now)
{
    // Memoised no-op check: autoRefreshBefore is monotone in now, so
    // while now is short of the next slot boundary (arBoundary) and
    // lastRefresh still covers the last evaluated slot (arLast), the
    // refresh below provably cannot fire and one comparison suffices.
    // The lastRefresh guard keeps this exact even when a TRR-driven
    // refresh rolls lastRefresh back to an earlier tick time.
    if (store == RowStoreKind::Flat && now < rs.arBoundary
        && rs.lastRefresh >= rs.arLast)
        return;
    Ns last = autoRefreshBefore(row, now);
    rs.arLast = last;
    rs.arBoundary = last + tim.tREFW;
    if (last > rs.lastRefresh) {
        rs.lastRefresh = last;
        // Stamped with the refresh's own (earlier) time: the stream
        // stays causally ordered even though the reset applies lazily.
        resetDisturb(rs, bank, row, last, ResetSource::AutoRefresh);
    }
}

Dimm::RowState *
Dimm::flatFind(const BankRows &b, std::uint64_t row) const
{
    if (b.index.empty())
        return nullptr;
    std::size_t mask = b.index.size() - 1;
    std::size_t i = splitMix64(row) & mask;
    while (b.index[i].row != BankRows::emptyKey) {
        if (b.index[i].row == row)
            return b.index[i].rs;
        i = (i + 1) & mask;
    }
    return nullptr;
}

void
Dimm::flatGrow(BankRows &b)
{
    std::vector<BankRows::Slot> old = std::move(b.index);
    std::size_t cap = old.empty() ? 256 : old.size() * 2;
    b.index.assign(cap, BankRows::Slot{});
    std::size_t mask = cap - 1;
    for (const BankRows::Slot &slot : old) {
        if (slot.row == BankRows::emptyKey)
            continue;
        std::size_t i = splitMix64(slot.row) & mask;
        while (b.index[i].row != BankRows::emptyKey)
            i = (i + 1) & mask;
        b.index[i] = slot;
    }
}

/**
 * Find-or-create without applying the lazy auto-refresh (callers do
 * that at each use). Checks the open-addressed index, then takes the
 * next slot of the chunked pool. doAct's open-neighbourhood cache
 * keeps the hammer loop's repeat visits from reaching here.
 */
Dimm::RowState *
Dimm::flatLookup(BankRows &b, std::uint64_t row, Ns now)
{
    RowState *rs = flatFind(b, row);
    if (!rs) {
        if (b.index.empty() || (b.used + 1) * 10 >= b.index.size() * 7)
            flatGrow(b);
        if (b.poolNext == b.poolEnd) {
            std::size_t n = std::clamp(b.used, BankRows::minChunkRows,
                                       BankRows::maxChunkRows);
            b.chunks.push_back(std::make_unique<RowState[]>(n));
            b.poolNext = b.chunks.back().get();
            b.poolEnd = b.poolNext + n;
        }
        rs = b.poolNext++;
        // The new row starts refreshed at its last slot, with the
        // auto-refresh memo applyAutoRefresh(now) would set: every
        // caller applies the lazy refresh at this same `now` next, and
        // finds it a no-op without recomputing the slot.
        Ns last = autoRefreshBefore(row, now);
        rs->lastRefresh = last;
        rs->arLast = last;
        rs->arBoundary = last + tim.tREFW;
        // Weak cells materialize lazily (see disturbCells): every
        // threshold is at least hcMin, so hcMin bounds them before the
        // list exists and the usual threshold compare doubles as the
        // materialization trigger.
        rs->minUnflipped = prof.flippable
            ? static_cast<double>(prof.hcMin)
            : std::numeric_limits<double>::infinity();
        std::size_t mask = b.index.size() - 1;
        std::size_t i = splitMix64(row) & mask;
        while (b.index[i].row != BankRows::emptyKey)
            i = (i + 1) & mask;
        b.index[i] = {row, rs};
        ++b.used;
    }
    return rs;
}

Dimm::RowState &
Dimm::rowState(std::uint32_t bank, std::uint64_t row, Ns now)
{
    if (store == RowStoreKind::Flat) {
        RowState *rs = flatLookup(bankRows[bank], row, now);
        // A just-created row has lastRefresh == the slot this call
        // would compute, so applying the lazy refresh unconditionally
        // is a no-op for it — same semantics as the reference path.
        applyAutoRefresh(*rs, bank, row, now);
        return *rs;
    }
    auto [it, inserted] = rows.try_emplace(rowKey(bank, row));
    RowState &rs = it->second;
    if (inserted)
        rs.lastRefresh = autoRefreshBefore(row, now);
    else
        applyAutoRefresh(rs, bank, row, now);
    return rs;
}

Dimm::RowCells &
Dimm::coldPart(RowState &rs)
{
    if (!rs.cold)
        rs.cold = std::make_unique<RowCells>();
    return *rs.cold;
}

bool
Dimm::hasCells(const RowState &rs)
{
    return rs.cold && !rs.cold->cells.empty();
}

std::vector<std::uint8_t> &
Dimm::materializeData(RowState &rs)
{
    RowCells &c = coldPart(rs);
    if (c.data.empty()) {
        c.data.assign(prof.geom.rowBytes, rs.fill);
        // The ECC shadow materializes with the data: both start as the
        // fill pattern, so data implies shadow while ECC is on.
        if (ecc.enabled)
            c.shadow.assign(prof.geom.rowBytes, rs.fill);
    }
    return c.data;
}

/**
 * Run the SEC decoder over one aligned codeword: the error set is the
 * per-bit difference between the stored cells and the as-written
 * shadow. `base` is the codeword's first byte offset within the row.
 */
EccDecision
Dimm::decodeCodeword(const RowState &rs, std::uint32_t base) const
{
    std::vector<std::uint32_t> errs;
    const auto &data = rs.cold->data;
    const auto &shadow = rs.cold->shadow;
    for (std::uint32_t b = 0; b < ecc.codewordBytes; ++b) {
        std::uint8_t diff = data[base + b] ^ shadow[base + b];
        while (diff) {
            unsigned bit = std::countr_zero(diff);
            diff &= diff - 1;
            errs.push_back(b * 8 + bit);
        }
    }
    return eccDecoder.decide(errs);
}

void
Dimm::recomputeMinThreshold(RowState &rs)
{
    double m = std::numeric_limits<double>::infinity();
    if (rs.cold) {
        const RowCells &c = *rs.cold;
        for (std::size_t i = 0; i < c.cells.size(); ++i) {
            if (!c.flipped[i])
                m = std::min(m, static_cast<double>(c.cells[i].threshold));
        }
    }
    rs.minUnflipped = m;
}

void
Dimm::disturbNeighbour(std::uint32_t bank, std::uint64_t victim,
                       double weight, Ns now)
{
    RowState &rs = rowState(bank, victim, now);
    disturbCells(rs, bank, victim, weight, now);
}

void
Dimm::initCells(RowState &rs, std::uint32_t bank, std::uint64_t victim)
{
    rs.cellsInit = true;
    std::vector<WeakCell> cells = prof.weakCellsFor(bank, victim);
    // A row without weak cells can never flip: it needs no cold part.
    if (!cells.empty()) {
        RowCells &c = coldPart(rs);
        c.flipped.assign(cells.size(), false);
        c.cells = std::move(cells);
    }
    recomputeMinThreshold(rs);
}

void
Dimm::disturbCells(RowState &rs, std::uint32_t bank, std::uint64_t victim,
                   double weight, Ns now)
{
    rs.disturb += weight;
    RHO_TRACE(tracer, now, EventKind::Disturb, 0, bank, victim,
              traceBits(weight));

    if (store == RowStoreKind::Flat) {
        // Common-case O(1) exit: no unlatched cell can have crossed
        // its threshold yet (minUnflipped is a conservative lower
        // bound), so the scan below — including its fault-injection
        // draws — cannot do anything. Before the row's weak cells
        // exist, minUnflipped is hcMin: below it no cell of the row
        // can flip, so the cell list is only built once it could.
        // (A row without weak cells keeps minUnflipped at +inf.)
        if (rs.disturb < rs.minUnflipped)
            return;
        if (!rs.cellsInit)
            initCells(rs, bank, victim);
        if (rs.disturb < rs.minUnflipped)
            return;
    } else {
        // Reference: eager materialization, linear scan every time.
        if (!rs.cellsInit)
            initCells(rs, bank, victim);
        if (!hasCells(rs))
            return;
    }

    scanCells(rs, bank, victim, now);
}

void
Dimm::scanCells(RowState &rs, std::uint32_t bank, std::uint64_t victim,
                Ns now)
{
    RowCells &cold = *rs.cold;
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        if (cold.flipped[i] || rs.disturb < cold.cells[i].threshold)
            continue;
        // Injected non-reproduction (Kim et al.: flip reproducibility
        // is itself probabilistic): the cell spontaneously retains its
        // charge and the row's accumulated disturbance is restored, so
        // the hammer must re-accumulate from zero. A retried run can
        // still produce the flip; a budget-exhausted run cannot.
        if (injector && injector->suppressFlip()) {
            // FlipSuppressed implies the disturb reset; the causal
            // replay treats it as one (no separate DisturbReset).
            // minUnflipped stays a valid (conservative) bound: no
            // latch changed.
            RHO_TRACE(tracer, now, EventKind::FlipSuppressed, 0, bank,
                      victim, traceBits(rs.disturb));
            rs.disturb = 0.0;
            return;
        }
        // Threshold crossed: the cell loses its charged state. The
        // flip only manifests if the stored bit is in the vulnerable
        // orientation (true cell storing 1, anti cell storing 0).
        auto &data = materializeData(rs);
        const WeakCell &c = cold.cells[i];
        std::uint32_t byte = c.bitOffset >> 3;
        std::uint8_t mask = 1u << (c.bitOffset & 7);
        bool stored_one = data[byte] & mask;
        if (c.trueCell && stored_one) {
            data[byte] &= ~mask;
            flips.push_back({bank, victim, c.bitOffset, false, now});
            RHO_TRACE(tracer, now, EventKind::BitFlip, 0, bank, victim,
                      c.bitOffset);
        } else if (!c.trueCell && !stored_one) {
            data[byte] |= mask;
            flips.push_back({bank, victim, c.bitOffset, true, now});
            RHO_TRACE(tracer, now, EventKind::BitFlip, 1, bank, victim,
                      c.bitOffset);
        }
        cold.flipped[i] = true;
    }
    recomputeMinThreshold(rs);
}

void
Dimm::refreshNeighbours(std::uint32_t bank, std::uint64_t row, Ns now,
                        ResetSource source)
{
    const int radius = static_cast<int>(prof.refreshRadius);
    const std::int64_t rows_per_bank =
        static_cast<std::int64_t>(prof.geom.rowsPerBank);
    for (int d = -radius; d <= radius; ++d) {
        if (d == 0)
            continue;
        std::int64_t v = static_cast<std::int64_t>(row) + d;
        if (v < 0 || v >= rows_per_bank)
            continue;
        RowState &rs = rowState(bank, static_cast<std::uint64_t>(v), now);
        resetDisturb(rs, bank, static_cast<std::uint64_t>(v), now, source);
        rs.lastRefresh = now;
    }

    // Half-Double: each victim refresh above is itself an activation,
    // and on parts with measurable distance-2 coupling it disturbs its
    // *own* distance-1 neighbourhood. With the narrow LPDDR4-style
    // sweep (radius 1) the refreshes of r+-1 therefore hammer r+-2 —
    // rows the sweep did NOT reset — turning the mitigation into the
    // attack vector. The sweep completes first (matching the command
    // order of a real per-row refresh train), then the disturbances
    // land.
    if (prof.refreshDisturbWeight <= 0.0)
        return;
    for (int d = -radius; d <= radius; ++d) {
        if (d == 0)
            continue;
        std::int64_t v = static_cast<std::int64_t>(row) + d;
        if (v < 0 || v >= rows_per_bank)
            continue;
        for (int e = -1; e <= 1; e += 2) {
            std::int64_t u = v + e;
            if (u < 0 || u >= rows_per_bank)
                continue;
            disturbNeighbour(bank, static_cast<std::uint64_t>(u),
                             prof.refreshDisturbWeight, now);
        }
    }
}

void
Dimm::processTrrTicks(Ns now)
{
    // Epoch gate: nextTrrTick is the next tREFI boundary (set at
    // construction/reset), so between boundaries — i.e. for almost
    // every ACT of a hammer burst — advancing the mitigation clocks is
    // provably a no-op and costs this one compare. When now is short
    // of the boundary, neither the fast-forward test (now - nextTrrTick
    // is negative) nor the tick loop below could fire.
    if (now < nextTrrTick)
        return;
    // If the simulation jumped far ahead (idle phases), fast-forward:
    // stale counters would have decayed anyway.
    if (now - nextTrrTick > tim.tREFW) {
        nextTrrTick = std::floor(now / tim.tREFI) * tim.tREFI;
    }
    while (nextTrrTick <= now) {
        for (const TrrTarget &t : trr.onRefreshTick(nextTrrTick)) {
            RHO_TRACE(tracer, nextTrrTick, EventKind::TrrTargetedRefresh,
                      0, t.bank, t.row, 0);
            refreshNeighbours(t.bank, t.row, nextTrrTick,
                              ResetSource::TrrNeighbor);
        }
        // Each tick is one REF command: per JEDEC, REF subtracts from
        // every bank's rolling accumulated ACT count. (Ticks skipped
        // by the idle fast-forward above carry no decrement — the
        // device was quiescent, so its RAA counters were near zero.)
        rfm.onRef();
        nextTrrTick += tim.tREFI;
    }
}

/**
 * The activated row's PRAC counter. Resolves the row the way the
 * self-ACT block of doAct will (Flat: the open-neighbourhood cache,
 * else find-or-create; Reference: find-or-create) without applying
 * the lazy auto-refresh, and with the same `now`, so a row created
 * here starts in exactly the state doAct would have created it in.
 */
inline std::uint32_t &
Dimm::pracCounter(std::uint32_t bank, std::uint64_t row, Ns now)
{
    if (store == RowStoreKind::Flat) {
        BankRows &b = bankRows[bank];
        const BankRows::NbEntry &ne = b.nbEntry(row);
        return (ne.tag == row ? ne.self : flatLookup(b, row, now))->pracCount;
    }
    auto [it, inserted] = rows.try_emplace(rowKey(bank, row));
    if (inserted)
        it->second.lastRefresh = autoRefreshBefore(row, now);
    return it->second.pracCount;
}

/** Call visit(row, pracCount &) for every row of `bank` with state. */
template <typename Visit>
void
Dimm::forEachPracCounter(std::uint32_t bank, Visit visit)
{
    if (store == RowStoreKind::Flat) {
        BankRows &b = bankRows[bank];
        for (const BankRows::Slot &slot : b.index) {
            if (slot.row != BankRows::emptyKey)
                visit(slot.row, slot.rs->pracCount);
        }
        return;
    }
    for (auto &[key, rs] : rows) {
        if ((key >> rowKeyBits) == bank)
            visit(key & ((std::uint64_t{1} << rowKeyBits) - 1),
                  rs.pracCount);
    }
}

std::uint32_t
Dimm::pracCount(std::uint32_t bank, std::uint64_t row) const
{
    if (store == RowStoreKind::Flat) {
        const RowState *rs = flatFind(bankRows[bank], row);
        return rs ? rs->pracCount : 0;
    }
    auto it = rows.find(rowKey(bank, row));
    return it == rows.end() ? 0 : it->second.pracCount;
}

void
Dimm::doAct(std::uint32_t bank, std::uint64_t row, Ns now)
{
    ++acts;
    RHO_TRACE(tracer, now, EventKind::DramAct, 0, bank, row, 0);
    processTrrTicks(now);

    // A passive sampler (TRR and pTRR both off) draws no randomness
    // and mutates nothing, so skipping the call is observably
    // identical — it only removes call overhead from the hot loop.
    if (trr.active()) {
        if (auto ptrr = trr.observeAct(bank, row, now)) {
            RHO_TRACE(tracer, now, EventKind::PtrrRefresh, 0, ptrr->bank,
                      ptrr->row, 0);
            refreshNeighbours(ptrr->bank, ptrr->row, now,
                              ResetSource::TrrNeighbor);
        }
    }

    // DDR5 refresh management: deterministic per-bank RAA counters
    // trigger RFM commands that protect recently activated rows.
    // (A disabled engine observes nothing, so the call is skipped.)
    if (rfm.enabled()) {
        RfmAction a = rfm.observeAct(bank, row);
        if (a.fired) {
            pendingStall += tim.tRFM;
            rfmStalls += tim.tRFM;
            RHO_TRACE(tracer, now, EventKind::MitigationStall, 0, bank, 0,
                      traceBits(tim.tRFM));
            for (const TrrTarget &t : a.protect) {
                RHO_TRACE(tracer, now, EventKind::RfmRefresh, 0, t.bank,
                          t.row, 0);
                refreshNeighbours(t.bank, t.row, now,
                                  ResetSource::RfmNeighbor);
            }
        }
    }

    // PRAC: exact per-row counters inside the array; a row crossing
    // the threshold pulls ALERT_n and the device services the hottest
    // rows during the Alert Back-Off window.
    if (prac.enabled()) {
        std::uint32_t &counter = pracCounter(bank, row, now);
        if (prac.countAct(counter)) {
            PracAlertAction alert = prac.alertBackOff(
                bank, row, counter,
                [&](auto visit) { forEachPracCounter(bank, visit); });
            RHO_TRACE(tracer, now, EventKind::PracAlert, 0, bank, row,
                      alert.peak);
            pendingStall += tim.tABO;
            aboStalls += tim.tABO;
            RHO_TRACE(tracer, now, EventKind::MitigationStall, 1, bank, 0,
                      traceBits(tim.tABO));
            for (const TrrTarget &t : alert.protect) {
                RHO_TRACE(tracer, now, EventKind::AboRefresh, 0, t.bank,
                          t.row, 0);
                refreshNeighbours(t.bank, t.row, now,
                                  ResetSource::PracNeighbor);
            }
        }
    }

    // Injected spurious TRR: the controller refreshes this row's
    // neighbourhood even though no sampler selected it.
    if (injector && injector->spuriousRefresh()) {
        RHO_TRACE(tracer, now, EventKind::SpuriousRefresh, 0, bank, row, 0);
        refreshNeighbours(bank, row, now, ResetSource::Spurious);
    }

    static constexpr int ds[4] = {-2, -1, 1, 2};

    if (store == RowStoreKind::Flat) {
        BankRows &b = bankRows[bank];
        BankRows::NbEntry &ne = b.nbEntry(row);
        if (ne.tag != row) {
            ne.tag = row;
            ne.self = flatLookup(b, row, now);
            for (unsigned i = 0; i < 4; ++i) {
                std::int64_t v = static_cast<std::int64_t>(row) + ds[i];
                ne.nb[i] =
                    (v >= 0
                     && v < static_cast<std::int64_t>(prof.geom.rowsPerBank))
                        ? flatLookup(b, static_cast<std::uint64_t>(v), now)
                        : nullptr;
            }
        }
        // Activating a row restores the charge of its own cells. The
        // auto-refresh memo (arLast/arBoundary) is re-checked inline
        // so the common no-op case costs two compares and no call;
        // applyAutoRefresh performs the identical check again, so the
        // split cannot change behaviour.
        RowState &self = *ne.self;
        if (!(now < self.arBoundary && self.lastRefresh >= self.arLast))
            applyAutoRefresh(self, bank, row, now);
        resetDisturb(self, bank, row, now, ResetSource::SelfAct);
        self.lastRefresh = now;
        for (unsigned i = 0; i < 4; ++i) {
            if (!ne.nb[i])
                continue;
            RowState &nb = *ne.nb[i];
            std::uint64_t victim = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(row) + ds[i]);
            double w = (ds[i] == 1 || ds[i] == -1) ? 1.0 : halfDoubleWeight;
            if (!(now < nb.arBoundary && nb.lastRefresh >= nb.arLast))
                applyAutoRefresh(nb, bank, victim, now);
            // Inlined disturbCells fast path (same checks, same order):
            // accumulate, trace, and only when an unlatched cell could
            // actually have crossed its threshold, materialize the cell
            // list and scan.
            nb.disturb += w;
            RHO_TRACE(tracer, now, EventKind::Disturb, 0, bank, victim,
                      traceBits(w));
            if (nb.disturb >= nb.minUnflipped) {
                if (!nb.cellsInit)
                    initCells(nb, bank, victim);
                if (nb.disturb >= nb.minUnflipped)
                    scanCells(nb, bank, victim, now);
            }
        }
        return;
    }

    // Reference path: every row resolved through the hash map.
    RowState &self = rowState(bank, row, now);
    resetDisturb(self, bank, row, now, ResetSource::SelfAct);
    self.lastRefresh = now;

    for (int d = -2; d <= 2; ++d) {
        if (d == 0)
            continue;
        std::int64_t v = static_cast<std::int64_t>(row) + d;
        if (v < 0 || v >= static_cast<std::int64_t>(prof.geom.rowsPerBank))
            continue;
        double w = (d == 1 || d == -1) ? 1.0 : halfDoubleWeight;
        disturbNeighbour(bank, static_cast<std::uint64_t>(v), w, now);
    }
}

DramAccessResult
Dimm::access(const DramAddr &da, Ns now)
{
    if (da.bank >= bankOpenRow.size())
        panic("Dimm::access: bank %u out of range", da.bank);
    if (da.row >= prof.geom.rowsPerBank)
        panic("Dimm::access: row %llu out of range",
              static_cast<unsigned long long>(da.row));

    Ns start = std::max(now, bankReadyAt[da.bank]);

    // REF blocking (DramTiming::refBlocking platforms): a periodic
    // all-bank REF fires every tREFI. It closes the open row, and an
    // access landing inside the tRFC service window stalls to its end
    // — the latency spike hammer/ref_sync locks onto. Accounted lazily
    // per bank: only the most recent boundary matters, because the
    // row-closure and the stall are both idempotent per window.
    if (tim.refBlocking) {
        Ns boundary = std::floor(start / tim.tREFI) * tim.tREFI;
        if (boundary > 0.0) {
            if (boundary > bankRefSeen[da.bank]) {
                bankRefSeen[da.bank] = boundary;
                if (bankOpenRow[da.bank] >= 0) {
                    RHO_TRACE(tracer, boundary, EventKind::DramPre, 1,
                              da.bank,
                              static_cast<std::uint64_t>(
                                  bankOpenRow[da.bank]),
                              0);
                    bankOpenRow[da.bank] = -1;
                }
            }
            if (start - boundary < tim.tRFC)
                start = boundary + tim.tRFC;
        }
    }

    DramAccessResult res{};

    if (bankOpenRow[da.bank] == static_cast<std::int64_t>(da.row)) {
        // Row-buffer hit: CAS only.
        Ns done = start + tim.tCL;
        bankReadyAt[da.bank] = start + 4 * tim.tCK;
        RHO_TRACE(tracer, start, EventKind::DramRowHit, 0, da.bank,
                  da.row, 0);
        res = {done - now + tim.busOverhead, true, false};
    } else {
        bool conflict = bankOpenRow[da.bank] >= 0;
        // ACT-to-ACT spacing within the bank (tRC) and, on conflict,
        // the precharge of the currently open row.
        Ns act_at = std::max(start, bankLastActAt[da.bank] + tim.tRC);
        Ns pre = conflict ? tim.tRP : 0.0;
        Ns done = act_at + pre + tim.tRCD + tim.tCL;
        if (conflict)
            RHO_TRACE(tracer, act_at, EventKind::DramPre, 0, da.bank,
                      static_cast<std::uint64_t>(bankOpenRow[da.bank]), 0);
        bankLastActAt[da.bank] = act_at + pre;
        bankReadyAt[da.bank] = act_at + pre + tim.tRCD;
        bankOpenRow[da.bank] = static_cast<std::int64_t>(da.row);
        doAct(da.bank, da.row, act_at + pre);
        // Mitigation commands raised by this ACT (RFM, Alert Back-Off)
        // block the bank: fold the pending stall into the access
        // latency and push out the bank's ready time.
        if (pendingStall > 0.0) {
            done += pendingStall;
            bankReadyAt[da.bank] += pendingStall;
            bankLastActAt[da.bank] += pendingStall;
            pendingStall = 0.0;
        }
        res = {done - now + tim.busOverhead, false, true};
    }
    return res;
}

void
Dimm::writeBytes(const DramAddr &da, const std::uint8_t *data,
                 std::size_t len, Ns now)
{
    if (da.col + len > prof.geom.rowBytes)
        panic("Dimm::writeBytes: write crosses row boundary");
    RowState &rs = rowState(da.bank, da.row, now);
    auto &bytes = materializeData(rs);
    std::copy(data, data + len, bytes.begin() + da.col);
    // The device recomputes check bits over the written data: the
    // shadow tracks exactly what was last written.
    std::vector<std::uint8_t> &shadow = rs.cold->shadow;
    if (!shadow.empty())
        std::copy(data, data + len, shadow.begin() + da.col);
    // The write activates and restores the row.
    resetDisturb(rs, da.bank, da.row, now, ResetSource::DataWrite);
    rs.lastRefresh = now;
    // Re-arm exactly the latches whose stored byte was rewritten: a
    // partial write leaves cells outside the range latched (their data
    // was not touched, so there is no fresh charge state to lose).
    if (hasCells(rs)) {
        RowCells &c = *rs.cold;
        bool rearmed = false;
        for (std::size_t i = 0; i < c.cells.size(); ++i) {
            std::uint32_t byte = c.cells[i].bitOffset >> 3;
            if (c.flipped[i] && byte >= da.col && byte < da.col + len) {
                c.flipped[i] = false;
                rearmed = true;
            }
        }
        if (rearmed)
            recomputeMinThreshold(rs);
    }
}

std::uint8_t
Dimm::readByte(const DramAddr &da, Ns now)
{
    RowState &rs = rowState(da.bank, da.row, now);
    bool stored = rs.cold && !rs.cold->data.empty();
    std::uint8_t v = stored ? rs.cold->data[da.col] : rs.fill;
    // On-die ECC runs on the read path, per codeword. An event is
    // emitted only when the decoder's action lands in the byte being
    // returned — i.e. when the controller-visible value differs from
    // the raw cells.
    if (ecc.enabled && stored) {
        std::uint32_t base = da.col - (da.col % ecc.codewordBytes);
        EccDecision d = decodeCodeword(rs, base);
        if (d.action == EccAction::Corrected
            || d.action == EccAction::Miscorrected) {
            std::uint32_t byte = base + (d.targetBit >> 3);
            if (byte == da.col) {
                v ^= static_cast<std::uint8_t>(1u << (d.targetBit & 7));
                RHO_TRACE(tracer, now,
                          d.action == EccAction::Corrected
                              ? EventKind::EccCorrected
                              : EventKind::EccMiscorrect,
                          0, da.bank, da.row,
                          static_cast<std::uint64_t>(base) * 8
                              + d.targetBit);
            }
        }
    }
    // Reading activates and restores the row — but does not re-arm
    // flip latches: the sense amplifiers write back the (flipped)
    // value that was read, not fresh data.
    resetDisturb(rs, da.bank, da.row, now, ResetSource::DataRead);
    rs.lastRefresh = now;
    return v;
}

void
Dimm::fillRow(std::uint32_t bank, std::uint64_t row, std::uint8_t pattern,
              Ns now)
{
    RowState &rs = rowState(bank, row, now);
    rs.fill = pattern;
    if (rs.cold) {
        std::fill(rs.cold->data.begin(), rs.cold->data.end(), pattern);
        std::fill(rs.cold->shadow.begin(), rs.cold->shadow.end(), pattern);
    }
    resetDisturb(rs, bank, row, now, ResetSource::DataWrite);
    rs.lastRefresh = now;
    // The whole row's data is rewritten: every latch re-arms.
    if (rs.cellsInit) {
        if (rs.cold)
            std::fill(rs.cold->flipped.begin(), rs.cold->flipped.end(),
                      false);
        recomputeMinThreshold(rs);
    }
}

std::vector<FlipRecord>
Dimm::diffRow(std::uint32_t bank, std::uint64_t row, std::uint8_t expected,
              Ns now)
{
    std::vector<FlipRecord> out;
    RowState &rs = rowState(bank, row, now);
    if (!rs.cold || rs.cold->data.empty())
        return out;
    const auto &bytes = rs.cold->data;
    if (!ecc.enabled) {
        for (std::uint32_t b = 0; b < bytes.size(); ++b) {
            std::uint8_t diff = bytes[b] ^ expected;
            while (diff) {
                unsigned bit_idx = std::countr_zero(diff);
                diff &= diff - 1;
                bool to_one = bytes[b] & (1u << bit_idx);
                out.push_back({bank, row, (b << 3) + bit_idx, to_one, now});
            }
        }
        return out;
    }
    // ECC view: decode each codeword, apply the decoder's (mis)action
    // to a working copy, then diff the corrected bytes. Single-bit
    // flips vanish here (and are traced as corrections); multi-bit
    // patterns either alias past the decoder or get a third bit
    // corrupted.
    std::vector<std::uint8_t> cw(ecc.codewordBytes);
    for (std::uint32_t base = 0; base < bytes.size();
         base += ecc.codewordBytes) {
        std::copy(bytes.begin() + base,
                  bytes.begin() + base + ecc.codewordBytes, cw.begin());
        EccDecision d = decodeCodeword(rs, base);
        if (d.action == EccAction::Corrected
            || d.action == EccAction::Miscorrected) {
            cw[d.targetBit >> 3] ^=
                static_cast<std::uint8_t>(1u << (d.targetBit & 7));
            RHO_TRACE(tracer, now,
                      d.action == EccAction::Corrected
                          ? EventKind::EccCorrected
                          : EventKind::EccMiscorrect,
                      0, bank, row,
                      static_cast<std::uint64_t>(base) * 8 + d.targetBit);
        }
        for (std::uint32_t b = 0; b < ecc.codewordBytes; ++b) {
            std::uint8_t diff = cw[b] ^ expected;
            while (diff) {
                unsigned bit_idx = std::countr_zero(diff);
                diff &= diff - 1;
                bool to_one = cw[b] & (1u << bit_idx);
                out.push_back(
                    {bank, row, ((base + b) << 3) + bit_idx, to_one, now});
            }
        }
    }
    return out;
}

} // namespace rho
