/**
 * @file
 * Per-line cache / fill-buffer state for the hammer-loop working set.
 *
 * The timing model only needs the lines a kernel touches (interned to
 * dense ids), so state is a flat array. Each line tracks the last fill
 * completion and the last flush completion; the x86 semantics the
 * paper exploits (Fig. 7) fall out of the two timestamps:
 *
 *   - A line is "present or in flight" at time t if its last fill
 *     began/completed and no flush has *completed* by t. An access in
 *     the window between a CLFLUSHOPT issuing and its effects
 *     completing still hits the (stale) line, so a prefetch there is
 *     ignored by the CPU and no DRAM activation happens.
 */

#ifndef RHO_CPU_CACHE_MODEL_HH
#define RHO_CPU_CACHE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rho
{

/** Flat cache-line state for the kernel working set. */
class CacheModel
{
  public:
    explicit CacheModel(std::uint32_t num_lines)
        : lines(num_lines)
    {
    }

    /** All lines absent (freshly flushed), clean timestamps. */
    void
    reset()
    {
        for (auto &l : lines)
            l = LineState{};
    }

    /**
     * Is an access at time t served without a DRAM activation?
     * True when the line was filled and no flush has completed yet
     * (including the flush-pending window), or a fill is in flight
     * (MSHR merge).
     */
    bool
    presentOrInFlight(std::uint32_t line, Ns t) const
    {
        const LineState &l = lines[line];
        if (!l.filled)
            return false;
        return l.flushDone < 0.0 || t < l.flushDone;
    }

    /** Completion time of the in-flight or finished fill. */
    Ns fillDone(std::uint32_t line) const { return lines[line].fillDone; }

    /** Record a fill that completes at fill_done. */
    void
    recordFill(std::uint32_t line, Ns fill_done)
    {
        LineState &l = lines[line];
        l.filled = true;
        l.fillDone = fill_done;
        l.flushDone = -1.0;
    }

    /**
     * Record a CLFLUSHOPT issued at time t with propagation latency
     * flush_lat. If a fill is still in flight the flush takes effect
     * after it lands. No-op if the line is already absent.
     *
     * @return the flush completion time, or -1 if it was a no-op.
     */
    Ns
    recordFlush(std::uint32_t line, Ns t, Ns flush_lat)
    {
        LineState &l = lines[line];
        if (!l.filled)
            return -1.0;
        if (l.flushDone >= 0.0 && l.flushDone <= t) {
            // Previous flush already completed; line is gone.
            l.filled = false;
            l.flushDone = -1.0;
            return -1.0;
        }
        Ns start = std::max(t, l.fillDone);
        Ns done = start + flush_lat;
        if (l.flushDone < 0.0 || done < l.flushDone)
            l.flushDone = done;
        return l.flushDone;
    }

  private:
    struct LineState
    {
        bool filled = false;
        Ns fillDone = 0.0;
        Ns flushDone = -1.0; //!< <0: no flush pending
    };

    std::vector<LineState> lines;
};

} // namespace rho

#endif // RHO_CPU_CACHE_MODEL_HH
