/**
 * @file
 * Flight-recorder tracer: a per-owner ring buffer of TraceEvents.
 *
 * Design constraints, in priority order:
 *
 *  1. Determinism. A Tracer belongs to exactly one logical track — a
 *     campaign task, or the single system of a serial experiment — so
 *     event order within a Tracer is the simulation's own causal
 *     order. Parallel campaigns give each task its own Tracer and
 *     merge them in task-index order, which makes the merged stream
 *     independent of `--jobs` and wall-clock scheduling. There is no
 *     global thread-local registry on purpose: thread identity is not
 *     deterministic, task identity is.
 *
 *  2. Overhead when disabled. Emission goes through the RHO_TRACE
 *     macro whose guard is a single pointer test plus a `bool` load;
 *     argument expressions are not evaluated when tracing is off.
 *     Building with -DRHO_TRACE_DISABLED compiles emission out
 *     entirely. rhobench's `trace.overhead_frac` (`--trace 1`)
 *     measures what an attached tracer costs on a sweep location.
 *
 *  3. Bounded memory. The buffer is a ring with drop-oldest
 *     semantics: a long run keeps the most recent `capacity` events
 *     and counts what it dropped. Golden tests size the workload to
 *     fit so dropping never perturbs them.
 */

#ifndef RHO_TRACE_TRACER_HH
#define RHO_TRACE_TRACER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/event.hh"

namespace rho
{

/** Knobs for one Tracer; carried by SystemSpec and CLI flags. */
struct TraceConfig
{
    bool enabled = false;
    std::uint32_t categories = CatDefault;
    std::size_t capacity = std::size_t{1} << 20; //!< events (32 MiB)
};

/**
 * Ring buffer of typed events for one logical track. Not thread-safe;
 * each concurrent owner gets its own instance (see file comment).
 */
class Tracer
{
  public:
    explicit Tracer(TraceConfig cfg = {});

    /** True when emission is on and `cat` passes the category mask. */
    bool
    wants(TraceCategory cat) const
    {
        return enabled_ && (cfg_.categories & cat) != 0;
    }

    bool enabled() const { return enabled_; }

    /** Logical track id stamped on every subsequent event. */
    void setTid(std::uint16_t tid) { tid_ = tid; }
    std::uint16_t tid() const { return tid_; }

    /** Append one event (caller already checked wants()). */
    void record(Ns when, EventKind kind, std::uint8_t flags,
                std::uint32_t a, std::uint64_t b, std::uint64_t c);

    /** Events in causal order, oldest surviving first. */
    std::vector<TraceEvent> events() const;

    /** Events discarded by the drop-oldest policy. */
    std::uint64_t dropped() const { return dropped_; }

    std::size_t size() const { return count_; }
    const TraceConfig &config() const { return cfg_; }

    /** Forget everything recorded so far (capacity retained). */
    void clear();

  private:
    TraceConfig cfg_;
    bool enabled_ = false;
    std::uint16_t tid_ = 0;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  //!< next write slot
    std::size_t count_ = 0; //!< live events (≤ capacity)
    std::uint64_t dropped_ = 0;
};

/**
 * Append `src`'s events to `out`, restamping their tid. Campaign
 * drivers call this per task, in task-index order, so the merged
 * stream is deterministic for any `--jobs`.
 */
void appendRestamped(std::vector<TraceEvent> &out, const Tracer &src,
                     std::uint16_t tid);

} // namespace rho

/**
 * Hot-path emission guard. `tr` is a `Tracer *` (may be null); the
 * payload expressions are only evaluated when the tracer is live and
 * the kind's category is selected.
 */
#ifdef RHO_TRACE_DISABLED
#define RHO_TRACE(tr, when, kind, flags, a, b, c) ((void)0)
#else
#define RHO_TRACE(tr, when, kind, flags, a, b, c)                         \
    do {                                                                  \
        ::rho::Tracer *rho_tr_ = (tr);                                    \
        if (rho_tr_ && rho_tr_->wants(::rho::categoryOf(kind)))           \
            rho_tr_->record((when), (kind), (flags), (a), (b), (c));      \
    } while (0)
#endif

#endif // RHO_TRACE_TRACER_HH
