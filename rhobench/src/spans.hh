/**
 * @file
 * Host-time spans for the benchmark's traced pass.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public API (the simulator itself carries no host-time
 * instrumentation). Each span has a name, start and end ticks, and the
 * index of the span that was open when it began. They are kept in
 * memory and written once, at exit, as Chrome trace JSON.
 *
 * Timestamps come from the TSC on x86-64 (about half the cost of a
 * steady_clock read) and are converted to ns with a factor calibrated
 * against steady_clock when the recorder is built.
 */

#ifndef RHOBENCH_SPANS_HH
#define RHOBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace rhobench
{

/** Raw monotonic tick count. */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/** Tick-to-ns conversion and the cost of one ticks() read. */
struct TickClock
{
    double nsPerTick = 1.0;
    double readCostNs = 0.0;

    /** Calibrate against steady_clock over about 20 ms. */
    static TickClock calibrate();

    double ns(std::uint64_t t) const { return t * nsPerTick; }
};

/** One closed span. `calls` > 1 marks an aggregate of many calls. */
struct Span
{
    const char *name;
    std::uint64_t start;
    std::uint64_t end;
    std::int32_t parent; //!< index of the enclosing span, -1 for roots
    std::uint64_t calls;
};

/** In-memory span store for one traced pass (single-threaded). */
class SpanRecorder
{
  public:
    explicit SpanRecorder(TickClock clock) : clk(clock) {}

    /** Open a span under the currently open one; returns its index. */
    std::int32_t begin(const char *name);

    /** Close span `id` (must be the innermost open span). */
    void end(std::int32_t id);

    /**
     * Record, under the currently open span, one child that stands for
     * `calls` calls totalling `total_ticks` (the memory-backend
     * decorator's per-call time, too fine-grained to keep one span per
     * call).
     */
    void aggregate(const char *name, std::uint64_t total_ticks,
                   std::uint64_t calls);

    /** Summed duration per span name, ns. */
    std::map<std::string, double> totalNs() const;

    /** Mean duration per call of spans named `name`, ns (0 if none). */
    double meanNs(const std::string &name) const;

    const TickClock &clock() const { return clk; }
    const std::vector<Span> &spans() const { return store; }

    /** Write all spans as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    TickClock clk;
    std::vector<Span> store;
    std::int32_t open = -1;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name)
        : r(rec), id(rec.begin(name))
    {
    }
    ~ScopedSpan() { r.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &r;
    std::int32_t id;
};

} // namespace rhobench

#endif // RHOBENCH_SPANS_HH
