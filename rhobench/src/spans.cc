#include "spans.hh"

#include <fstream>

namespace rhobench
{

TickClock
TickClock::calibrate()
{
    using Clock = std::chrono::steady_clock;
    TickClock c;
    auto w0 = Clock::now();
    std::uint64_t t0 = ticks();
    while (Clock::now() - w0 < std::chrono::milliseconds(20)) {
    }
    std::uint64_t t1 = ticks();
    double wall_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - w0).count();
    c.nsPerTick = t1 > t0 ? wall_ns / static_cast<double>(t1 - t0) : 1.0;

    constexpr unsigned reads = 200000;
    volatile std::uint64_t sink = 0;
    std::uint64_t r0 = ticks();
    for (unsigned i = 0; i < reads; ++i)
        sink = ticks();
    std::uint64_t r1 = ticks();
    (void)sink;
    c.readCostNs = c.ns(r1 - r0) / reads;
    return c;
}

std::int32_t
SpanRecorder::begin(const char *name)
{
    store.push_back({name, ticks(), 0, open, 1});
    open = static_cast<std::int32_t>(store.size() - 1);
    return open;
}

void
SpanRecorder::end(std::int32_t id)
{
    store[id].end = ticks();
    open = store[id].parent;
}

void
SpanRecorder::aggregate(const char *name, std::uint64_t total_ticks,
                        std::uint64_t calls)
{
    std::uint64_t start = open >= 0 ? store[open].start : ticks();
    store.push_back({name, start, start + total_ticks, open, calls});
}

std::map<std::string, double>
SpanRecorder::totalNs() const
{
    std::map<std::string, double> out;
    for (const Span &s : store)
        out[s.name] += clk.ns(s.end - s.start);
    return out;
}

double
SpanRecorder::meanNs(const std::string &name) const
{
    double ns = 0.0;
    std::uint64_t n = 0;
    for (const Span &s : store) {
        if (name == s.name) {
            ns += clk.ns(s.end - s.start);
            n += s.calls;
        }
    }
    return n ? ns / static_cast<double>(n) : 0.0;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    std::uint64_t base = store.empty() ? 0 : store.front().start;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < store.size(); ++i) {
        const Span &s = store[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << clk.ns(s.start - base) / 1e3
            << ",\"dur\":" << clk.ns(s.end - s.start) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"calls\":" << s.calls << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace rhobench
