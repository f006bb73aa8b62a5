/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench prints the paper-style rows/series for its table or
 * figure. Experiment sizes are scaled-down versions of the paper's
 * multi-hour campaigns; set RHO_BENCH_SCALE (default 1.0, e.g. 0.25
 * for a quick pass or 4 for a longer one) to rescale budgets.
 */

#ifndef RHO_BENCH_BENCH_UTIL_HH
#define RHO_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"

namespace rho::bench
{

/** Print a bad-input message to stderr and exit with status 2. */
[[noreturn]] inline void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    std::exit(2);
}

/**
 * Parse `v`, the value of `what` (a flag or argument name), as an
 * unsigned integer in [0, max], in `base` as for strtoull (0 also
 * takes a 0x prefix). A sign, whitespace, trailing text or an
 * out-of-range value exits via usageError().
 */
inline std::uint64_t
parseUnsigned(const std::string &what, const char *v,
              std::uint64_t max = UINT64_MAX, int base = 10)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(v, &end, base);
    if (std::isalnum(static_cast<unsigned char>(*v)) && *end == '\0'
        && errno != ERANGE && n <= max)
        return n;
    std::string want = base == 16 ? "a hexadecimal integer" : "an integer";
    if (max != UINT64_MAX)
        want += " in [0, " + std::to_string(max) + "]";
    usageError(what + " " + v + ": expected " + want);
}

/**
 * The value of `--flag N` in argv, read by parseUnsigned(), or
 * `fallback` when the flag is absent. `alias` (e.g. "-j") is accepted
 * in its place. A flag without a value exits via usageError().
 */
inline std::uint64_t
parseFlag(int argc, char **argv, const char *flag, std::uint64_t fallback,
          std::uint64_t max = UINT64_MAX, const char *alias = nullptr)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag)
            && (!alias || std::strcmp(argv[i], alias)))
            continue;
        if (i + 1 == argc)
            usageError(std::string(argv[i]) + " needs a value");
        return parseUnsigned(argv[i], argv[i + 1], max);
    }
    return fallback;
}

/** Most worker threads a `--jobs` value may ask for. */
constexpr unsigned maxJobs = 1024;

/**
 * Parse `--jobs N` (or `-j N`) from argv; any other arguments are
 * left for the bench to interpret. Returns 0 (= hardware_concurrency)
 * when the flag is absent. N must be an integer in [0, maxJobs];
 * anything else, or a missing N, exits via usageError().
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    return static_cast<unsigned>(
        parseFlag(argc, argv, "--jobs", 0, maxJobs, "-j"));
}

/** Announce the fan-out width a campaign bench will use. */
inline void
announceJobs(unsigned jobs)
{
    unsigned resolved = jobs == 0 ? ThreadPool::defaultJobs() : jobs;
    std::printf("campaign engine: %u worker thread%s%s\n\n", resolved,
                resolved == 1 ? "" : "s",
                jobs == 0 ? " (auto; override with --jobs N)" : "");
}

/**
 * Global budget multiplier from RHO_BENCH_SCALE (unset or empty: 1.0).
 * Anything but a finite number > 0 exits via usageError().
 */
inline double
scale()
{
    static const double s = [] {
        const char *env = std::getenv("RHO_BENCH_SCALE");
        if (env == nullptr || *env == '\0')
            return 1.0;
        char *end = nullptr;
        double v = std::strtod(env, &end);
        if (end == env || *end != '\0' || !std::isfinite(v) || v <= 0.0)
            usageError(std::string("RHO_BENCH_SCALE=") + env
                       + ": expected a finite number > 0");
        return v;
    }();
    return s;
}

/** Scaled integer budget. */
inline std::uint64_t
scaled(std::uint64_t base)
{
    auto v = static_cast<std::uint64_t>(base * scale());
    return v > 0 ? v : 1;
}

/** Bench banner with the paper artifact being reproduced. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("=== %s: %s ===\n", id.c_str(), what.c_str());
    std::printf("(scaled reproduction; RHO_BENCH_SCALE=%.2f)\n\n",
                scale());
    setVerbose(false);
}

} // namespace rho::bench

#endif // RHO_BENCH_BENCH_UTIL_HH
