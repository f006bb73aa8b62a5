/**
 * @file
 * rhobench: run one benchmark workload and print its metrics.
 *
 * Output on stdout: one "metric" line per metric, a "manifest" line
 * with what ran, and last the result object
 * {"correct", "attempted", "failed", "metrics"}. Exit status 0 when a
 * result was printed, 2 for rejected arguments, 1 for internal errors.
 */

#include <cstdio>
#include <exception>

#include "cli.hh"
#include "runner.hh"

using namespace rhobench;

int
main(int argc, char **argv)
{
    ParseResult p = parseArgs({argv + 1, argv + argc});
    if (p.help) {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }
    if (!p.error.empty()) {
        std::fprintf(stderr, "rhobench: %s\n%s", p.error.c_str(),
                     usage().c_str());
        return 2;
    }
    try {
        Report r = runBenchmark(p.opts);
        for (const MetricValue &m : r.metrics)
            std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("manifest %s\n", manifestJson(r).c_str());
        std::printf("%s\n", resultJson(r).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rhobench: %s\n", e.what());
        return 1;
    }
}
