/**
 * @file
 * The benchmark's own tests, at tiny size: strict CLI, every metric
 * emitted with its unit, traced and untraced digests equal, and a
 * wrong expected digest reported as failed ops.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "cli.hh"
#include "runner.hh"

using namespace rhobench;

namespace
{

Options
tiny(const std::string &workload, bool trace)
{
    Options o;
    o.workload = workload;
    o.seed = 3;
    o.seconds = 1;
    o.trace = trace;
    o.size = Size::Tiny;
    return o;
}

void
expectMetrics(const Report &r, const std::vector<MetricSpec> &want)
{
    ASSERT_EQ(r.metrics.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(r.metrics[i].name, want[i].name);
        EXPECT_EQ(r.metrics[i].unit, want[i].unit) << want[i].name;
        std::string json = resultJson(r);
        EXPECT_NE(json.find(std::string("\"") + want[i].name
                            + "\": {\"value\": "),
                  std::string::npos)
            << want[i].name;
        EXPECT_NE(json.find(std::string("\"unit\": \"") + want[i].unit
                            + "\""),
                  std::string::npos)
            << want[i].name;
    }
}

std::vector<std::string>
args(std::initializer_list<const char *> a)
{
    return {a.begin(), a.end()};
}

} // namespace

TEST(RhobenchCli, AcceptsAFullInvocation)
{
    ParseResult p = parseArgs(args({"--workload", "revng", "--seed", "17",
                                    "--seconds", "10", "--trace", "1"}));
    ASSERT_EQ(p.error, "");
    EXPECT_EQ(p.opts.workload, "revng");
    EXPECT_EQ(p.opts.seed, 17u);
    EXPECT_EQ(p.opts.seconds, 10u);
    EXPECT_TRUE(p.opts.trace);
}

TEST(RhobenchCli, RejectsMalformedInput)
{
    const std::vector<std::vector<std::string>> bad = {
        args({"--workload", "sweep_ddr4"}),                     // no seed
        args({"--seed", "1"}),                                  // no workload
        args({"--workload", "nope", "--seed", "1"}),            // unknown
        args({"--workload", "revng", "--seed", "abc"}),         // not a number
        args({"--workload", "revng", "--seed", "-1"}),          // signed
        args({"--workload", "revng", "--seed", "1.5"}),         // not integral
        args({"--workload", "revng", "--seed",
              "18446744073709551616"}),                         // overflow
        args({"--workload", "revng", "--seed", "1", "--seconds", "0"}),
        args({"--workload", "revng", "--seed", "1", "--seconds", "121"}),
        args({"--workload", "revng", "--seed", "1", "--trace", "2"}),
        args({"--workload", "revng", "--seed", "1", "--seconds", "ten"}),
        args({"--workload", "revng", "--seed", "1", "--commit", "a b"}),
        args({"--workload", "revng", "--seed", "1", "--size", "tiny"}),
        args({"--workload", "revng", "--seed", "1", "--spans",
              "../out.json"}),
        args({"--workload", "revng", "--seed", "1", "--seed", "2"}),
        args({"--workload", "revng", "--seed", "1", "--bogus", "1"}),
        args({"--workload", "revng", "--seed"}),                // no value
        args({"--workload=revng", "--seed", "1"}),
    };
    for (const auto &a : bad)
        EXPECT_NE(parseArgs(a).error, "") << a.front() << " ...";
}

TEST(RhobenchJson, ListsEveryWorkloadAndMetricWithItsUnit)
{
    std::ifstream in(RHOBENCH_JSON);
    ASSERT_TRUE(in) << RHOBENCH_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    for (const std::string &w : workloadNames())
        EXPECT_NE(json.find("\"name\": \"" + w + "\""), std::string::npos)
            << w;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *list) {
            std::size_t at =
                json.find(std::string("\"name\": \"") + m.name + "\"");
            ASSERT_NE(at, std::string::npos) << m.name;
            std::size_t unit = json.find("\"unit\": \"", at);
            ASSERT_NE(unit, std::string::npos) << m.name;
            EXPECT_EQ(json.compare(unit + 9, std::strlen(m.unit) + 1,
                                   std::string(m.unit) + "\""),
                      0)
                << m.name;
        }
    }
}

class RhobenchWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RhobenchWorkload, EmitsEveryEndToEndMetricAndPasses)
{
    Report r = runBenchmark(tiny(GetParam(), false));
    expectMetrics(r, endToEndMetrics());
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GE(r.attempted, 1u);
    for (const MetricValue &m : r.metrics)
        EXPECT_GT(m.value, 0.0) << m.name;
    std::set<std::string> keys;
    for (const auto &kv : r.manifest)
        keys.insert(kv.first);
    for (const char *k : {"workload", "seed", "arch", "dimm", "mitigations",
                          "ecc", "cpu_engine", "row_store", "jobs", "nproc",
                          "build_type", "compiler", "commit"})
        EXPECT_TRUE(keys.count(k)) << k;
}

TEST_P(RhobenchWorkload, EmitsEveryPerLayerMetric)
{
    Report r = runBenchmark(tiny(GetParam(), true));
    expectMetrics(r, perLayerMetrics());
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0u);
}

TEST_P(RhobenchWorkload, TracedDigestsEqualUntraced)
{
    std::unique_ptr<Workload> wl = makeWorkload(tiny(GetParam(), true));
    RepResult rep = wl->runRep();
    SpanRecorder spans(TickClock::calibrate());
    TracedResult tr = wl->traced(rep, spans);
    ASSERT_FALSE(tr.checks.empty());
    for (const TracedResult::Check &c : tr.checks)
        EXPECT_EQ(c.traced, c.untraced);
    EXPECT_FALSE(spans.spans().empty());
}

TEST_P(RhobenchWorkload, WrongExpectedDigestIsAFailedOp)
{
    Options o = tiny(GetParam(), false);
    o.corruptOracle = true;
    Report r = runBenchmark(o);
    EXPECT_FALSE(r.correct);
    EXPECT_GT(r.failed, 0u);
    EXPECT_NE(resultJson(r).find("\"correct\": false"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(All, RhobenchWorkload,
                         ::testing::ValuesIn(workloadNames()));
