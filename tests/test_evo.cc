/**
 * @file
 * Evolutionary pattern search: parameter validation, bit-identity for
 * any worker count, kill/resume transparency (including tampered
 * generation digests), REF-sync wiring through the fuzz path, the
 * evolved-beats-blind acceptance pin, and the bypass-boundary golden.
 *
 * Golden table
 * ------------
 * tests/goldens/bypass_boundary.txt pins the rendered blind-vs-evolved
 * boundary table for a small fixed search. Regenerate on intended
 * behaviour changes and commit with them:
 *
 *     ./test_evo --regen-goldens
 *     # or: RHO_REGEN_GOLDENS=1 ./test_evo
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "hammer/bypass_search.hh"
#include "hammer/evo_fuzzer.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

namespace
{

bool regenGoldens = false;

#ifndef RHO_GOLDEN_DIR
#define RHO_GOLDEN_DIR "tests/goldens"
#endif

std::string
goldenPath(const std::string &name)
{
    return std::string(RHO_GOLDEN_DIR) + "/" + name;
}

bool
readFileAll(const std::string &path, std::string &out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

bool
writeFileAll(const std::string &path, const std::string &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

/** Byte-compare `text` against the committed golden (regen mode
 *  rewrites the golden and skips). */
void
checkGoldenText(const std::string &name, const std::string &text)
{
    std::string path = goldenPath(name);
    if (regenGoldens) {
        ASSERT_TRUE(writeFileAll(path, text)) << path;
        GTEST_SKIP() << "regenerated " << path << " (" << text.size()
                     << " bytes)";
    }
    std::string want;
    ASSERT_TRUE(readFileAll(path, want))
        << "missing golden " << path
        << " — run ./test_evo --regen-goldens and commit the result";
    EXPECT_EQ(text, want) << "boundary table diverged from " << path;
}

/** Small-but-real search shared by the determinism/resume tests. */
EvoParams
smallEvo()
{
    EvoParams params;
    params.populationSize = 4;
    params.generations = 3;
    params.elites = 1;
    params.locationsPerPattern = 1;
    return params;
}

HammerConfig
searchConfig(std::uint64_t budget = 60000)
{
    return rhoConfig(Arch::RaptorLake, true, budget);
}

SystemSpec
trrOnlySpec()
{
    return SystemSpec(Arch::RaptorLake, DimmProfile::ddr5Sample());
}

/** Field-wise exact equality of two evolutionary outcomes. */
void
expectEvoEqual(const EvoResult &a, const EvoResult &b)
{
    EXPECT_EQ(a.totalFlips, b.totalFlips);
    EXPECT_EQ(a.bestPatternFlips, b.bestPatternFlips);
    EXPECT_EQ(a.effectivePatterns, b.effectivePatterns);
    EXPECT_EQ(a.unplaceablePatterns, b.unplaceablePatterns);
    EXPECT_EQ(a.trialsRun, b.trialsRun);
    EXPECT_EQ(a.bestFlipsPerGeneration, b.bestFlipsPerGeneration);
    EXPECT_EQ(a.simTimeNs, b.simTimeNs);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.failure, b.failure);
    ASSERT_EQ(a.bestPattern.has_value(), b.bestPattern.has_value());
    if (a.bestPattern) {
        EXPECT_EQ(a.bestPattern->id(), b.bestPattern->id());
        EXPECT_EQ(a.bestPattern->genomeFingerprint(),
                  b.bestPattern->genomeFingerprint());
        EXPECT_EQ(a.bestPattern->slots(), b.bestPattern->slots());
    }
}

} // namespace

// ---------------------------------------------------------------------
// Parameter validation (structured failures, not UB or asserts)
// ---------------------------------------------------------------------

TEST(EvoParamsCheck, DefaultsAreValid)
{
    EXPECT_EQ(evoParamsError(EvoParams{}), "");
}

TEST(EvoParamsCheck, GeneticsKnobsValidated)
{
    EvoParams p;
    p.populationSize = 0;
    EXPECT_NE(evoParamsError(p), "");

    p = EvoParams{};
    p.generations = 0;
    EXPECT_NE(evoParamsError(p), "");

    p = EvoParams{};
    p.elites = p.populationSize; // no slot left for offspring
    EXPECT_NE(evoParamsError(p), "");

    p = EvoParams{};
    p.tournamentSize = 0;
    EXPECT_NE(evoParamsError(p), "");

    p = EvoParams{};
    p.crossoverProb = 1.5;
    EXPECT_NE(evoParamsError(p), "");

    p = EvoParams{};
    p.immigrantProb = -0.1;
    EXPECT_NE(evoParamsError(p), "");

    // Degenerate pattern ranges surface through the same check.
    p = EvoParams{};
    p.patternParams.minPairs = 9;
    p.patternParams.maxPairs = 2;
    EXPECT_NE(evoParamsError(p), "");
}

TEST(EvoParamsCheck, CampaignRejectsInvalidParamsStructurally)
{
    EvoParams params = smallEvo();
    params.patternParams.minPeriodLog2 = 9;
    params.patternParams.maxPeriodLog2 = 5;
    EvoResult res =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 1);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.failure, FailureCode::InvalidPatternParams);
    EXPECT_FALSE(res.failureReason.empty());
    EXPECT_EQ(res.trialsRun, 0u);
    EXPECT_EQ(res.totalFlips, 0u);
}

TEST(FuzzParamsCheck, BlindCampaignRejectsInvalidParams)
{
    // Satellite: the blind fuzzer entry points validate too.
    FuzzParams params;
    params.numPatterns = 3;
    params.patternParams.maxFreqLog2 = 9; // >= minPeriodLog2
    FuzzResult res =
        fuzzCampaign(trrOnlySpec(), searchConfig(), params, 1);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.failure, FailureCode::InvalidPatternParams);
    EXPECT_EQ(res.dramAccesses, 0u);

    MemorySystem sys(SystemSpec(Arch::RaptorLake, DimmProfile::ddr5Sample()));
    HammerSession session(sys, 3);
    PatternFuzzer fuzzer(session, 3);
    FuzzResult serial = fuzzer.run(searchConfig(), params);
    EXPECT_EQ(serial.failure, FailureCode::InvalidPatternParams);
}

TEST(EvoParamsCheck, UnplaceableGenomesReported)
{
    // maxRowSpread wider than the bank: every sampled genome may fail
    // placement; the campaign must say so instead of flipping zero
    // bits silently. (maxRowSpread only has to clear the bank minus
    // guard rows for *some* offsets to fail; use a huge value so all
    // do.)
    EvoParams params = smallEvo();
    params.generations = 1;
    params.patternParams.maxRowSpread = 1u << 18; // >> rowsPerBank
    params.patternParams.minPairs = 2;
    params.patternParams.maxPairs = 2;
    EvoResult res =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 1);
    if (res.unplaceablePatterns == res.trialsRun) {
        EXPECT_EQ(res.failure, FailureCode::PatternUnplaceable);
        EXPECT_EQ(res.totalFlips, 0u);
    }
    EXPECT_GT(res.unplaceablePatterns, 0u);
}

// ---------------------------------------------------------------------
// Determinism and resume
// ---------------------------------------------------------------------

TEST(EvoSearch, BitIdenticalAcrossJobCounts)
{
    EvoParams one = smallEvo();
    one.jobs = 1;
    EvoParams eight = smallEvo();
    eight.jobs = 8;
    EvoResult a =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), one, 11);
    EvoResult b =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), eight, 11);
    expectEvoEqual(a, b);
    EXPECT_EQ(a.trialsRun, one.trialBudget());
    EXPECT_GT(a.dramAccesses, 0u);
}

TEST(EvoSearch, LearningCurveShape)
{
    EvoParams params = smallEvo();
    MetricsRegistry metrics;
    EvoResult res = evolvedFuzzCampaign(trrOnlySpec(), searchConfig(),
                                        params, 11, nullptr, &metrics);
    ASSERT_EQ(res.bestFlipsPerGeneration.size(), params.generations);
    // The curve is a running best: non-decreasing, ending at the
    // campaign best.
    for (std::size_t g = 1; g < res.bestFlipsPerGeneration.size(); ++g) {
        EXPECT_GE(res.bestFlipsPerGeneration[g],
                  res.bestFlipsPerGeneration[g - 1]);
    }
    EXPECT_EQ(res.bestFlipsPerGeneration.back(), res.bestPatternFlips);
    EXPECT_EQ(metrics.value("campaign.generations"),
              params.generations);
    EXPECT_EQ(metrics.value("campaign.patterns"), params.trialBudget());
}

TEST(EvoSearch, CheckpointResumeIsTransparent)
{
    std::string path = testing::TempDir() + "rho_evo.journal";
    std::remove(path.c_str());

    EvoParams params = smallEvo();
    params.jobs = 2;
    params.checkpointPath = path;
    EvoResult cold =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 23);

    // Simulate a mid-campaign kill: drop the tail of the journal (the
    // self-healing loader replays the surviving prefix and re-executes
    // the rest).
    std::string bytes;
    ASSERT_TRUE(readFileAll(path, bytes));
    ASSERT_GT(bytes.size(), 64u);
    ASSERT_TRUE(writeFileAll(path, bytes.substr(0, bytes.size() / 2)));

    EvoParams resume = params;
    resume.jobs = 8; // a different worker count must not matter either
    EvoResult warm =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), resume, 23);
    expectEvoEqual(cold, warm);

    // Full journal replay as well.
    EvoResult replay =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 23);
    expectEvoEqual(cold, replay);

    // And journaling itself is never observable.
    EvoParams bare = smallEvo();
    bare.jobs = 2;
    EvoResult none =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), bare, 23);
    expectEvoEqual(cold, none);

    std::remove(path.c_str());
}

TEST(EvoSearch, StatsCountRunAndRestoredTrials)
{
    // Regression: the per-generation stats copy dropped taskWallMs,
    // so a search reported zero timed tasks.
    std::string path = testing::TempDir() + "rho_evo_stats.journal";
    std::remove(path.c_str());

    EvoParams params = smallEvo();
    params.jobs = 2;
    params.checkpointPath = path;
    ParallelStats fresh;
    evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 31,
                        &fresh);
    EXPECT_EQ(fresh.tasksRun, params.trialBudget());
    EXPECT_EQ(fresh.taskWallMs.count(), params.trialBudget());
    EXPECT_EQ(fresh.tasksRestored, 0u);

    // A fully journaled rerun executes nothing.
    ParallelStats replay;
    evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 31,
                        &replay);
    EXPECT_EQ(replay.tasksRestored, params.trialBudget());
    EXPECT_EQ(replay.tasksRun, 0u);

    std::remove(path.c_str());
}

TEST(EvoSearch, TamperedGenerationDigestFallsBackToLiveEvaluation)
{
    std::string path = testing::TempDir() + "rho_evo_tamper.journal";
    std::remove(path.c_str());

    EvoParams params = smallEvo();
    params.jobs = 2;
    params.checkpointPath = path;
    EvoResult cold =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 29);

    // Corrupt the first generation-digest meta record. The CRC check
    // rejects it (and the self-healing loader drops the suffix); the
    // resumed search must not trust the orphaned trial records and
    // still converge to the identical result.
    std::string bytes;
    ASSERT_TRUE(readFileAll(path, bytes));
    std::size_t pos = bytes.find("\nmeta ");
    ASSERT_NE(pos, std::string::npos) << "no meta records journaled";
    std::size_t eol = bytes.find('\n', pos + 1);
    ASSERT_NE(eol, std::string::npos);
    bytes[eol - 1] ^= 0x01;
    ASSERT_TRUE(writeFileAll(path, bytes));

    EvoResult warm =
        evolvedFuzzCampaign(trrOnlySpec(), searchConfig(), params, 29);
    expectEvoEqual(cold, warm);

    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// REF-sync wiring through the fuzz path
// ---------------------------------------------------------------------

TEST(EvoRefSync, KeysSeparateSyncedCampaigns)
{
    // A synced and an unsynced campaign must never share a journal.
    SystemSpec spec(Arch::Zen3, DimmProfile::byId("S2"));
    HammerConfig cfg = rhoConfig(Arch::Zen3, true, 30000);

    HammerConfig cfg_sync = cfg;
    cfg_sync.refSync = true;

    FuzzParams fp;
    EXPECT_NE(fuzzJournalKey(spec, cfg, fp, 7),
              fuzzJournalKey(spec, cfg_sync, fp, 7));

    EvoParams ep = smallEvo();
    EXPECT_NE(evoJournalKey(spec, cfg, ep, 7),
              evoJournalKey(spec, cfg_sync, ep, 7));
}

TEST(EvoRefSync, RefSyncChangesOutcomesOnRefBlockingPlatform)
{
    // Zen 3 exposes REF blocking: the detection train plus boundary
    // alignment run before every trial, so the simulated timeline (and
    // typically the flip outcome) must differ from the unsynced run.
    SystemSpec spec(Arch::Zen3, DimmProfile::byId("S2"));
    HammerConfig cfg = rhoConfig(Arch::Zen3, true, 30000);

    FuzzParams params;
    params.numPatterns = 3;
    params.locationsPerPattern = 1;
    params.jobs = 2;
    HammerConfig cfg_sync = cfg;
    cfg_sync.refSync = true;
    FuzzResult plain = fuzzCampaign(spec, cfg, params, 7);
    FuzzResult synced = fuzzCampaign(spec, cfg_sync, params, 7);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(synced.ok());
    EXPECT_NE(plain.simTimeNs, synced.simTimeNs);

    // Synced runs stay deterministic.
    FuzzResult again = fuzzCampaign(spec, cfg_sync, params, 7);
    EXPECT_EQ(synced.totalFlips, again.totalFlips);
    EXPECT_EQ(synced.simTimeNs, again.simTimeNs);
    EXPECT_EQ(synced.dramAccesses, again.dramAccesses);

    EvoParams evo = smallEvo();
    evo.generations = 2;
    EvoResult eplain = evolvedFuzzCampaign(spec, cfg, evo, 7);
    EvoResult esynced = evolvedFuzzCampaign(spec, cfg_sync, evo, 7);
    ASSERT_TRUE(eplain.ok());
    ASSERT_TRUE(esynced.ok());
    EXPECT_NE(eplain.simTimeNs, esynced.simTimeNs);
}

// ---------------------------------------------------------------------
// The acceptance pin: evolved beats blind at equal budget
// ---------------------------------------------------------------------

TEST(EvoVsBlind, EvolvedBeatsBlindOnLeakyFrontierPoints)
{
    // Equal trial budget (48 pattern evaluations each), equal seed and
    // location count: the feedback-driven search must find a stronger
    // best pattern than blind sampling on both leaky frontier points.
    // Values pinned from the tuned engine; see EXPERIMENTS.md §6.
    const Arch arch = Arch::RaptorLake;
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const HammerConfig cfg = rhoConfig(arch, true, 100000);

    std::vector<MitigationConfig> frontier;
    for (const auto &m : mitigationFrontier()) {
        if (m.name == "trr-only" || m.name == "rfm-relaxed")
            frontier.push_back(m);
    }
    ASSERT_EQ(frontier.size(), 2u);

    BypassParams evolved;
    evolved.engine = BypassEngine::Evolved;
    evolved.evo.populationSize = 6;
    evolved.evo.generations = 8;
    evolved.evo.locationsPerPattern = 2;
    evolved.seed = 5;

    BypassParams blind;
    blind.fuzz.numPatterns = evolved.evo.trialBudget();
    blind.fuzz.locationsPerPattern = 2;
    blind.seed = 5;

    BypassReport br = bypassSearch(arch, d1, cfg, frontier, blind);
    BypassReport er = bypassSearch(arch, d1, cfg, frontier, evolved);
    ASSERT_TRUE(br.ok());
    ASSERT_TRUE(er.ok());

    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const BypassConfigResult &b = br.configs[i];
        const BypassConfigResult &e = er.configs[i];
        EXPECT_EQ(b.trialsRun, e.trialsRun) << frontier[i].name;
        EXPECT_EQ(e.trialsRun, evolved.evo.trialBudget());
        EXPECT_GT(e.fuzz.bestPatternFlips, b.fuzz.bestPatternFlips)
            << "evolved search lost to blind sampling on "
            << frontier[i].name << " at equal budget";
        EXPECT_TRUE(e.bypassed) << frontier[i].name;
    }
}

// ---------------------------------------------------------------------
// Boundary-table golden
// ---------------------------------------------------------------------

TEST(BypassBoundary, RenderedTableMatchesGolden)
{
    const Arch arch = Arch::RaptorLake;
    const DimmProfile &d1 = DimmProfile::ddr5Sample();
    const HammerConfig cfg = searchConfig();
    auto frontier = mitigationFrontier();

    BypassParams evolved;
    evolved.engine = BypassEngine::Evolved;
    evolved.evo.populationSize = 3;
    evolved.evo.generations = 2;
    evolved.evo.locationsPerPattern = 1;
    evolved.seed = 42;

    BypassParams blind;
    blind.fuzz.numPatterns = evolved.evo.trialBudget();
    blind.fuzz.locationsPerPattern = 1;
    blind.seed = 42;

    BypassReport br = bypassSearch(arch, d1, cfg, frontier, blind);
    BypassReport er = bypassSearch(arch, d1, cfg, frontier, evolved);
    ASSERT_TRUE(br.ok());
    ASSERT_TRUE(er.ok());
    checkGoldenText("bypass_boundary.txt",
                    renderBypassBoundary(br, er));
}

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--regen-goldens")
            regenGoldens = true;
    }
    if (const char *env = std::getenv("RHO_REGEN_GOLDENS")) {
        if (*env && std::string(env) != "0")
            regenGoldens = true;
    }
    return RUN_ALL_TESTS();
}
