/**
 * @file
 * TaskJournal v2 robustness: CRC/seq record validation, self-healing
 * recovery, discarding of foreign (including v1) files, a
 * journal-corruption property fuzz that must never break campaign
 * bit-identity, and a pin of every campaign kind's payload bytes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "hammer/evo_fuzzer.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"

using namespace rho;

namespace
{

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines,
           bool final_newline = true)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        out << lines[i];
        if (i + 1 < lines.size() || final_newline)
            out << "\n";
    }
}

/** Flip one bit of one line (line 0 = header) in a journal file. */
void
flipBit(const std::string &path, unsigned line_idx, unsigned bit)
{
    auto lines = readLines(path);
    ASSERT_LT(line_idx, lines.size());
    std::string &l = lines[line_idx];
    ASSERT_FALSE(l.empty());
    std::size_t pos = (bit / 8) % l.size();
    l[pos] = static_cast<char>(l[pos] ^ (1u << (bit % 8)));
    writeLines(path, lines);
}

std::string
tempPath(const char *name)
{
    std::string p = testing::TempDir() + name;
    std::remove(p.c_str());
    return p;
}

/** A small journal with `n` records ("payload-i x") at `path`. */
void
makeJournal(const std::string &path, std::uint64_t key, unsigned n,
            const JournalOptions &opts = JournalOptions{})
{
    TaskJournal j(path, key, "test", opts);
    for (unsigned i = 0; i < n; ++i)
        j.record(i, strFormat("payload-%u %u", i, i * 17));
}

} // namespace

// ---------------------------------------------------------------------
// CRC + double codec primitives
// ---------------------------------------------------------------------

TEST(Checkpoint, Crc32KnownAnswer)
{
    // The classic IEEE 802.3 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
    // Sensitivity: one flipped bit changes the sum.
    EXPECT_NE(crc32("123456789", 9), crc32("123456788", 9));
}

TEST(Checkpoint, DoubleCodecIsBitExact)
{
    for (double x : {0.0, -0.0, 1.5, -3.25e-7, 6.02214076e23, 1e-310}) {
        auto back = decodeDouble(encodeDouble(x));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
                  std::bit_cast<std::uint64_t>(x));
    }
    EXPECT_FALSE(decodeDouble("").has_value());
    EXPECT_FALSE(decodeDouble("xyz").has_value());
    EXPECT_FALSE(decodeDouble("00000000000000").has_value());
}

// ---------------------------------------------------------------------
// v2 format: record, reload, self-heal
// ---------------------------------------------------------------------

TEST(Checkpoint, RecordsReloadVerbatim)
{
    std::string path = tempPath("rho_ckpt_basic.journal");
    makeJournal(path, 0x1234, 4);

    TaskJournal j(path, 0x1234, "test");
    EXPECT_FALSE(j.recovery().discarded);
    EXPECT_EQ(j.restoredCount(), 4u);
    EXPECT_FALSE(j.recovery().truncatedAtCorruption);
    EXPECT_EQ(j.lookup(2), "payload-2 34");
    EXPECT_FALSE(j.lookup(9).has_value());
    std::remove(path.c_str());
}

TEST(Checkpoint, SingleBitFlipIsRejected)
{
    // The CRC regression: flip ONE bit of one record on disk; that
    // record and everything after it must be rejected, everything
    // before it preserved.
    std::string path = tempPath("rho_ckpt_bitflip.journal");
    makeJournal(path, 0x5678, 5);

    flipBit(path, /*line_idx=*/3, /*bit=*/5 * 8 + 1); // record #2

    {
        TaskJournal j(path, 0x5678, "test");
        EXPECT_EQ(j.restoredCount(), 2u);
        EXPECT_TRUE(j.lookup(0).has_value());
        EXPECT_TRUE(j.lookup(1).has_value());
        EXPECT_FALSE(j.lookup(2).has_value());
        EXPECT_FALSE(j.lookup(4).has_value());
        EXPECT_TRUE(j.recovery().truncatedAtCorruption);
        EXPECT_EQ(j.recovery().recordsDropped, 3u);
    }
    // Self-healed: the repaired file reloads with no complaints.
    TaskJournal j(path, 0x5678, "test");
    EXPECT_EQ(j.restoredCount(), 2u);
    EXPECT_FALSE(j.recovery().truncatedAtCorruption);
    std::remove(path.c_str());
}

TEST(Checkpoint, DuplicatedRecordLineTruncates)
{
    std::string path = tempPath("rho_ckpt_dup.journal");
    makeJournal(path, 0x77, 4);

    // Splice record #1's line after record #2 — its CRC is fine but
    // its sequence number goes backwards.
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 5u);
    std::vector<std::string> spliced = {lines[0], lines[1], lines[2],
                                        lines[3], lines[2], lines[4]};
    writeLines(path, spliced);

    TaskJournal j(path, 0x77, "test");
    EXPECT_EQ(j.restoredCount(), 3u);
    EXPECT_TRUE(j.recovery().truncatedAtCorruption);
    EXPECT_EQ(j.recovery().recordsDropped, 2u);
    std::remove(path.c_str());
}

TEST(Checkpoint, TornFinalLineIsDropped)
{
    std::string path = tempPath("rho_ckpt_torn.journal");
    makeJournal(path, 0x99, 3);

    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u);
    lines.back() = lines.back().substr(0, lines.back().size() / 2);
    writeLines(path, lines, /*final_newline=*/false);

    TaskJournal j(path, 0x99, "test");
    EXPECT_EQ(j.restoredCount(), 2u);
    EXPECT_TRUE(j.recovery().truncatedAtCorruption);
    std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedKeyOrKindDiscards)
{
    std::string path = tempPath("rho_ckpt_key.journal");
    makeJournal(path, 0xAAAA, 3);
    {
        TaskJournal j(path, 0xBBBB, "test");
        EXPECT_EQ(j.restoredCount(), 0u);
        EXPECT_TRUE(j.recovery().discarded);
    }
    makeJournal(path, 0xAAAA, 3);
    TaskJournal j(path, 0xAAAA, "other");
    EXPECT_EQ(j.restoredCount(), 0u);
    EXPECT_TRUE(j.recovery().discarded);
    std::remove(path.c_str());
}

TEST(Checkpoint, FsyncPoliciesAllProduceLoadableJournals)
{
    for (FsyncPolicy policy : {FsyncPolicy::Never, FsyncPolicy::PerRecord}) {
        std::string path = tempPath("rho_ckpt_fsync.journal");
        JournalOptions opts;
        opts.fsync = policy;
        makeJournal(path, 0xF5, 5, opts);
        TaskJournal j(path, 0xF5, "test");
        EXPECT_EQ(j.restoredCount(), 5u);
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, BitRotHookCorruptsExactlyOneRecord)
{
    std::string path = tempPath("rho_ckpt_rot.journal");
    {
        unsigned written = 0;
        JournalOptions opts;
        opts.bitRot = [&written](std::size_t) -> int {
            return ++written == 3 ? 42 : -1; // rot only record #2
        };
        TaskJournal j(path, 0xD0, "test", opts);
        for (unsigned i = 0; i < 5; ++i)
            j.record(i, strFormat("p-%u", i));
    }
    TaskJournal j(path, 0xD0, "test");
    EXPECT_EQ(j.restoredCount(), 2u);
    EXPECT_TRUE(j.recovery().truncatedAtCorruption);
    EXPECT_EQ(j.recovery().recordsDropped, 3u);
    std::remove(path.c_str());
}

TEST(Checkpoint, OnRecordReportsMonotonicSeq)
{
    std::string path = tempPath("rho_ckpt_seq.journal");
    std::vector<std::uint64_t> seqs;
    JournalOptions opts;
    opts.onRecord = [&seqs](unsigned, std::uint64_t seq) {
        seqs.push_back(seq);
    };
    {
        TaskJournal j(path, 0x31, "test", opts);
        for (unsigned i = 0; i < 3; ++i)
            j.record(i, "x");
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
    // A reopened journal continues the sequence past what it loaded.
    TaskJournal j(path, 0x31, "test", opts);
    j.record(3, "x");
    EXPECT_EQ(seqs.back(), 4u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Campaign-level: foreign files and corruption never break bit-identity
// ---------------------------------------------------------------------

namespace
{

/** Rewrite a v2 journal in the legacy v1 format (no seq, no CRC). */
void
downgradeToV1(const std::string &path)
{
    auto lines = readLines(path);
    ASSERT_FALSE(lines.empty());
    ASSERT_EQ(lines[0].rfind("rho-journal v2 ", 0), 0u);
    std::vector<std::string> v1;
    v1.push_back("rho-journal v1 " + lines[0].substr(15));
    for (std::size_t i = 1; i < lines.size(); ++i) {
        // "task <index> <seq> <crc> <payload>" -> "task <index> <payload>"
        std::istringstream rec(lines[i]);
        std::string tag, index, seq, crc, payload;
        ASSERT_TRUE(rec >> tag >> index >> seq >> crc);
        std::getline(rec, payload);
        if (!payload.empty() && payload.front() == ' ')
            payload.erase(0, 1);
        v1.push_back(tag + " " + index + " " + payload);
    }
    writeLines(path, v1);
}

struct SweepScenario
{
    SystemSpec spec;
    HammerConfig cfg;
    HammerPattern pattern;

    explicit SweepScenario(std::uint64_t seed)
        : spec(Arch::AlderLake, DimmProfile::byId("S4")),
          cfg(rhoConfig(Arch::AlderLake, false, 30000)),
          pattern(makePattern(seed))
    {
    }

    static HammerPattern
    makePattern(std::uint64_t seed)
    {
        Rng prng(seed);
        PatternParams pp;
        pp.minPairs = 3;
        pp.maxPairs = 3;
        return HammerPattern::randomNonUniform(prng, pp);
    }
};

void
expectSweepEqual(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.totalFlips, b.totalFlips);
    EXPECT_EQ(a.flipsPerLocation, b.flipsPerLocation);
    EXPECT_EQ(a.cumulativeTimeNs, b.cumulativeTimeNs);
    EXPECT_EQ(a.simTimeNs, b.simTimeNs); // bit-identical doubles
    EXPECT_EQ(a.flipList.size(), b.flipList.size());
}

} // namespace

TEST(Checkpoint, V1JournalIsDiscardedAndCampaignReexecutes)
{
    // A v1 file (no seq, no CRC) is a foreign format: it is discarded
    // like a mismatched key, never loaded.
    std::string path = tempPath("rho_ckpt_v1.journal");
    makeJournal(path, 0xE1, 4);
    downgradeToV1(path);
    {
        TaskJournal j(path, 0xE1, "test");
        EXPECT_TRUE(j.recovery().discarded);
        EXPECT_EQ(j.restoredCount(), 0u);
    }
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].rfind("rho-journal v2 ", 0), 0u);

    // A campaign over a v1 journal re-executes every task and still
    // merges bit-identically.
    SweepScenario sc(3);
    SweepParams params;
    params.numLocations = 6;
    params.jobs = 2;
    SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                     55);
    params.checkpointPath = path;
    sweepCampaign(sc.spec, sc.pattern, sc.cfg, params, 55);
    downgradeToV1(path);

    ParallelStats stats;
    SweepResult rerun = sweepCampaign(sc.spec, sc.pattern, sc.cfg, params,
                                      55, &stats);
    expectSweepEqual(rerun, base);
    EXPECT_EQ(stats.tasksRestored, 0u);
    EXPECT_EQ(stats.tasksRun, params.numLocations);
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptionPropertyFuzzKeepsBitIdentity)
{
    // The property: NO corruption of the journal file — truncation,
    // torn line, duplicated records, single-bit rot — may change a
    // resumed campaign's merged result. Three seeds, several random
    // corruption rounds each.
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        SweepScenario sc(seed);
        SweepParams params;
        params.numLocations = 5;
        params.jobs = 2;
        SweepResult base = sweepCampaign(sc.spec, sc.pattern, sc.cfg,
                                         params, seed);

        std::string path = tempPath("rho_ckpt_fuzz.journal");
        params.checkpointPath = path;
        expectSweepEqual(sweepCampaign(sc.spec, sc.pattern, sc.cfg,
                                       params, seed),
                         base);

        Rng rng(hashCombine(seed, 0xF0));
        for (unsigned round = 0; round < 6; ++round) {
            auto lines = readLines(path);
            ASSERT_GE(lines.size(), 2u);
            unsigned op = (unsigned)rng.uniformInt(0, 3);
            unsigned victim =
                (unsigned)rng.uniformInt(1, lines.size() - 1);
            switch (op) {
            case 0: // truncate the suffix
                lines.resize(victim);
                writeLines(path, lines);
                break;
            case 1: { // tear a line in half, drop the rest
                lines.resize(victim + 1);
                lines.back() =
                    lines.back().substr(0, lines.back().size() / 2);
                writeLines(path, lines, false);
                break;
            }
            case 2: // duplicate a record line in place
                lines.insert(lines.begin() + victim, lines[victim]);
                writeLines(path, lines);
                break;
            default: { // flip a random bit of a random record
                unsigned bit = (unsigned)rng.uniformInt(
                    0, lines[victim].size() * 8 - 1);
                flipBit(path, victim, bit);
                break;
            }
            }
            SweepResult resumed = sweepCampaign(sc.spec, sc.pattern,
                                                sc.cfg, params, seed);
            expectSweepEqual(resumed, base);
        }
        std::remove(path.c_str());
    }
}

// ---------------------------------------------------------------------
// Journal payload pin: the bytes each campaign kind journals
// ---------------------------------------------------------------------

namespace
{

/**
 * Order-free digest of every restorable (index, payload) record in a
 * journal: a wrapping sum of per-record hashes, so the completion
 * order of a parallel run does not matter.
 */
std::uint64_t
journalDigest(const std::string &path, std::uint64_t key, const char *kind,
              std::size_t expect_records)
{
    TaskJournal j(path, key, kind);
    EXPECT_EQ(j.restoredCount(), expect_records) << kind;
    std::uint64_t sum = 0;
    for (const auto &[index, payload] : j.entries()) {
        std::uint64_t h = hashCombine(index, payload.size());
        sum += hashCombine(h, crc32(payload.data(), payload.size()));
    }
    return sum;
}

/** A pinned digest per (campaign kind, seed). */
struct PayloadPin
{
    std::uint64_t seed;
    std::uint64_t sweep;
    std::uint64_t fuzz;
    std::uint64_t evo;
};

} // namespace

TEST(JournalPayloadPin, SweepFuzzEvoPayloadsAreByteStable)
{
    // A journal written by one binary must resume under the next, so
    // the payload bytes of every kind are part of the contract: a
    // codec or task change that alters these digests breaks resume of
    // existing journals. Each digest must also hold for any `jobs`.
    const PayloadPin pins[] = {
        {5, 0xf3f98803247fbc48ull, 0xdf04618299677502ull,
         0xf5cc2b7de890803cull},
        {9, 0x65cdea208b50068full, 0xe451535c38f058caull,
         0xc9e33d8681374d18ull},
    };
    const std::string path = tempPath("rho_ckpt_pin.journal");

    SystemSpec sweep_spec(Arch::AlderLake, DimmProfile::byId("S4"));
    HammerConfig sweep_cfg = rhoConfig(Arch::AlderLake, false, 30000);
    SystemSpec fuzz_spec(Arch::RaptorLake, DimmProfile::ddr5Sample());
    HammerConfig fuzz_cfg = rhoConfig(Arch::RaptorLake, true, 30000);

    for (const PayloadPin &pin : pins) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(strFormat("seed %llu jobs %u",
                                   (unsigned long long)pin.seed, jobs));
            HammerPattern pattern = SweepScenario::makePattern(pin.seed);
            SweepParams sp;
            sp.numLocations = 4;
            sp.jobs = jobs;
            sp.checkpointPath = path;
            std::remove(path.c_str());
            sweepCampaign(sweep_spec, pattern, sweep_cfg, sp, pin.seed);
            EXPECT_EQ(journalDigest(path,
                                    sweepJournalKey(sweep_spec, sweep_cfg,
                                                    sp, pattern, pin.seed),
                                    SweepJournalKind, sp.numLocations),
                      pin.sweep);

            FuzzParams fp;
            fp.numPatterns = 4;
            fp.locationsPerPattern = 1;
            fp.jobs = jobs;
            fp.checkpointPath = path;
            std::remove(path.c_str());
            fuzzCampaign(fuzz_spec, fuzz_cfg, fp, pin.seed);
            EXPECT_EQ(journalDigest(path,
                                    fuzzJournalKey(fuzz_spec, fuzz_cfg, fp,
                                                   pin.seed),
                                    FuzzJournalKind, fp.numPatterns),
                      pin.fuzz);

            EvoParams ep;
            ep.populationSize = 3;
            ep.generations = 2;
            ep.elites = 1;
            ep.locationsPerPattern = 1;
            ep.jobs = jobs;
            ep.checkpointPath = path;
            std::remove(path.c_str());
            evolvedFuzzCampaign(fuzz_spec, fuzz_cfg, ep, pin.seed);
            EXPECT_EQ(journalDigest(path,
                                    evoJournalKey(fuzz_spec, fuzz_cfg, ep,
                                                  pin.seed),
                                    EvoJournalKind, ep.trialBudget()),
                      pin.evo);
        }
    }
    std::remove(path.c_str());
}

TEST(JournalPayloadPin, FuzzAndEvoKeysAreStable)
{
    // A journal only resumes under the key it was written with, so both
    // keys of one fixed spec are pinned. Every PatternParams field has
    // a distinct value: reordering or dropping one changes the key.
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 30000);
    PatternParams pp{3, 9, 4, 6, 2, 1, 33};

    FuzzParams fp;
    fp.numPatterns = 5;
    fp.locationsPerPattern = 2;
    fp.patternParams = pp;
    EXPECT_EQ(fuzzJournalKey(spec, cfg, fp, 7), 0x6f361b9632edf576ULL);

    EvoParams ep;
    ep.populationSize = 4;
    ep.generations = 3;
    ep.elites = 1;
    ep.locationsPerPattern = 1;
    ep.patternParams = pp;
    EXPECT_EQ(evoJournalKey(spec, cfg, ep, 7), 0x0fe157bf7e9ec0f9ULL);
}
