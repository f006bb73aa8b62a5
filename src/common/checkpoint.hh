/**
 * @file
 * TaskJournal: append-only checkpoint journal for parallel campaigns.
 *
 * A campaign that can be killed mid-run (OOM killer, ^C, a cluster
 * pre-emption, a supervisor SIGKILL) records each completed task's
 * serialized result as one journal line. On restart, completed tasks
 * are replayed from the journal instead of re-executed; because every
 * task is independently seeded via hashCombine(seed, index) and
 * results are merged in index order, a resumed campaign is
 * bit-identical to an uninterrupted one for any --jobs value, any
 * worker-process count, and any kill or corruption point.
 *
 * Current format (v2): plain text, one record per line —
 *
 *   rho-journal v2 <kind> <key-hex>                  (header)
 *   task <index> <seq> <crc-hex> <payload>           (one per task)
 *   meta <index> <seq> <crc-hex> <payload>           (aux records)
 *
 * `meta` is a second record kind sharing the task sequence space but
 * a separate index namespace: campaign engines use it for per-phase
 * bookkeeping that is not a task result (the evolutionary fuzzer
 * journals one generation-digest meta record per generation so a
 * resumed search can prove the restored trial outcomes belong to the
 * same deterministic evolution trajectory). `seq` is a strictly
 * monotonic per-file sequence number and `crc` a CRC32 (IEEE) over
 * "<index> <seq> <payload>" for task records and
 * "meta <index> <seq> <payload>" for meta records (the tag is part of
 * the image so the two namespaces cannot be spliced into each other). A record is trusted
 * only if its line is newline-terminated, parses, its CRC matches and
 * its sequence number strictly increases — so torn final lines, rotted
 * bits, duplicated lines and spliced tails are all detected. Recovery
 * is self-healing: loading truncates at the *first* corrupt record
 * (everything before it replays; the lost suffix re-executes) and the
 * repaired file is rewritten atomically (write temp + rename) so a
 * later kill mid-repair cannot make things worse.
 *
 * The key fingerprints the campaign parameters; opening a journal
 * whose key, kind or format version differs from the current campaign
 * discards it.
 * Doubles are serialized as bit-exact hex so replayed results
 * round-trip exactly.
 */

#ifndef RHO_COMMON_CHECKPOINT_HH
#define RHO_COMMON_CHECKPOINT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rho
{

/** Serialize a double bit-exactly (hex of its IEEE-754 image). */
std::string encodeDouble(double x);

/** Inverse of encodeDouble; nullopt on malformed input. */
std::optional<double> decodeDouble(const std::string &s);

/** CRC32 (IEEE 802.3, reflected) — the journal record checksum. */
std::uint32_t crc32(const void *data, std::size_t len);

/**
 * Durability/overhead trade-off for journal appends. Either way the
 * atomic rewrite on open fsyncs its temp file before the rename, and
 * sync() forces an fsync on demand.
 */
enum class FsyncPolicy : std::uint8_t
{
    Never,     //!< OS page cache only (journal survives process death,
               //!< not a host power cut)
    PerRecord, //!< fsync after every record (default; a reaped record
               //!< is durable)
};

/** Optional knobs and hooks for a TaskJournal. */
struct JournalOptions
{
    FsyncPolicy fsync = FsyncPolicy::PerRecord;

    /**
     * Fault hook (chaos/testing): called once per appended record with
     * the record line's size in bits; return a bit index to corrupt
     * that record on disk, or -1 to write it intact. The flipped bit
     * makes the record fail its CRC on the next open — exercising the
     * self-healing recovery path end to end.
     */
    std::function<int(std::size_t num_bits)> bitRot;

    /**
     * Observer called after each record is durably appended (service
     * workers wire their chaos plan here).
     */
    std::function<void(unsigned index, std::uint64_t seq)> onRecord;
};

/** What TaskJournal found (and did) while opening a file. */
struct JournalRecovery
{
    std::size_t recordsLoaded = 0;  //!< restorable records
    std::size_t recordsDropped = 0; //!< corrupt record + lost suffix
    bool truncatedAtCorruption = false; //!< self-healing fired
    bool discarded = false; //!< key/kind/version mismatch: file reset
};

/** Append-only, crash-tolerant, corruption-detecting task journal. */
class TaskJournal
{
  public:
    /**
     * Open (or create) the journal at `path` for a campaign
     * fingerprinted by `key`. An existing v2 file with a matching
     * header has its verified task records loaded for replay (and is
     * repaired in place if a corrupt suffix is found). Any other file
     * is discarded and rewritten. `kind` names the campaign type
     * ("sweep3", "fuzz4") and is part of the match.
     */
    TaskJournal(const std::string &path, std::uint64_t key,
                const std::string &kind,
                const JournalOptions &options = JournalOptions{});
    ~TaskJournal();

    TaskJournal(const TaskJournal &) = delete;
    TaskJournal &operator=(const TaskJournal &) = delete;

    /** Payload of a previously completed task, if journaled. */
    std::optional<std::string> lookup(unsigned index) const;

    /** Payload of a previously recorded meta record, if journaled. */
    std::optional<std::string> lookupMeta(unsigned index) const;

    /** Number of restorable task records loaded at open. */
    std::size_t restoredCount() const { return restored.size(); }

    /** All restored records (service-layer shard merge reads this). */
    const std::unordered_map<unsigned, std::string> &
    entries() const
    {
        return restored;
    }

    /**
     * Record a completed task. Thread-safe; the line is written (and,
     * per the fsync policy, made durable) before returning, so a later
     * kill cannot lose it. Payloads must not contain newlines.
     */
    void record(unsigned index, const std::string &payload);

    /**
     * Record an auxiliary (non-task) entry under the meta namespace.
     * Same durability and thread-safety contract as record().
     */
    void recordMeta(unsigned index, const std::string &payload);

    /** Force an fsync of everything appended so far. */
    void sync();

    const std::string &path() const { return filePath; }

    /** What the constructor found on disk. */
    const JournalRecovery &recovery() const { return recov; }

  private:
    struct LoadedLine
    {
        unsigned index;
        std::uint64_t seq;
        std::string payload;
        bool meta = false;
    };

    /** Write header + records to a temp file and rename into place. */
    void rewriteAtomic(const std::vector<LoadedLine> &lines);
    void openAppendFd();

    void recordLocked(unsigned index, const std::string &payload,
                      bool meta);

    std::string filePath;
    std::string header;
    std::unordered_map<unsigned, std::string> restored;
    std::unordered_map<unsigned, std::string> restoredMeta;
    JournalOptions opts;
    JournalRecovery recov;
    std::uint64_t nextSeq = 1;
    int fd = -1;
    std::mutex mtx;
};

} // namespace rho

#endif // RHO_COMMON_CHECKPOINT_HH
