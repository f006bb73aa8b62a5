#include "common/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"

namespace rho
{

std::string
encodeDouble(double x)
{
    return strFormat("%016llx",
                     (unsigned long long)std::bit_cast<std::uint64_t>(x));
}

std::optional<double>
decodeDouble(const std::string &s)
{
    if (s.size() != 16)
        return std::nullopt;
    std::uint64_t bits = 0;
    for (char c : s) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return std::nullopt;
        bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    return std::bit_cast<double>(bits);
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

namespace
{

/**
 * The byte string the record CRC covers. Task records keep the
 * original v2 image (no tag) for backward compatibility; meta records
 * prefix their tag so the two namespaces cannot be spliced into each
 * other by rewriting the tag word in place.
 */
std::string
crcImage(unsigned index, std::uint64_t seq, const std::string &payload,
         bool meta)
{
    std::ostringstream os;
    if (meta)
        os << "meta ";
    os << index << " " << seq << " " << payload;
    return os.str();
}

std::string
recordLine(unsigned index, std::uint64_t seq, const std::string &payload,
           bool meta)
{
    std::string image = crcImage(index, seq, payload, meta);
    return strFormat("%s %u %llu %08x ", meta ? "meta" : "task", index,
                     (unsigned long long)seq,
                     crc32(image.data(), image.size())) +
           payload + "\n";
}

/** Split trailing payload after `rec >> fixed fields`. */
std::string
restOfLine(std::istringstream &rec)
{
    std::string payload;
    std::getline(rec, payload);
    if (!payload.empty() && payload.front() == ' ')
        payload.erase(0, 1);
    return payload;
}

} // namespace

TaskJournal::TaskJournal(const std::string &path, std::uint64_t key,
                         const std::string &kind,
                         const JournalOptions &options)
    : filePath(path), opts(options)
{
    header = strFormat("rho-journal v2 %s %016llx", kind.c_str(),
                       (unsigned long long)key);

    std::vector<LoadedLine> good;
    bool reusable = false;
    bool file_existed = false;
    bool needs_rewrite = false;
    {
        std::ifstream in(filePath, std::ios::binary);
        std::string line;
        if (in && std::getline(in, line)) {
            file_existed = true;
            if (line == header) {
                // Verify every record; stop at the first corrupt one —
                // everything after it is untrusted (a splice or
                // bit-rot can shift the tail arbitrarily).
                reusable = true;
                std::uint64_t prev_seq = 0;
                std::size_t total = 0;
                while (std::getline(in, line)) {
                    ++total;
                    if (in.eof()) // torn final line (no newline)
                        break;
                    std::istringstream rec(line);
                    std::string tag, crc_hex;
                    unsigned index;
                    std::uint64_t seq;
                    if (!(rec >> tag >> index >> seq >> crc_hex) ||
                        (tag != "task" && tag != "meta") ||
                        crc_hex.size() != 8)
                        break;
                    bool is_meta = tag == "meta";
                    std::uint32_t want =
                        (std::uint32_t)std::strtoul(crc_hex.c_str(),
                                                    nullptr, 16);
                    std::string payload = restOfLine(rec);
                    std::string image =
                        crcImage(index, seq, payload, is_meta);
                    if (crc32(image.data(), image.size()) != want)
                        break; // bit-rot: reject, truncate here
                    if (seq <= prev_seq)
                        break; // duplicate/reordered record
                    prev_seq = seq;
                    good.push_back(
                        {index, seq, std::move(payload), is_meta});
                }
                // Count the untrusted suffix after a corrupt record so
                // recovery reports the full loss, not just line one.
                while (std::getline(in, line))
                    ++total;
                recov.recordsLoaded = good.size();
                recov.recordsDropped = total - good.size();
                if (recov.recordsDropped > 0) {
                    recov.truncatedAtCorruption = true;
                    needs_rewrite = true;
                }
                nextSeq = prev_seq + 1;
            }
        }
    }

    if (!reusable) {
        // Fresh journal, or a stale one: different parameters, kind or
        // format version.
        recov.discarded = file_existed;
        needs_rewrite = true;
        good.clear();
        nextSeq = 1;
    }

    for (const LoadedLine &l : good) {
        if (l.meta)
            restoredMeta[l.index] = l.payload;
        else
            restored[l.index] = l.payload;
    }

    if (needs_rewrite)
        rewriteAtomic(good);
    openAppendFd();
}

TaskJournal::~TaskJournal()
{
    if (fd >= 0)
        ::close(fd);
}

void
TaskJournal::rewriteAtomic(const std::vector<LoadedLine> &lines)
{
    std::string tmp =
        strFormat("%s.tmp.%d", filePath.c_str(), (int)::getpid());
    int tfd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (tfd < 0)
        fatal("TaskJournal: cannot write %s", tmp.c_str());
    std::string content = header + "\n";
    for (const LoadedLine &l : lines)
        content += recordLine(l.index, l.seq, l.payload, l.meta);
    const char *p = content.data();
    std::size_t left = content.size();
    while (left > 0) {
        ssize_t n = ::write(tfd, p, left);
        if (n <= 0) {
            ::close(tfd);
            fatal("TaskJournal: short write to %s", tmp.c_str());
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    // The rename below publishes the new file atomically: a kill
    // before it leaves the old file intact, after it the new one.
    ::fsync(tfd);
    ::close(tfd);
    if (std::rename(tmp.c_str(), filePath.c_str()) != 0)
        fatal("TaskJournal: cannot rename %s over %s", tmp.c_str(),
              filePath.c_str());
}

void
TaskJournal::openAppendFd()
{
    if (fd >= 0)
        ::close(fd);
    fd = ::open(filePath.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0)
        fatal("TaskJournal: cannot append to %s", filePath.c_str());
}

void
TaskJournal::record(unsigned index, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mtx);
    recordLocked(index, payload, false);
}

void
TaskJournal::recordMeta(unsigned index, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mtx);
    recordLocked(index, payload, true);
}

void
TaskJournal::recordLocked(unsigned index, const std::string &payload,
                          bool meta)
{
    std::uint64_t seq = nextSeq++;
    std::string line = recordLine(index, seq, payload, meta);
    if (opts.bitRot) {
        // Corrupt on the way to disk (never the trailing newline so
        // the damage stays within this record's line).
        int bit = opts.bitRot((line.size() - 1) * 8);
        if (bit >= 0) {
            std::size_t pos = static_cast<std::size_t>(bit) / 8 %
                              (line.size() - 1);
            line[pos] = static_cast<char>(
                line[pos] ^ (1 << (static_cast<unsigned>(bit) % 8)));
        }
    }
    const char *p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n <= 0)
            fatal("TaskJournal: cannot append to %s", filePath.c_str());
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    if (opts.fsync == FsyncPolicy::PerRecord)
        ::fsync(fd);
    if (opts.onRecord)
        opts.onRecord(index, seq);
}

void
TaskJournal::sync()
{
    std::lock_guard<std::mutex> lock(mtx);
    if (fd >= 0)
        ::fsync(fd);
}

std::optional<std::string>
TaskJournal::lookup(unsigned index) const
{
    auto it = restored.find(index);
    if (it == restored.end())
        return std::nullopt;
    return it->second;
}

std::optional<std::string>
TaskJournal::lookupMeta(unsigned index) const
{
    auto it = restoredMeta.find(index);
    if (it == restoredMeta.end())
        return std::nullopt;
    return it->second;
}

} // namespace rho
