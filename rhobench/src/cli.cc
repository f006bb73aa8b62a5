#include "cli.hh"

#include <algorithm>
#include <charconv>
#include <set>

namespace rhobench
{

namespace
{

/** Decimal digits only (no sign, no spaces), within [lo, hi]. */
bool
parseUnsigned(const std::string &s, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out)
{
    if (s.empty() || !std::all_of(s.begin(), s.end(),
                                  [](char c) { return c >= '0' && c <= '9'; }))
        return false;
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && end == s.data() + s.size() && out >= lo
           && out <= hi;
}

/** Letters, digits and the given punctuation only, 1..max_len long. */
bool
plainToken(const std::string &s, const std::string &extra,
           std::size_t max_len)
{
    if (s.empty() || s.size() > max_len)
        return false;
    return std::all_of(s.begin(), s.end(), [&](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9') || extra.find(c) != std::string::npos;
    });
}

} // namespace

std::string
usage()
{
    std::string names;
    for (const std::string &n : workloadNames()) {
        if (!names.empty())
            names += '|';
        names += n;
    }
    return "usage: rhobench --workload " + names
           + " --seed N [--seconds 1..120] [--trace 0|1]\n"
             "                [--commit ID] [--spans PATH]\n";
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    ParseResult r;
    std::set<std::string> seen;
    auto fail = [&](const std::string &msg) {
        r.error = msg;
        return r;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--help" || flag == "-h") {
            r.help = true;
            return r;
        }
        static const std::set<std::string> known = {
            "--workload", "--seed", "--seconds", "--trace", "--commit",
            "--spans"};
        if (!known.count(flag))
            return fail("unknown argument '" + flag + "'");
        if (!seen.insert(flag).second)
            return fail(flag + " given twice");
        if (i + 1 >= args.size())
            return fail(flag + " needs a value");
        const std::string &v = args[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), v) == names.end())
                return fail("unknown workload '" + v + "'");
            r.opts.workload = v;
        } else if (flag == "--seed") {
            if (!parseUnsigned(v, 0, UINT64_MAX, n))
                return fail("--seed must be an unsigned 64-bit integer, got '"
                            + v + "'");
            r.opts.seed = n;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(v, 1, 120, n))
                return fail("--seconds must be an integer in 1..120, got '"
                            + v + "'");
            r.opts.seconds = static_cast<unsigned>(n);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return fail("--trace must be 0 or 1, got '" + v + "'");
            r.opts.trace = v == "1";
        } else if (flag == "--commit") {
            if (!plainToken(v, "._:-", 80))
                return fail("--commit must be 1..80 of [A-Za-z0-9._:-]");
            r.opts.commit = v;
        } else if (flag == "--spans") {
            // Relative paths inside the working directory only.
            if (!plainToken(v, "._-/", 200) || v.front() == '/'
                || v.find("..") != std::string::npos)
                return fail("--spans must be a relative path of "
                            "[A-Za-z0-9._-/] without '..'");
            r.opts.spansPath = v;
        }
    }
    if (!seen.count("--workload"))
        return fail("--workload is required");
    if (!seen.count("--seed"))
        return fail("--seed is required");
    return r;
}

} // namespace rhobench
