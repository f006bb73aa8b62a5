/**
 * @file
 * Strict command-line parsing for the benchmark. Unknown flags, missing
 * or repeated flags, non-numeric or out-of-range values and unknown
 * workload names are rejected; nothing is read from the environment.
 */

#ifndef RHOBENCH_CLI_HH
#define RHOBENCH_CLI_HH

#include <string>
#include <vector>

#include "workload.hh"

namespace rhobench
{

/** Outcome of parsing: options, or an error message, or a help request. */
struct ParseResult
{
    Options opts;
    std::string error; //!< non-empty when the arguments are rejected
    bool help = false;
};

/** Parse the arguments after the program name. */
ParseResult parseArgs(const std::vector<std::string> &args);

/** Usage text. */
std::string usage();

} // namespace rhobench

#endif // RHOBENCH_CLI_HH
