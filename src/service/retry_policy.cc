#include "service/retry_policy.hh"

#include <algorithm>

namespace rho::service
{

/** Backoff growth per further retry. */
constexpr double kBackoffFactor = 2.0;

double
RetryPolicy::delayForAttempt(unsigned attempt) const
{
    if (attempt <= 1)
        return 0.0;
    double d = initialBackoffS;
    for (unsigned i = 2; i < attempt; ++i)
        d *= kBackoffFactor;
    return std::min(d, maxBackoffS);
}

} // namespace rho::service
