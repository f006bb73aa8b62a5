/**
 * @file
 * Bounded retry with exponential backoff for crashed or wedged shards.
 *
 * Pure data + arithmetic: the supervisor asks "how long until attempt
 * N may launch" and "is attempt N allowed at all". Backoff is
 * deterministic (no jitter) so supervisor logs are reproducible; the
 * workers' results are pure functions of the campaign seed anyway, so
 * scheduling never affects the merged output.
 */

#ifndef RHO_SERVICE_RETRY_POLICY_HH
#define RHO_SERVICE_RETRY_POLICY_HH

namespace rho::service
{

/** Retry budget + backoff curve for one shard. */
struct RetryPolicy
{
    unsigned maxAttempts = 4;      //!< total launches (1 = no retries)
    double initialBackoffS = 0.05; //!< delay before the first retry
    double maxBackoffS = 2.0;      //!< cap on any single delay; each
                                   //!< further retry doubles the delay

    /**
     * Seconds to wait before launching attempt `attempt` (1-based;
     * attempt 1 launches immediately).
     */
    double delayForAttempt(unsigned attempt) const;

    /** True while `attempt` (1-based) is within the budget. */
    bool
    allows(unsigned attempt) const
    {
        return attempt <= (maxAttempts == 0 ? 1 : maxAttempts);
    }
};

} // namespace rho::service

#endif // RHO_SERVICE_RETRY_POLICY_HH
