/**
 * @file
 * The one job lifecycle shared by every sweep executor: the worker
 * pool (runParallelOutcomes), the sandbox (runJobAttempt) and
 * nuca_sweepd. A job is Queued, then Running (a daemon job may loop
 * through Preempted), and settles into one terminal status, which
 * classifyFailure decides and kJobStatusNames names.
 */

#ifndef NUCA_SIM_JOB_STATUS_HH
#define NUCA_SIM_JOB_STATUS_HH

#include <cstddef>
#include <exception>
#include <string>

#include "sim/robustness.hh"

namespace nuca {

/** Where a sweep job sits in its lifecycle, or how it settled. */
enum class JobStatus
{
    Ok,          ///< the job returned a result
    Failed,      ///< the job threw (result slot holds a default value)
    Stalled,     ///< the watchdog raised SimulationStalled
    OverBudget,  ///< the REPRO_MAX_CYCLES budget ran out
    Crashed,     ///< the isolated child died (signal / nonzero exit)
    TimedOut,    ///< wall-clock deadline or RLIMIT_CPU expired
    Queued,      ///< waiting in the daemon's job queue
    Running,     ///< a daemon worker is executing it
    Preempted,   ///< yielded at a snapshot boundary; will resume
    CacheHit,    ///< served from the full-result cache, no worker ran
    Interrupted, ///< sweep stopped by SIGINT/SIGTERM before this job
    Cancelled,   ///< withdrawn by an explicit cancel request
};

struct JobStatusName
{
    JobStatus status;
    const char *name;
};

/** Every status with its name, in enum order: the one table behind
 *  to_string and jobStatusFromString. */
inline constexpr JobStatusName kJobStatusNames[] = {
    {JobStatus::Ok, "ok"},
    {JobStatus::Failed, "failed"},
    {JobStatus::Stalled, "stalled"},
    {JobStatus::OverBudget, "over_budget"},
    {JobStatus::Crashed, "crashed"},
    {JobStatus::TimedOut, "timed_out"},
    {JobStatus::Queued, "queued"},
    {JobStatus::Running, "running"},
    {JobStatus::Preempted, "preempted"},
    {JobStatus::CacheHit, "cache_hit"},
    {JobStatus::Interrupted, "interrupted"},
    {JobStatus::Cancelled, "cancelled"},
};

const char *to_string(JobStatus status);

/** Inverse of to_string(JobStatus); unknown names (a foreign
 *  writer's, or an older build's "quarantined") parse as Failed so
 *  such sidecars still load and never reuse the job. */
JobStatus jobStatusFromString(const std::string &name);

/** True once the job can never change status again: everything but
 *  Queued, Running and Preempted. */
bool isTerminal(JobStatus status);

/** True when the job's process died or blew its deadline: Crashed
 *  or TimedOut. */
bool isCrash(JobStatus status);

/**
 * How a failed attempt settles: Stalled, OverBudget, Crashed,
 * TimedOut or Preempted for the matching robustness.hh exception,
 * Failed for anything else. @pre @p failure is not null.
 */
JobStatus classifyFailure(std::exception_ptr failure);

/** what() of @p failure, or "unknown exception" for a non-std
 *  exception. @pre @p failure is not null. */
std::string failureMessage(std::exception_ptr failure);

/**
 * Inverse of classifyFailure: throw the exception that classifies as
 * @p status, carrying @p what. Statuses no exception maps to throw a
 * plain SimulationError (classified Failed). The sandbox uses it to
 * rebuild a child's shipped failure in the parent.
 */
[[noreturn]] void rethrowAs(JobStatus status, const std::string &what);

} // namespace nuca

#endif // NUCA_SIM_JOB_STATUS_HH
