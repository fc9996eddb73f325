#include "sim/job_status.hh"

#include <algorithm>
#include <cstdint>

#include "base/logging.hh"
#include "base/random.hh"

namespace nuca {

const char *
to_string(JobStatus status)
{
    for (const JobStatusName &entry : kJobStatusNames) {
        if (entry.status == status)
            return entry.name;
    }
    panic("unknown job status");
}

JobStatus
jobStatusFromString(const std::string &name)
{
    for (const JobStatusName &entry : kJobStatusNames) {
        if (name == entry.name)
            return entry.status;
    }
    return JobStatus::Failed;
}

bool
isTerminal(JobStatus status)
{
    return status != JobStatus::Queued &&
           status != JobStatus::Running &&
           status != JobStatus::Preempted;
}

bool
isCrash(JobStatus status)
{
    return status == JobStatus::Crashed ||
           status == JobStatus::TimedOut ||
           status == JobStatus::Quarantined;
}

bool
isRetryable(JobStatus status)
{
    // Everything else may settle differently on another attempt;
    // the non-terminal lifecycle states have one still to come.
    return status != JobStatus::Ok && status != JobStatus::OverBudget &&
           status != JobStatus::Quarantined &&
           status != JobStatus::CacheHit &&
           status != JobStatus::Cancelled;
}

unsigned
retryBackoffMs(const SweepPolicy &policy, std::size_t job_index,
               unsigned attempt)
{
    if (policy.backoffMs == 0 || attempt == 0)
        return 0;
    // Exponential in the retry ordinal, capped well before the shift
    // can overflow and at 30 s overall — a sweep's backoff should
    // yield the core, not park the worker for the night.
    constexpr unsigned kCapMs = 30'000;
    const unsigned doublings = std::min(attempt - 1, 20u);
    const std::uint64_t base =
        std::min<std::uint64_t>(std::uint64_t(policy.backoffMs)
                                    << doublings,
                                kCapMs);
    // Deterministic jitter: seeded from (job, attempt) so two workers
    // retrying simultaneously desynchronize, yet every run of the
    // same sweep sleeps the same schedule.
    Rng rng(0x9e3779b97f4a7c15ull ^
            (std::uint64_t(job_index) * 0xdeadbeefull + attempt));
    const std::uint64_t jitter = rng.below(base / 2 + 1);
    return static_cast<unsigned>(
        std::min<std::uint64_t>(base + jitter, kCapMs));
}

JobStatus
classifyFailure(std::exception_ptr failure)
{
    try {
        std::rethrow_exception(failure);
    } catch (const SimulationStalled &) {
        return JobStatus::Stalled;
    } catch (const CycleBudgetExceeded &) {
        return JobStatus::OverBudget;
    } catch (const JobCrashed &) {
        return JobStatus::Crashed;
    } catch (const JobTimedOut &) {
        return JobStatus::TimedOut;
    } catch (const JobPreempted &) {
        // Not a failure: the job yielded at a snapshot boundary on
        // request and resumes from that snapshot later.
        return JobStatus::Preempted;
    } catch (...) {
        return JobStatus::Failed;
    }
}

std::string
failureMessage(std::exception_ptr failure)
{
    try {
        std::rethrow_exception(failure);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

void
rethrowAs(JobStatus status, const std::string &what)
{
    switch (status) {
      case JobStatus::Stalled:
        throw SimulationStalled(what);
      case JobStatus::OverBudget:
        throw CycleBudgetExceeded(what);
      case JobStatus::Crashed:
        throw JobCrashed(what);
      case JobStatus::TimedOut:
        throw JobTimedOut(what);
      case JobStatus::Preempted:
        throw JobPreempted(what);
      default:
        throw SimulationError(what);
    }
}

} // namespace nuca
