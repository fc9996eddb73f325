#include "sim/job_status.hh"

#include "base/logging.hh"

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
           status == JobStatus::TimedOut;
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
