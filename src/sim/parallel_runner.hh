/**
 * @file
 * A deterministic worker pool for embarrassingly parallel experiment
 * sweeps. Every (scheme, mix) experiment builds its own CmpSystem
 * from an explicit per-mix seed and shares no mutable state with its
 * siblings, so a sweep can fan out across threads and still produce
 * results bit-identical to the serial loop: jobs are indexed at
 * submission time and each worker writes only results[i], so the
 * output order never depends on scheduling.
 *
 * The caller picks the pool size (harnesses use jobsFromEnv:
 * REPRO_JOBS, default std::thread::hardware_concurrency()). The
 * threads are a WorkerPool, the same one nuca_sweepd drains its
 * queue with, and every job of either executor settles through
 * settleJob.
 *
 * Failure handling is the sweep supervisor's job: every job settles
 * into a JobOutcome (ok / failed / stalled / over_budget) instead of
 * an exception unwinding the pool and discarding completed siblings.
 * The SweepPolicy (REPRO_FAIL) decides whether a failure stops the
 * sweep (abort — workers stop claiming jobs at the next boundary) or
 * leaves a recorded hole (skip).
 */

#ifndef NUCA_SIM_PARALLEL_RUNNER_HH
#define NUCA_SIM_PARALLEL_RUNNER_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/profiler.hh"
#include "sim/job_status.hh"
#include "sim/robustness.hh"
#include "sim/trace_event.hh"

namespace nuca {

/**
 * One job's settled outcome. Non-ok outcomes keep the error text (the
 * exception message, which for watchdog failures carries the per-core
 * diagnostic snapshot) and the exception itself so an aborting sweep
 * can rethrow with full fidelity.
 */
template <typename T>
struct JobOutcome
{
    JobStatus status = JobStatus::Ok;
    T value{};
    /** what() of the failure; empty when ok. */
    std::string error;
    /** The captured exception; null when ok. */
    std::exception_ptr exception;

    bool ok() const { return status == JobStatus::Ok; }
};

/**
 * Thread-safe completed/total progress line on stderr. Workers call
 * settled() as jobs settle (in any order, from any thread); the
 * reporter redraws a single `\r`-terminated line under a mutex and
 * finish() settles it with a newline — reporting
 * "done/total (k failed)" when any job failed, so an abandoned
 * progress line can never masquerade as a clean sweep. Construction
 * with total == 0 or quiet == true suppresses all output.
 */
class ProgressReporter
{
  public:
    ProgressReporter(std::string label, std::size_t total,
                     bool quiet = false);

    /** Count one settled job and redraw. Every non-ok status is a
     * failure (the line still advances: failures are settled jobs,
     * not missing ones); an isCrash status is also surfaced
     * separately, since a dying child is operationally louder than
     * a clean in-process error. */
    void settled(JobStatus status);

    /** Print the closing "done" line (idempotent). */
    void finish();

    /** Jobs reported successfully finished so far. */
    std::size_t done() const;

    /** Jobs reported failed so far (crashes included). */
    std::size_t failures() const;

    /** The crashed/timed-out subset of failures(). */
    std::size_t crashes() const;

  private:
    void redraw();

    mutable std::mutex mutex_;
    std::string label_;
    std::size_t total_;
    std::size_t done_ = 0;
    std::size_t failed_ = 0;
    std::size_t crashed_ = 0;
    bool quiet_;
    bool finished_ = false;
};

/**
 * N worker threads, each on its own Chrome-trace track ("worker k"
 * on the host process), that run every job index claim() hands out
 * until it returns none. claim() is called concurrently from every
 * worker and may block (the daemon waits on its queue); it must do
 * its own synchronization. This is the only code that starts job
 * worker threads: runParallelOutcomes claims from an atomic cursor
 * over its job vector, nuca_sweepd from its fair-share queue.
 */
class WorkerPool
{
  public:
    /** The next job index, or nullopt to retire the calling worker. */
    using Claim = std::function<std::optional<std::size_t>()>;
    /** Run the claimed job @p index on trace track @p track. */
    using Run = std::function<void(std::size_t index, int track)>;

    WorkerPool(unsigned workers, Claim claim, Run run);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Wait until every worker has retired (idempotent). */
    void join();

  private:
    std::vector<std::thread> threads_;
};

/**
 * The one settle path of every executor: run @p attempt once and
 * classify any failure (classifyFailure). Around the attempt it
 * opens the "job <id>" span on trace track @p track and the
 * profiler's Job phase; a failure leaves a "job <id> <status>"
 * instant inside the span, and every terminal outcome counts toward
 * jobs_finished (crash-class ones toward job_crashes too).
 *
 * A job runs once. Every job is a pure function of its inputs, so
 * re-running a failure in place would fail again; a preempted daemon
 * job is requeued by the scheduler, and a failed sweep job is re-run
 * by REPRO_RESUME=1.
 */
template <typename Result, typename Attempt>
JobOutcome<Result>
settleJob(std::uint64_t id, int track, Attempt &&attempt)
{
    JobOutcome<Result> outcome;
    TraceEventLog &log = TraceEventLog::global();
    {
        const std::string name =
            log.enabled() ? "job " + std::to_string(id) : std::string();
        TraceEventLog::Span span(log, TraceEventLog::kHostPid, track,
                                 name);
        prof::Scope profJob(prof::Phase::Job);
        try {
            outcome.value = attempt();
        } catch (...) {
            outcome.exception = std::current_exception();
            outcome.status = classifyFailure(outcome.exception);
            outcome.error = failureMessage(outcome.exception);
            if (!name.empty()) {
                // Marks how the job settled, not just that it ran.
                log.instant(
                    TraceEventLog::kHostPid, track,
                    name + " " + to_string(outcome.status),
                    log.nowUs(),
                    json::Value::object()
                        .set("status",
                             std::string(to_string(outcome.status)))
                        .set("error", outcome.error));
            }
        }
    }
    if (isTerminal(outcome.status))
        prof::add(prof::Counter::JobsFinished, 1);
    if (isCrash(outcome.status))
        prof::add(prof::Counter::JobCrashes, 1);
    return outcome;
}

/**
 * Run fn(jobs[i]) for every job on a WorkerPool of @p num_threads
 * workers and settle every job into a JobOutcome in submission
 * order: outcomes[i] always corresponds to jobs[i] regardless of
 * which worker ran it or when.
 *
 * Failures never unwind the pool. Under FailPolicy::Abort the first
 * failure raises a stop flag checked at claim time, so in-flight
 * jobs finish but no new work starts (their completed results are
 * still returned). Under Skip the failure is recorded and the sweep
 * continues.
 *
 * @p on_outcome, when provided, is invoked once per settled job
 * (serialized under a mutex, from worker threads) with the job's
 * submission index — the hook the crash-safe results sidecar hangs
 * off.
 *
 * @return the outcomes, resized to jobs.size(). Jobs skipped because
 * an abort stopped the sweep early are left with status Failed and
 * error "not attempted (sweep aborted)".
 */
template <typename Job, typename Fn>
auto
runParallelOutcomes(
    const std::vector<Job> &jobs, Fn fn, unsigned num_threads,
    ProgressReporter *progress = nullptr,
    const SweepPolicy &policy = SweepPolicy{},
    const std::function<void(
        std::size_t,
        const JobOutcome<std::invoke_result_t<Fn &, const Job &>> &)>
        &on_outcome = {})
    -> std::vector<JobOutcome<std::invoke_result_t<Fn &, const Job &>>>
{
    using Result = std::invoke_result_t<Fn &, const Job &>;
    std::vector<JobOutcome<Result>> outcomes(jobs.size());
    // char, not bool: vector<bool> packs eight flags per byte, so
    // two workers settling neighbouring jobs would race on the
    // shared word. One byte per flag keeps the slots disjoint; the
    // join below orders the writes before the fix-up read loop.
    std::vector<char> attempted(jobs.size(), 0);

    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex outcome_mutex;

    // The job queue: a shared cursor over the submission-ordered job
    // vector. Workers claim the next unclaimed index and write only
    // their own outcome slot, so no two threads ever touch the same
    // element. The stop flag is checked at claim time: once a
    // failure aborts the sweep, the leftover jobs are not burned
    // through just to be discarded. A graceful SIGINT/SIGTERM
    // behaves like an abort: in-flight jobs finish, nothing new is
    // claimed.
    const auto claim = [&]() -> std::optional<std::size_t> {
        if (stop.load(std::memory_order_relaxed) ||
            sweepInterruptRequested())
            return std::nullopt;
        const std::size_t i =
            next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size())
            return std::nullopt;
        return i;
    };
    const auto run = [&](std::size_t i, int track) {
        attempted[i] = 1;
        outcomes[i] = settleJob<Result>(
            i, track, [&] { return fn(jobs[i]); });
        if (!outcomes[i].ok() && policy.onFail == FailPolicy::Abort)
            stop.store(true, std::memory_order_relaxed);
        if (progress)
            progress->settled(outcomes[i].status);
        if (on_outcome) {
            std::lock_guard<std::mutex> guard(outcome_mutex);
            on_outcome(i, outcomes[i]);
        }
    };
    WorkerPool(static_cast<unsigned>(std::min<std::size_t>(
                   std::max(num_threads, 1u), jobs.size())),
               claim, run)
        .join();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!attempted[i]) {
            if (sweepInterruptRequested()) {
                outcomes[i].status = JobStatus::Interrupted;
                outcomes[i].error =
                    "not attempted (sweep interrupted by signal)";
            } else {
                outcomes[i].status = JobStatus::Failed;
                outcomes[i].error = "not attempted (sweep aborted)";
            }
        }
    }
    return outcomes;
}

} // namespace nuca

#endif // NUCA_SIM_PARALLEL_RUNNER_HH
