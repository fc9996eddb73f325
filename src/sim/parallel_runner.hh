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
 * The pool size comes from the REPRO_JOBS environment variable and
 * defaults to std::thread::hardware_concurrency(); REPRO_JOBS=1
 * degenerates to an inline serial loop with no threads spawned.
 *
 * Failure handling is the sweep supervisor's job: every job settles
 * into a JobOutcome (ok / failed / stalled / over_budget) instead of
 * an exception unwinding the pool and discarding completed siblings.
 * The SweepPolicy (REPRO_FAIL) decides whether a failure stops the
 * sweep (abort — workers stop claiming jobs at the next boundary),
 * leaves a recorded hole (skip), or re-runs the job (retry:N).
 */

#ifndef NUCA_SIM_PARALLEL_RUNNER_HH
#define NUCA_SIM_PARALLEL_RUNNER_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
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
 * Worker count for experiment sweeps: REPRO_JOBS if set and nonzero,
 * otherwise hardware_concurrency() (or 1 where that is unknown).
 */
unsigned jobsFromEnv();

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

    /** The crashed/timed-out/quarantined subset of failures(). */
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

namespace parallel_detail {

/** Sleep for a retry backoff (out-of-line; no-op for 0 ms). */
void backoffSleep(unsigned delay_ms);

/**
 * Run one job, classify any failure (classifyFailure), honor the
 * retry budget. The service daemon settles each attempt here too,
 * with a default (single-attempt) policy.
 *
 * The retry loop is hardened three ways. Non-retryable outcomes
 * (isRetryable) settle immediately instead of burning the budget on
 * a deterministic failure. Attempts are separated by exponential
 * backoff with seeded jitter (retryBackoffMs) so a transient
 * environmental failure isn't hammered. And crashes (child death or
 * timeout under process isolation) are counted against the
 * policy.maxCrashes quarantine threshold: a poison job that keeps
 * killing its child settles Quarantined after that many crashes, so
 * one bad point cannot consume the whole pool's retry time.
 * Every multi-attempt settlement annotates the error text with the
 * attempt count.
 */
template <typename Result, typename Job, typename Fn>
JobOutcome<Result>
settleJob(const Job &job, std::size_t index, Fn &fn,
          const SweepPolicy &policy)
{
    JobOutcome<Result> outcome;
    const unsigned attempts =
        policy.onFail == FailPolicy::Retry ? policy.retries + 1 : 1;
    unsigned attempt = 0;
    unsigned crashes = 0;
    for (;;) {
        ++attempt;
        try {
            outcome.value = fn(job);
            outcome.status = JobStatus::Ok;
            outcome.error.clear();
            outcome.exception = nullptr;
            return outcome;
        } catch (...) {
            outcome.exception = std::current_exception();
        }
        outcome.status = classifyFailure(outcome.exception);
        outcome.error = failureMessage(outcome.exception);

        // Not a failure: the job yielded at a snapshot boundary on
        // request. Settle immediately — rerunning it here would
        // defeat the point of asking it to stop — and let the caller
        // (the daemon's scheduler, or a resumed sweep) decide when
        // it continues.
        if (outcome.status == JobStatus::Preempted)
            return outcome;
        if (isCrash(outcome.status))
            ++crashes;

        if (!isRetryable(outcome.status)) {
            if (attempts > 1) {
                outcome.error += " [attempt " +
                                 std::to_string(attempt) + " of " +
                                 std::to_string(attempts) + "; " +
                                 to_string(outcome.status) +
                                 " is not retryable]";
            }
            return outcome;
        }
        if (policy.onFail == FailPolicy::Retry &&
            policy.maxCrashes != 0 && crashes >= policy.maxCrashes) {
            outcome.error = "quarantined after " +
                            std::to_string(crashes) +
                            " crashed attempt(s): " + outcome.error;
            outcome.status = JobStatus::Quarantined;
            return outcome;
        }
        if (attempt >= attempts) {
            if (attempt > 1) {
                outcome.error += " [after " +
                                 std::to_string(attempt) +
                                 " attempts]";
            }
            return outcome;
        }
        prof::add(prof::Counter::JobRetries, 1);
        backoffSleep(retryBackoffMs(policy, index, attempt));
    }
}

} // namespace parallel_detail

/**
 * Run fn(jobs[i]) for every job on a pool of @p num_threads workers
 * and settle every job into a JobOutcome in submission order:
 * outcomes[i] always corresponds to jobs[i] regardless of which
 * worker ran it or when.
 *
 * Failures never unwind the pool. Under FailPolicy::Abort the first
 * failure raises a stop flag checked at claim time, so in-flight
 * jobs finish but no new work starts (their completed results are
 * still returned). Under Skip the failure is recorded and the sweep
 * continues; under Retry the job is re-run up to policy.retries
 * extra times first.
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
    // joins below order the writes before the fix-up read loop.
    std::vector<char> attempted(jobs.size(), 0);

    const std::size_t workers =
        std::min<std::size_t>(num_threads == 0 ? 1 : num_threads,
                              jobs.size());

    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex outcome_mutex;

    auto settleInto = [&](std::size_t i, int trace_tid) {
        attempted[i] = 1;
        {
            // Each job is one host-track span (and one profiler Job
            // phase), so a sweep's wall-clock decomposes per job in
            // the exported trace. Worker threads get distinct tids so
            // concurrent spans land on separate tracks.
            TraceEventLog &log = TraceEventLog::global();
            std::string span_name;
            if (log.enabled())
                span_name = "job " + std::to_string(i);
            TraceEventLog::Span span(log, TraceEventLog::kHostPid,
                                     trace_tid,
                                     std::move(span_name));
            prof::Scope profJob(prof::Phase::Job);
            outcomes[i] = parallel_detail::settleJob<Result>(
                jobs[i], i, fn, policy);
            if (!outcomes[i].ok() && log.enabled()) {
                // Mark the failure inside the job's span so the
                // trace shows *how* each red job settled, not just
                // that it ran.
                log.instant(
                    TraceEventLog::kHostPid, trace_tid,
                    "job " + std::to_string(i) + " " +
                        to_string(outcomes[i].status),
                    log.nowUs(),
                    json::Value::object()
                        .set("status",
                             std::string(
                                 to_string(outcomes[i].status)))
                        .set("error", outcomes[i].error));
            }
        }
        prof::add(prof::Counter::JobsFinished, 1);
        if (isCrash(outcomes[i].status))
            prof::add(prof::Counter::JobCrashes, 1);
        if (!outcomes[i].ok() && policy.onFail == FailPolicy::Abort)
            stop.store(true, std::memory_order_relaxed);
        if (progress)
            progress->settled(outcomes[i].status);
        if (on_outcome) {
            std::lock_guard<std::mutex> guard(outcome_mutex);
            on_outcome(i, outcomes[i]);
        }
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (stop.load(std::memory_order_relaxed) ||
                sweepInterruptRequested())
                break;
            settleInto(i, 0);
        }
    } else {
        // The job queue: a shared cursor over the submission-ordered
        // job vector. Workers claim the next unclaimed index and
        // write only their own outcome slot, so no two threads ever
        // touch the same element. The stop flag is checked at claim
        // time: once a failure aborts the sweep, the leftover jobs
        // are not burned through just to be discarded.
        auto worker = [&](int trace_tid) {
            for (;;) {
                // A graceful SIGINT/SIGTERM behaves like an abort:
                // in-flight jobs finish, nothing new is claimed.
                if (stop.load(std::memory_order_relaxed) ||
                    sweepInterruptRequested())
                    return;
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                settleInto(i, trace_tid);
            }
        };

        TraceEventLog &log = TraceEventLog::global();
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t) {
            const int trace_tid =
                log.enabled()
                    ? log.newThread(TraceEventLog::kHostPid,
                                    "worker " + std::to_string(t))
                    : static_cast<int>(t);
            threads.emplace_back(worker, trace_tid);
        }
        for (auto &thread : threads)
            thread.join();
    }

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

/**
 * Run fn(jobs[i]) for every job and return the bare results in
 * submission order; the first failure (after the pool drains — the
 * stop flag keeps the leftover jobs unclaimed) is rethrown. This is
 * the pre-supervisor contract, kept for callers whose jobs cannot
 * fail in normal operation; sweeps that must survive bad points go
 * through runParallelOutcomes.
 *
 * @p fn must be safe to invoke concurrently from multiple threads
 * (the experiment harness guarantees this: runMix touches only its
 * own CmpSystem). Its result type must be default-constructible.
 * With num_threads <= 1 (or fewer than two jobs) everything runs
 * inline on the calling thread — that path is the serial reference
 * the determinism tests compare against.
 */
template <typename Job, typename Fn>
auto
runParallel(const std::vector<Job> &jobs, Fn fn, unsigned num_threads,
            ProgressReporter *progress = nullptr)
    -> std::vector<std::invoke_result_t<Fn &, const Job &>>
{
    using Result = std::invoke_result_t<Fn &, const Job &>;
    auto outcomes = runParallelOutcomes(jobs, std::move(fn),
                                        num_threads, progress);
    std::vector<Result> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (outcomes[i].exception)
            std::rethrow_exception(outcomes[i].exception);
        results[i] = std::move(outcomes[i].value);
    }
    return results;
}

/** Convenience overload: pool size from REPRO_JOBS / the hardware. */
template <typename Job, typename Fn>
auto
runParallel(const std::vector<Job> &jobs, Fn fn,
            ProgressReporter *progress = nullptr)
{
    return runParallel(jobs, std::move(fn), jobsFromEnv(), progress);
}

} // namespace nuca

#endif // NUCA_SIM_PARALLEL_RUNNER_HH
