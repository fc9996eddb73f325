/** @file Tests for the deterministic worker pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "sim/env_config.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"

namespace nuca {
namespace {

TEST(ParallelRunner, ResultsArriveInSubmissionOrder)
{
    std::vector<int> jobs(100);
    std::iota(jobs.begin(), jobs.end(), 0);
    for (const unsigned threads : {1u, 2u, 8u}) {
        const auto results = runParallel(
            jobs, [](int i) { return i * i; }, threads);
        ASSERT_EQ(results.size(), jobs.size());
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
    }
}

TEST(ParallelRunner, EveryJobRunsExactlyOnce)
{
    std::vector<int> jobs(257);
    std::iota(jobs.begin(), jobs.end(), 0);
    std::atomic<int> invocations{0};
    const auto results = runParallel(
        jobs,
        [&](int i) {
            invocations.fetch_add(1);
            return i;
        },
        8);
    EXPECT_EQ(invocations.load(), 257);
    for (int i = 0; i < 257; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
}

TEST(ParallelRunner, EmptyJobListReturnsEmpty)
{
    const std::vector<int> jobs;
    const auto results =
        runParallel(jobs, [](int i) { return i; }, 4);
    EXPECT_TRUE(results.empty());
}

TEST(ParallelRunner, MoreThreadsThanJobsIsSafe)
{
    const std::vector<int> jobs = {1, 2};
    const auto results =
        runParallel(jobs, [](int i) { return i + 10; }, 64);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], 11);
    EXPECT_EQ(results[1], 12);
}

TEST(ParallelRunner, ZeroThreadsFallsBackToSerial)
{
    const std::vector<int> jobs = {5};
    const auto results =
        runParallel(jobs, [](int i) { return i; }, 0u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], 5);
}

TEST(ParallelRunner, WorkerExceptionPropagates)
{
    std::vector<int> jobs(16);
    std::iota(jobs.begin(), jobs.end(), 0);
    EXPECT_THROW(
        runParallel(
            jobs,
            [](int i) {
                if (i == 7)
                    throw std::runtime_error("job 7 failed");
                return i;
            },
            4),
        std::runtime_error);
}

TEST(ParallelRunner, ProgressCountsEveryCompletion)
{
    std::vector<int> jobs(40);
    std::iota(jobs.begin(), jobs.end(), 0);
    ProgressReporter progress("test", jobs.size(), /*quiet=*/true);
    runParallel(jobs, [](int i) { return i; }, 4, &progress);
    EXPECT_EQ(progress.done(), 40u);
    progress.finish();
}

TEST(ParallelRunner, JobsFromEnvReadsOverride)
{
    ::setenv("REPRO_JOBS", "3", 1);
    EXPECT_EQ(jobsFromEnv(), 3u);
    ::unsetenv("REPRO_JOBS");
    // Unset (and explicit 0) fall back to the hardware; the exact
    // value is machine-dependent but never zero.
    EXPECT_GE(jobsFromEnv(), 1u);
    ::setenv("REPRO_JOBS", "0", 1);
    EXPECT_GE(jobsFromEnv(), 1u);
    ::unsetenv("REPRO_JOBS");
}

TEST(ParallelRunnerOutcomes, SkipPolicyRecordsFailureAndContinues)
{
    std::vector<int> jobs(20);
    std::iota(jobs.begin(), jobs.end(), 0);
    SweepPolicy policy;
    policy.onFail = FailPolicy::Skip;
    const auto outcomes = runParallelOutcomes(
        jobs,
        [](int i) {
            if (i == 7)
                throw std::runtime_error("job 7 failed");
            return i * 10;
        },
        4, nullptr, policy);
    ASSERT_EQ(outcomes.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        const auto &outcome =
            outcomes[static_cast<std::size_t>(i)];
        if (i == 7) {
            EXPECT_EQ(outcome.status, JobStatus::Failed);
            EXPECT_EQ(outcome.error, "job 7 failed");
            EXPECT_NE(outcome.exception, nullptr);
        } else {
            EXPECT_TRUE(outcome.ok()) << "job " << i;
            EXPECT_EQ(outcome.value, i * 10);
            EXPECT_TRUE(outcome.error.empty());
        }
    }
}

TEST(ParallelRunnerOutcomes, ClassifiesSimulationFailureKinds)
{
    const std::vector<int> jobs = {0, 1, 2, 3};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Skip;
    const auto outcomes = runParallelOutcomes(
        jobs,
        [](int i) -> int {
            switch (i) {
              case 1:
                throw SimulationStalled("wedged");
              case 2:
                throw CycleBudgetExceeded("budget");
              case 3:
                throw std::logic_error("plain");
              default:
                return i;
            }
        },
        1, nullptr, policy);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].status, JobStatus::Stalled);
    EXPECT_EQ(outcomes[2].status, JobStatus::OverBudget);
    EXPECT_EQ(outcomes[3].status, JobStatus::Failed);
    EXPECT_STREQ(to_string(outcomes[1].status), "stalled");
    EXPECT_STREQ(to_string(outcomes[2].status), "over_budget");
}

TEST(ParallelRunnerOutcomes, RetryPolicyRerunsUntilSuccess)
{
    const std::vector<int> jobs = {0};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Retry;
    policy.retries = 3;
    policy.backoffMs = 0;
    std::atomic<int> attempts{0};
    const auto outcomes = runParallelOutcomes(
        jobs,
        [&](int) {
            // Fails twice, then succeeds: a flaky job a retry
            // budget of 3 must absorb.
            if (attempts.fetch_add(1) < 2)
                throw std::runtime_error("transient");
            return 99;
        },
        1, nullptr, policy);
    EXPECT_EQ(attempts.load(), 3);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].value, 99);
}

TEST(ParallelRunnerOutcomes, RetryBudgetExhaustionSettlesFailed)
{
    const std::vector<int> jobs = {0};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Retry;
    policy.retries = 2;
    policy.backoffMs = 0;
    std::atomic<int> attempts{0};
    const auto outcomes = runParallelOutcomes(
        jobs,
        [&](int) -> int {
            attempts.fetch_add(1);
            throw std::runtime_error("permanent");
        },
        1, nullptr, policy);
    // 1 initial attempt + 2 retries.
    EXPECT_EQ(attempts.load(), 3);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    // The settled error keeps the original message and says how
    // much retrying it survived.
    EXPECT_NE(outcomes[0].error.find("permanent"),
              std::string::npos);
    EXPECT_NE(outcomes[0].error.find("after 3 attempts"),
              std::string::npos);
}

TEST(ParallelRunnerOutcomes, OverBudgetIsNotRetried)
{
    // CycleBudgetExceeded is deterministic: the same budget runs out
    // at the same cycle, so the retry loop must settle immediately
    // instead of burning its whole budget re-proving it.
    const std::vector<int> jobs = {0};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Retry;
    policy.retries = 5;
    policy.backoffMs = 0;
    std::atomic<int> attempts{0};
    const auto outcomes = runParallelOutcomes(
        jobs,
        [&](int) -> int {
            attempts.fetch_add(1);
            throw CycleBudgetExceeded("budget gone");
        },
        1, nullptr, policy);
    EXPECT_EQ(attempts.load(), 1);
    EXPECT_EQ(outcomes[0].status, JobStatus::OverBudget);
    EXPECT_NE(outcomes[0].error.find("budget gone"),
              std::string::npos);
    EXPECT_NE(outcomes[0].error.find("not retryable"),
              std::string::npos);
}

TEST(ParallelRunnerOutcomes, RepeatedCrashesQuarantineTheJob)
{
    // A poison job that kills its child on every attempt must stop
    // retrying at the quarantine threshold, not the retry budget.
    const std::vector<int> jobs = {0};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Retry;
    policy.retries = 10;
    policy.backoffMs = 0;
    policy.maxCrashes = 2;
    std::atomic<int> attempts{0};
    const auto outcomes = runParallelOutcomes(
        jobs,
        [&](int) -> int {
            attempts.fetch_add(1);
            throw JobCrashed("child died");
        },
        1, nullptr, policy);
    EXPECT_EQ(attempts.load(), 2);
    EXPECT_EQ(outcomes[0].status, JobStatus::Quarantined);
    EXPECT_NE(outcomes[0].error.find("quarantined after 2"),
              std::string::npos);
    EXPECT_NE(outcomes[0].error.find("child died"),
              std::string::npos);
}

TEST(ParallelRunnerOutcomes, QuarantineDisabledHonorsRetryBudget)
{
    const std::vector<int> jobs = {0};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Retry;
    policy.retries = 3;
    policy.backoffMs = 0;
    policy.maxCrashes = 0; // REPRO_QUARANTINE=0
    std::atomic<int> attempts{0};
    const auto outcomes = runParallelOutcomes(
        jobs,
        [&](int) -> int {
            attempts.fetch_add(1);
            throw JobTimedOut("deadline");
        },
        1, nullptr, policy);
    EXPECT_EQ(attempts.load(), 4);
    EXPECT_EQ(outcomes[0].status, JobStatus::TimedOut);
}

TEST(ParallelRunnerOutcomes, ClassifiesCrashAndTimeoutKinds)
{
    const std::vector<int> jobs = {0, 1};
    SweepPolicy policy;
    policy.onFail = FailPolicy::Skip;
    const auto outcomes = runParallelOutcomes(
        jobs,
        [](int i) -> int {
            if (i == 0)
                throw JobCrashed("SIGSEGV");
            throw JobTimedOut("deadline");
        },
        1, nullptr, policy);
    EXPECT_EQ(outcomes[0].status, JobStatus::Crashed);
    EXPECT_EQ(outcomes[1].status, JobStatus::TimedOut);
    EXPECT_STREQ(to_string(outcomes[0].status), "crashed");
    EXPECT_STREQ(to_string(outcomes[1].status), "timed_out");
    EXPECT_STREQ(to_string(JobStatus::Quarantined), "quarantined");
}

TEST(ParallelRunnerOutcomes, RethrowAsInvertsClassifyFailure)
{
    // The sandbox ships a status name and rebuilds the exception in
    // the parent; every status the classifier produces must survive
    // that round trip with its message intact.
    for (const JobStatus status :
         {JobStatus::Failed, JobStatus::Stalled, JobStatus::OverBudget,
          JobStatus::Crashed, JobStatus::TimedOut,
          JobStatus::Preempted}) {
        std::exception_ptr failure;
        try {
            rethrowAs(status, "why");
        } catch (...) {
            failure = std::current_exception();
        }
        EXPECT_EQ(classifyFailure(failure), status) << to_string(status);
        EXPECT_EQ(failureMessage(failure), "why");
    }
    EXPECT_EQ(classifyFailure(std::make_exception_ptr(42)),
              JobStatus::Failed);
    EXPECT_EQ(failureMessage(std::make_exception_ptr(42)),
              "unknown exception");
}

TEST(ParallelRunnerOutcomes, BackoffScheduleIsDeterministic)
{
    SweepPolicy policy;
    policy.backoffMs = 100;
    // Same (job, attempt) -> same delay, on every call.
    for (unsigned attempt = 1; attempt <= 5; ++attempt) {
        EXPECT_EQ(retryBackoffMs(policy, 3, attempt),
                  retryBackoffMs(policy, 3, attempt));
    }
    // Exponential envelope: attempt k's delay lives in
    // [base * 2^(k-1), 1.5 * base * 2^(k-1)] until the 30 s cap.
    for (unsigned attempt = 1; attempt <= 5; ++attempt) {
        const unsigned base = 100u << (attempt - 1);
        const unsigned delay = retryBackoffMs(policy, 7, attempt);
        EXPECT_GE(delay, base) << "attempt " << attempt;
        EXPECT_LE(delay, base + base / 2) << "attempt " << attempt;
    }
    // Different jobs jitter differently somewhere in the schedule
    // (equal-by-chance for one attempt is fine; all five is not).
    bool anyDiffer = false;
    for (unsigned attempt = 1; attempt <= 5; ++attempt) {
        anyDiffer |= retryBackoffMs(policy, 1, attempt) !=
                     retryBackoffMs(policy, 2, attempt);
    }
    EXPECT_TRUE(anyDiffer);
    // The cap holds even for absurd attempt counts.
    EXPECT_LE(retryBackoffMs(policy, 0, 64), 30000u);
    // Disabled backoff sleeps nowhere.
    policy.backoffMs = 0;
    EXPECT_EQ(retryBackoffMs(policy, 5, 3), 0u);
}

TEST(ParallelRunnerProgress, ConcurrentAccountingIsExact)
{
    // 8 threads hammer settled() with ok/failed/crashed concurrently;
    // the final accounting must balance exactly: done + failures ==
    // total, crashes <= failures.
    constexpr std::size_t kPerThread = 500;
    constexpr unsigned kThreads = 8;
    ProgressReporter progress("hammer", kPerThread * kThreads,
                              /*quiet=*/true);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&progress, t]() {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                const JobStatus kinds[] = {JobStatus::Ok,
                                           JobStatus::Failed,
                                           JobStatus::Crashed};
                progress.settled(kinds[(i + t) % 3]);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(progress.done() + progress.failures(),
              kPerThread * kThreads);
    EXPECT_LE(progress.crashes(), progress.failures());
    EXPECT_GT(progress.crashes(), 0u);
    progress.finish();
}

TEST(ParallelRunnerOutcomes, AbortStopsClaimingAfterFailure)
{
    // Serial pool: job 3 fails, so jobs 4..9 must never be claimed.
    std::vector<int> jobs(10);
    std::iota(jobs.begin(), jobs.end(), 0);
    std::atomic<int> ran{0};
    const auto outcomes = runParallelOutcomes(
        jobs,
        [&](int i) {
            ran.fetch_add(1);
            if (i == 3)
                throw std::runtime_error("abort here");
            return i;
        },
        1);
    EXPECT_EQ(ran.load(), 4);
    EXPECT_EQ(outcomes[3].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[3].error, "abort here");
    for (std::size_t i = 4; i < 10; ++i) {
        EXPECT_EQ(outcomes[i].status, JobStatus::Failed);
        EXPECT_EQ(outcomes[i].error,
                  "not attempted (sweep aborted)");
        EXPECT_EQ(outcomes[i].exception, nullptr);
    }
}

TEST(ParallelRunnerOutcomes, OnOutcomeSeesEverySettledJob)
{
    std::vector<int> jobs(30);
    std::iota(jobs.begin(), jobs.end(), 0);
    SweepPolicy policy;
    policy.onFail = FailPolicy::Skip;
    std::vector<bool> seen(jobs.size(), false);
    std::size_t failures = 0;
    const auto outcomes = runParallelOutcomes(
        jobs,
        [](int i) {
            if (i % 7 == 0)
                throw std::runtime_error("multiple of seven");
            return i;
        },
        4, nullptr, policy,
        [&](std::size_t i, const JobOutcome<int> &outcome) {
            // Serialized under the runner's mutex, so plain writes
            // are safe here.
            seen[i] = true;
            if (!outcome.ok())
                ++failures;
        });
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(seen[i]) << "job " << i;
    EXPECT_EQ(failures, 5u); // 0, 7, 14, 21, 28
    EXPECT_EQ(outcomes.size(), 30u);
}

TEST(ParallelRunnerProgress, FailuresAreCountedSeparately)
{
    std::vector<int> jobs(12);
    std::iota(jobs.begin(), jobs.end(), 0);
    SweepPolicy policy;
    policy.onFail = FailPolicy::Skip;
    ProgressReporter progress("test", jobs.size(), /*quiet=*/true);
    runParallelOutcomes(
        jobs,
        [](int i) {
            if (i % 2 == 0)
                throw std::runtime_error("even");
            return i;
        },
        4, &progress, policy);
    // A failed job advances the failure count, not the done count:
    // the final line must read 12/12 (6 failed), never 6/12.
    EXPECT_EQ(progress.done(), 6u);
    EXPECT_EQ(progress.failures(), 6u);
    progress.finish();
}

// The core determinism guarantee at the experiment level: the same
// (config, mix) jobs produce bit-identical MixResults regardless of
// the pool size, because every job owns its CmpSystem and its seed.
TEST(ParallelRunner, RunMixIsBitIdenticalAcrossPoolSizes)
{
    const SimWindow window{2000, 8000};
    const auto mixes =
        makeMixes({"mcf", "gzip", "ammp", "art"}, 4, 4, 77);
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);

    const auto reference = runParallel(
        mixes,
        [&](const ExperimentSpec &mix) {
            return runMix(config, mix, window);
        },
        1);
    for (const unsigned threads : {2u, 8u}) {
        const auto results = runParallel(
            mixes,
            [&](const ExperimentSpec &mix) {
                return runMix(config, mix, window);
            },
            threads);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t m = 0; m < results.size(); ++m) {
            // Exact equality, not tolerance: the parallel path must
            // reproduce the serial path bit for bit.
            EXPECT_EQ(results[m].ipc, reference[m].ipc)
                << "mix " << m << ", " << threads << " threads";
            EXPECT_EQ(results[m].l3AccessesPerKilocycle,
                      reference[m].l3AccessesPerKilocycle)
                << "mix " << m << ", " << threads << " threads";
        }
    }
}

} // namespace
} // namespace nuca
