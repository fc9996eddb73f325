/**
 * @file
 * Tests for the spawn primitive of the job sandbox: configuration
 * parsing, the transparent clean path (results and typed failures
 * cross the settlement pipe unchanged), and crash/timeout
 * classification — a child that aborts, exits, or wedges must settle
 * as a typed exception in the parent, never take the test process
 * down. The children here are plain shell commands; the job runner's
 * own cases (a segfault, memory exhaustion, a racing preempt) are in
 * tests/service/job_runner_test.cc.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sim/env_config.hh"
#include "sim/proc_pool.hh"
#include "sim/robustness.hh"

namespace nuca {
namespace {

using ::testing::ExitedWithCode;

void
clearIsolationKnobs()
{
    ::unsetenv("REPRO_ISOLATE");
    ::unsetenv("REPRO_JOB_MEM_MB");
    ::unsetenv("REPRO_JOB_CPU_S");
    ::unsetenv("REPRO_JOB_TIMEOUT_S");
    ::unsetenv("REPRO_JOB_GRACE_MS");
}

class ProcIsolationEnv : public ::testing::Test
{
  protected:
    void SetUp() override { clearIsolationKnobs(); }
    void TearDown() override { clearIsolationKnobs(); }
};

TEST_F(ProcIsolationEnv, DefaultsToDisabled)
{
    const auto iso = isolationFromEnv();
    EXPECT_FALSE(iso.enabled);
    EXPECT_EQ(iso.memMb, 0u);
    EXPECT_EQ(iso.cpuS, 0u);
    EXPECT_EQ(iso.timeoutS, 0u);
    EXPECT_EQ(iso.graceMs, 2000u);
}

TEST_F(ProcIsolationEnv, ParsesModeAndLimits)
{
    ::setenv("REPRO_ISOLATE", "proc", 1);
    ::setenv("REPRO_JOB_MEM_MB", "512", 1);
    ::setenv("REPRO_JOB_CPU_S", "30", 1);
    ::setenv("REPRO_JOB_TIMEOUT_S", "60", 1);
    ::setenv("REPRO_JOB_GRACE_MS", "250", 1);
    const auto iso = isolationFromEnv();
    EXPECT_TRUE(iso.enabled);
    EXPECT_EQ(iso.memMb, 512u);
    EXPECT_EQ(iso.cpuS, 30u);
    EXPECT_EQ(iso.timeoutS, 60u);
    EXPECT_EQ(iso.graceMs, 250u);

    ::setenv("REPRO_ISOLATE", "off", 1);
    EXPECT_FALSE(isolationFromEnv().enabled);
}

TEST_F(ProcIsolationEnv, RejectsUnknownMode)
{
    ::setenv("REPRO_ISOLATE", "container", 1);
    EXPECT_EXIT(isolationFromEnv(), ExitedWithCode(1),
                "REPRO_ISOLATE");
}

TEST(ProcPoolSignals, DescribeSignalNamesTheUsualSuspects)
{
    EXPECT_NE(describeSignal(SIGSEGV).find("SIGSEGV"),
              std::string::npos);
    EXPECT_NE(describeSignal(SIGABRT).find("SIGABRT"),
              std::string::npos);
    // An OOM-killed child arrives as SIGKILL; the description must
    // point the user at that explanation.
    EXPECT_NE(describeSignal(SIGKILL).find("OOM"),
              std::string::npos);
    EXPECT_NE(describeSignal(250).find("250"), std::string::npos);
}

MixResult
fakeResult()
{
    MixResult result;
    result.ipc = {1.5, 0.125, 2.0 / 3.0, 0.1};
    result.l3AccessesPerKilocycle = {7.25, 8.0, 9.5, 0.3};
    result.l1dMissRatio = {0.1, 0.2, 0.3, 0.4};
    result.l2dMissRatio = {0.5, 0.25, 0.125, 1.0 / 3.0};
    result.l3MissRatio = {0.0, 0.75, 1.0, 0.1 + 0.2};
    result.mispredictRate = {0.05, 0.01, 0.02, 0.0};
    return result;
}

/** runSandboxed of `/bin/sh -c script` under @p iso. */
MixResult
shell(const std::string &script, const ProcIsolation &iso = {},
      const std::string &request = "")
{
    return runSandboxed(iso, {"/bin/sh", "-c", script}, request);
}

/** A child that settles as @p job would: it echoes the settlement
 *  line, handed over as its request, to its settlement pipe. */
MixResult
settledAs(const std::function<MixResult()> &job)
{
    return shell("cat >&3", {}, settlementLine(job));
}

TEST(ProcPoolSandbox, CleanResultRoundTripsExactly)
{
    const auto result = settledAs(fakeResult);
    // Exact double equality: the pipe codec must round-trip every
    // bit, or proc-isolated REPRO_JSON drifts from in-process.
    EXPECT_EQ(result.ipc, fakeResult().ipc);
    EXPECT_EQ(result.l3AccessesPerKilocycle,
              fakeResult().l3AccessesPerKilocycle);
}

TEST(ProcPoolSandbox, TypedFailuresCrossThePipe)
{
    EXPECT_THROW(settledAs([]() -> MixResult {
                     throw SimulationStalled("wedged at cycle 42");
                 }),
                 SimulationStalled);
    EXPECT_THROW(settledAs([]() -> MixResult {
                     throw CycleBudgetExceeded("budget");
                 }),
                 CycleBudgetExceeded);
    try {
        settledAs([]() -> MixResult {
            throw SimulationError("plain failure text");
        });
        FAIL() << "expected SimulationError";
    } catch (const JobCrashed &) {
        FAIL() << "clean failure misclassified as crash";
    } catch (const SimulationError &e) {
        EXPECT_NE(std::string(e.what()).find("plain failure text"),
                  std::string::npos);
    }
}

TEST(ProcPoolSandbox, RequestLargerThanAnyPipeReachesTheChild)
{
    // The whole request is written before the child exists. A daemon
    // accepts request lines (and so labels) up to 1 MiB; 4 MiB is
    // past both that and how far an unprivileged process may grow a
    // pipe (pipe-max-size, 1 MiB by default).
    const std::string message(4 * 1024 * 1024, 'x');
    try {
        settledAs([&]() -> MixResult { throw SimulationError(message); });
        FAIL() << "expected SimulationError";
    } catch (const JobCrashed &e) {
        FAIL() << e.what();
    } catch (const SimulationError &e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos);
    }
}

TEST(ProcPoolSandbox, AbortBecomesJobCrashed)
{
    try {
        shell("kill -ABRT $$");
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("SIGABRT"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, NonzeroExitBecomesJobCrashed)
{
    try {
        shell("exit 3"); // dies without writing the pipe
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("status 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, CleanExitWithoutResultBecomesJobCrashed)
{
    try {
        // "Succeeds" but ships nothing.
        runSandboxed(ProcIsolation{}, {"/bin/true"}, "");
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("no parsable result"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, SpawnFailureBecomesJobCrashed)
{
    // A runner that cannot be spawned is a crashed attempt naming
    // the errno, never a job run without its sandbox.
    try {
        runSandboxed(ProcIsolation{}, {"/nonexistent/nuca_runner"},
                     "");
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find(std::strerror(ENOENT)),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, WallClockDeadlineBecomesJobTimedOut)
{
    ProcIsolation iso;
    iso.timeoutS = 1;
    iso.graceMs = 200;
    const auto start = std::chrono::steady_clock::now();
    try {
        // A sleeping hang: burns no CPU, so only the parent's
        // wall-clock deadline can catch it.
        shell("exec sleep 60", iso);
        FAIL() << "expected JobTimedOut";
    } catch (const JobTimedOut &e) {
        EXPECT_NE(std::string(e.what()).find("wall-clock"),
                  std::string::npos)
            << e.what();
    }
    // The escalation resolved promptly: deadline + grace + slack,
    // not the child's whole sleep.
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 10000);
}

TEST(ProcPoolSandbox, SiblingSpawnDoesNotHoldAJobsPipe)
{
    // One job settles at once while three siblings, started with it,
    // sleep in their children. Were the pipes inheritable, a sibling
    // spawned between the instant job's pipe2() and its close of the
    // write end would carry that end into its sleeping child, and
    // the instant job would see EOF only when that child exits.
    using Clock = std::chrono::steady_clock;
    constexpr auto slow = std::chrono::milliseconds(300);
    constexpr int siblings = 3;
    const std::string instant = settlementLine(fakeResult);
    int held = 0;
    for (int trial = 0; trial < 10; ++trial) {
        std::barrier start(siblings + 1);
        std::vector<std::thread> slowJobs;
        for (int i = 0; i < siblings; ++i) {
            slowJobs.emplace_back([&] {
                start.arrive_and_wait();
                EXPECT_THROW(shell("exec sleep 0.3"), JobCrashed);
            });
        }
        start.arrive_and_wait();
        const auto begin = Clock::now();
        shell("cat >&3", {}, instant);
        held += Clock::now() - begin >= slow / 2 ? 1 : 0;
        for (std::thread &job : slowJobs)
            job.join();
    }
    EXPECT_EQ(held, 0) << "of 10 instant jobs, " << held
                       << " waited for a sibling's child";
}

} // namespace
} // namespace nuca
