/**
 * @file
 * Tests for the fork-per-job sandbox: configuration parsing, the
 * transparent clean path (results and typed failures cross the pipe
 * unchanged), and crash/timeout classification — a child that
 * segfaults, aborts, or wedges must settle as a typed exception in
 * the parent, never take the test process down.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <csignal>
#include <cstdlib>
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
    EXPECT_EQ(iso.enabled, procIsolationSupported());
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

ProcIsolation
enabledIsolation()
{
    ProcIsolation iso;
    iso.enabled = procIsolationSupported();
    return iso;
}

TEST(ProcPoolSandbox, DisabledIsolationRunsInline)
{
    ProcIsolation iso; // disabled
    bool ran = false;
    const auto result = runMixSandboxed(iso, [&]() {
        ran = true; // visible only if body ran in THIS process
        return fakeResult();
    });
    EXPECT_TRUE(ran);
    EXPECT_EQ(result.ipc, fakeResult().ipc);
}

TEST(ProcPoolSandbox, CleanResultRoundTripsExactly)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    const auto result =
        runMixSandboxed(enabledIsolation(), fakeResult);
    // Exact double equality: the pipe codec must round-trip every
    // bit, or proc-isolated REPRO_JSON drifts from in-process.
    EXPECT_EQ(result.ipc, fakeResult().ipc);
    EXPECT_EQ(result.l3AccessesPerKilocycle,
              fakeResult().l3AccessesPerKilocycle);
}

TEST(ProcPoolSandbox, TypedFailuresCrossThePipe)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    const auto iso = enabledIsolation();
    EXPECT_THROW(runMixSandboxed(iso,
                                 []() -> MixResult {
                                     throw SimulationStalled(
                                         "wedged at cycle 42");
                                 }),
                 SimulationStalled);
    EXPECT_THROW(runMixSandboxed(iso,
                                 []() -> MixResult {
                                     throw CycleBudgetExceeded(
                                         "budget");
                                 }),
                 CycleBudgetExceeded);
    try {
        runMixSandboxed(iso, []() -> MixResult {
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

TEST(ProcPoolSandbox, SegfaultBecomesJobCrashed)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    try {
        runMixSandboxed(enabledIsolation(), []() -> MixResult {
            std::raise(SIGSEGV);
            return MixResult{};
        });
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("SIGSEGV"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, AbortBecomesJobCrashed)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    EXPECT_THROW(
        runMixSandboxed(enabledIsolation(),
                        []() -> MixResult { std::abort(); }),
        JobCrashed);
}

TEST(ProcPoolSandbox, NonzeroExitBecomesJobCrashed)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    try {
        runMixSandboxed(enabledIsolation(), []() -> MixResult {
            std::_Exit(9); // dies without writing the pipe
        });
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("status 9"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, CleanExitWithoutResultBecomesJobCrashed)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    try {
        runMixSandboxed(enabledIsolation(), []() -> MixResult {
            std::_Exit(0); // "succeeds" but ships nothing
        });
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("no parsable result"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, WallClockDeadlineBecomesJobTimedOut)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    ProcIsolation iso = enabledIsolation();
    iso.timeoutS = 1;
    iso.graceMs = 200;
    const auto start = std::chrono::steady_clock::now();
    try {
        runMixSandboxed(iso, []() -> MixResult {
            // A sleeping hang: burns no CPU, so only the parent's
            // wall-clock deadline can catch it.
            for (;;)
                std::this_thread::sleep_for(
                    std::chrono::seconds(1));
        });
        FAIL() << "expected JobTimedOut";
    } catch (const JobTimedOut &e) {
        EXPECT_NE(std::string(e.what()).find("wall-clock"),
                  std::string::npos)
            << e.what();
    }
    // The escalation resolved promptly: deadline + grace + slack,
    // not the child's infinite sleep.
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 10000);
}

TEST(ProcPoolSandbox, PreemptRacingTheForkStillYields)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    ProcIsolation iso = enabledIsolation();
    iso.preemptible = true;
    // Raised before the fork: the parent signals the child the
    // moment it exists, before the child has installed its SIGTERM
    // handler. The signal must wait for the handler, not kill it.
    ProcJobHandle handle;
    handle.preempt.store(true);
    EXPECT_THROW(runMixSandboxed(
                     iso,
                     []() -> MixResult {
                         for (int i = 0; i < 10000; ++i) {
                             if (procPreemptSignalled())
                                 throw JobPreempted("yielded");
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                         }
                         return MixResult{};
                     },
                     &handle),
                 JobPreempted);
}

TEST(ProcPoolSandbox, SiblingForkDoesNotHoldAJobsPipe)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    // One job returns at once while three siblings, started with it,
    // sleep in their children. A sibling that forks between the
    // instant job's pipe() and its parent's close of the write end
    // inherits that end, and the instant job then sees EOF only when
    // that sibling's child exits.
    using Clock = std::chrono::steady_clock;
    constexpr auto slow = std::chrono::milliseconds(300);
    constexpr int siblings = 3;
    const ProcIsolation iso = enabledIsolation();
    int held = 0;
    for (int trial = 0; trial < 10; ++trial) {
        std::barrier start(siblings + 1);
        std::vector<std::thread> slowJobs;
        for (int i = 0; i < siblings; ++i) {
            slowJobs.emplace_back([&] {
                start.arrive_and_wait();
                runMixSandboxed(iso, [&] {
                    std::this_thread::sleep_for(slow);
                    return fakeResult();
                });
            });
        }
        start.arrive_and_wait();
        const auto begin = Clock::now();
        runMixSandboxed(iso, fakeResult);
        held += Clock::now() - begin >= slow / 2 ? 1 : 0;
        for (std::thread &job : slowJobs)
            job.join();
    }
    EXPECT_EQ(held, 0) << "of 10 instant jobs, " << held
                       << " waited for a sibling's child";
}

TEST(ProcPoolSandbox, MemoryLimitTurnsOomIntoJobCrashed)
{
    if (!procIsolationSupported())
        GTEST_SKIP() << "no fork on this platform";
    ProcIsolation iso = enabledIsolation();
    iso.memMb = 256;
    // The oom fault allocates until RLIMIT_AS makes new throw;
    // bad_alloc escaping its noexcept frame aborts the child.
    FaultSpec fault;
    fault.kind = FaultKind::OomJob;
    fault.arg = 0;
    EXPECT_THROW(runMixSandboxed(iso,
                                 [&fault]() -> MixResult {
                                     injectJobFault(fault, 0, "oom");
                                     return MixResult{};
                                 }),
                 JobCrashed);
}

} // namespace
} // namespace nuca
