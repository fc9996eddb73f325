/**
 * @file
 * End-to-end robustness coverage: every REPRO_FAULT kind must be
 * caught by the layer that claims it (the invariant checker for
 * lru_corrupt, the forward-progress watchdog for mshr_leak and
 * channel_stall), the cycle budget must turn runaway runs into a
 * catchable error, the environment parsers must reject malformed
 * specs, and — the flip side — a healthy run under full checking
 * must be bit-identical to one with the robustness layer off.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "sim/cmp_system.hh"
#include "sim/env_config.hh"
#include "sim/robustness.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

using ::testing::ExitedWithCode;

std::vector<WorkloadProfile>
lightMix()
{
    return {specProfile("eon"), specProfile("crafty"),
            specProfile("mesa"), specProfile("wupwise")};
}

/** Watchdog-off configuration — the do-nothing baseline. */
RobustnessConfig
quietConfig()
{
    RobustnessConfig config;
    config.watchdogEnabled = false;
    return config;
}

std::vector<Counter>
committedAfter(CmpSystem &system, Cycle cycles)
{
    system.run(cycles);
    std::vector<Counter> out;
    for (unsigned c = 0; c < system.numCores(); ++c)
        out.push_back(
            system.coreAt(static_cast<CoreId>(c)).committed());
    return out;
}

// ---------------------------------------------------------------
// Environment parsing.

TEST(SweepPolicyEnv, ParsesEveryMode)
{
    ::unsetenv("REPRO_FAIL");
    EXPECT_EQ(sweepPolicyFromEnv().onFail, FailPolicy::Abort);

    ::setenv("REPRO_FAIL", "abort", 1);
    EXPECT_EQ(sweepPolicyFromEnv().onFail, FailPolicy::Abort);

    ::setenv("REPRO_FAIL", "skip", 1);
    EXPECT_EQ(sweepPolicyFromEnv().onFail, FailPolicy::Skip);

    ::setenv("REPRO_FAIL", "retry:3", 1);
    const auto policy = sweepPolicyFromEnv();
    EXPECT_EQ(policy.onFail, FailPolicy::Retry);
    EXPECT_EQ(policy.retries, 3u);
    ::unsetenv("REPRO_FAIL");
}

TEST(SweepPolicyEnv, ReadsRetryTuningKnobs)
{
    ::unsetenv("REPRO_RETRY_BACKOFF_MS");
    ::unsetenv("REPRO_QUARANTINE");
    auto policy = sweepPolicyFromEnv();
    EXPECT_EQ(policy.backoffMs, 100u);
    EXPECT_EQ(policy.maxCrashes, 2u);

    ::setenv("REPRO_RETRY_BACKOFF_MS", "0", 1);
    ::setenv("REPRO_QUARANTINE", "5", 1);
    policy = sweepPolicyFromEnv();
    EXPECT_EQ(policy.backoffMs, 0u);
    EXPECT_EQ(policy.maxCrashes, 5u);
    ::unsetenv("REPRO_RETRY_BACKOFF_MS");
    ::unsetenv("REPRO_QUARANTINE");
}

TEST(SweepPolicyEnv, RejectsMalformedSpecs)
{
    ::setenv("REPRO_FAIL", "continue", 1);
    EXPECT_EXIT(sweepPolicyFromEnv(), ExitedWithCode(1),
                "REPRO_FAIL");
    ::setenv("REPRO_FAIL", "retry:0", 1);
    EXPECT_EXIT(sweepPolicyFromEnv(), ExitedWithCode(1), "N >= 1");
    ::setenv("REPRO_FAIL", "retry:x", 1);
    EXPECT_EXIT(sweepPolicyFromEnv(), ExitedWithCode(1),
                "not a number");
    ::unsetenv("REPRO_FAIL");
}

TEST(FaultSpecEnv, ParsesKindsAndArguments)
{
    ::unsetenv("REPRO_FAULT");
    EXPECT_FALSE(faultFromEnv().enabled());

    ::setenv("REPRO_FAULT", "lru_corrupt", 1);
    auto fault = faultFromEnv();
    EXPECT_EQ(fault.kind, FaultKind::LruCorrupt);
    EXPECT_EQ(fault.arg, 0u);
    EXPECT_TRUE(fault.isSimFault());

    ::setenv("REPRO_FAULT", "mshr_leak:5000", 1);
    fault = faultFromEnv();
    EXPECT_EQ(fault.kind, FaultKind::MshrLeak);
    EXPECT_EQ(fault.arg, 5000u);

    ::setenv("REPRO_FAULT", "channel_stall", 1);
    EXPECT_EQ(faultFromEnv().kind, FaultKind::ChannelStall);

    ::setenv("REPRO_FAULT", "throw_job:7", 1);
    fault = faultFromEnv();
    EXPECT_EQ(fault.kind, FaultKind::ThrowJob);
    EXPECT_EQ(fault.arg, 7u);
    EXPECT_FALSE(fault.isSimFault());
    EXPECT_TRUE(fault.isJobFault());
    EXPECT_FALSE(fault.isCrashFault());

    // The crash kinds: job faults that take their process down, so
    // they are flagged for the REPRO_ISOLATE=proc requirement.
    ::setenv("REPRO_FAULT", "segv:2", 1);
    fault = faultFromEnv();
    EXPECT_EQ(fault.kind, FaultKind::SegvJob);
    EXPECT_EQ(fault.arg, 2u);
    EXPECT_TRUE(fault.isJobFault());
    EXPECT_TRUE(fault.isCrashFault());

    ::setenv("REPRO_FAULT", "oom:1", 1);
    fault = faultFromEnv();
    EXPECT_EQ(fault.kind, FaultKind::OomJob);
    EXPECT_TRUE(fault.isCrashFault());

    ::setenv("REPRO_FAULT", "hang:0", 1);
    fault = faultFromEnv();
    EXPECT_EQ(fault.kind, FaultKind::HangJob);
    EXPECT_TRUE(fault.isCrashFault());
    EXPECT_STREQ(to_string(FaultKind::SegvJob), "segv");
    EXPECT_STREQ(to_string(FaultKind::OomJob), "oom");
    EXPECT_STREQ(to_string(FaultKind::HangJob), "hang");
    ::unsetenv("REPRO_FAULT");
}

TEST(FaultSpecEnv, RejectsMalformedSpecs)
{
    ::setenv("REPRO_FAULT", "bit_flip", 1);
    EXPECT_EXIT(faultFromEnv(), ExitedWithCode(1),
                "REPRO_FAULT kind");
    ::setenv("REPRO_FAULT", "throw_job", 1);
    EXPECT_EXIT(faultFromEnv(), ExitedWithCode(1),
                "job index");
    // Every job-fault kind requires its ":K" target index.
    ::setenv("REPRO_FAULT", "segv", 1);
    EXPECT_EXIT(faultFromEnv(), ExitedWithCode(1),
                "job index");
    ::setenv("REPRO_FAULT", "hang", 1);
    EXPECT_EXIT(faultFromEnv(), ExitedWithCode(1),
                "job index");
    ::unsetenv("REPRO_FAULT");
}

TEST(FaultInjection, ThrowJobFiresOnlyOnItsTarget)
{
    FaultSpec fault;
    fault.kind = FaultKind::ThrowJob;
    fault.arg = 3;
    // Other jobs (and disabled specs) pass through untouched.
    EXPECT_NO_THROW(injectJobFault(fault, 2, "private.mix2"));
    EXPECT_NO_THROW(injectJobFault(FaultSpec{}, 3, "private.mix3"));
    try {
        injectJobFault(fault, 3, "private.mix3");
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fault injection"), std::string::npos);
        EXPECT_NE(what.find("private.mix3"), std::string::npos);
    }
}

TEST(RobustnessConfigEnv, ReadsKnobsAndDefaults)
{
    ::unsetenv("REPRO_CHECK");
    ::unsetenv("REPRO_WATCHDOG");
    ::unsetenv("REPRO_WATCHDOG_WINDOW");
    ::unsetenv("REPRO_MAX_CYCLES");
    auto config = robustnessFromEnv();
    EXPECT_FALSE(config.checkEnabled);
    EXPECT_TRUE(config.watchdogEnabled);
    EXPECT_EQ(config.watchdogWindow, 1000000u);
    EXPECT_EQ(config.mshrAgeBound, config.watchdogWindow);
    EXPECT_EQ(config.maxCycles, 0u);

    ::setenv("REPRO_CHECK", "1", 1);
    ::setenv("REPRO_WATCHDOG", "0", 1);
    ::setenv("REPRO_WATCHDOG_WINDOW", "4096", 1);
    ::setenv("REPRO_MAX_CYCLES", "123456", 1);
    config = robustnessFromEnv();
    EXPECT_TRUE(config.checkEnabled);
    EXPECT_FALSE(config.watchdogEnabled);
    EXPECT_EQ(config.watchdogWindow, 4096u);
    // The MSHR age bound follows the window.
    EXPECT_EQ(config.mshrAgeBound, 4096u);
    EXPECT_EQ(config.maxCycles, 123456u);

    ::unsetenv("REPRO_CHECK");
    ::unsetenv("REPRO_WATCHDOG");
    ::unsetenv("REPRO_WATCHDOG_WINDOW");
    ::unsetenv("REPRO_MAX_CYCLES");
}

TEST(RobustnessConfigEnv, SystemConstructorIgnoresEnv)
{
    // The environment reaches a system only through a harness that
    // parses it and installs the result.
    ::setenv("REPRO_CHECK", "1", 1);
    ::setenv("REPRO_WATCHDOG_WINDOW", "2048", 1);
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    EXPECT_FALSE(system.robustness().checkEnabled);
    EXPECT_EQ(system.robustness().watchdogWindow, 1000000u);
    system.setRobustness(robustnessFromEnv());
    EXPECT_TRUE(system.robustness().checkEnabled);
    EXPECT_EQ(system.robustness().watchdogWindow, 2048u);
    ::unsetenv("REPRO_CHECK");
    ::unsetenv("REPRO_WATCHDOG_WINDOW");
}

// ---------------------------------------------------------------
// Fault: channel_stall -> zero-retirement watchdog.

TEST(RobustnessFault, ChannelStallCaughtByWatchdog)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     lightMix(), 1);
    RobustnessConfig config;
    config.watchdogWindow = 3000;
    // Keep the age bound out of the way so the zero-retirement
    // detector is the one that reports.
    config.mshrAgeBound = 1u << 30;
    config.fault.kind = FaultKind::ChannelStall;
    config.fault.arg = 1000;
    system.setRobustness(config);

    try {
        system.run(2000000);
        FAIL() << "expected SimulationStalled";
    } catch (const SimulationStalled &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no instruction retired"),
                  std::string::npos)
            << what;
        // The diagnostic snapshot names every core and the channel.
        EXPECT_NE(what.find("core0"), std::string::npos) << what;
        EXPECT_NE(what.find("core3"), std::string::npos) << what;
        EXPECT_NE(what.find("busy_until"), std::string::npos) << what;
    }
    // The stall was detected long before the requested horizon.
    EXPECT_LT(system.now(), 2000000u);
}

// ---------------------------------------------------------------
// Fault: mshr_leak -> MSHR age bound watchdog.

TEST(RobustnessFault, MshrLeakCaughtByWatchdog)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    RobustnessConfig config;
    // Cores keep retiring around the leak, so the zero-retirement
    // window must not be the detector here.
    config.watchdogWindow = 1u << 30;
    config.mshrAgeBound = 4000;
    config.fault.kind = FaultKind::MshrLeak;
    config.fault.arg = 500;
    system.setRobustness(config);

    try {
        system.run(2000000);
        FAIL() << "expected SimulationStalled";
    } catch (const SimulationStalled &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MSHR entry outstanding"),
                  std::string::npos)
            << what;
    }
    EXPECT_LT(system.now(), 2000000u);
}

// ---------------------------------------------------------------
// Fault: lru_corrupt -> periodic invariant checker (panics).

TEST(RobustnessFaultDeathTest, LruCorruptCaughtByChecker)
{
    const auto corruptedRun = [](L3Scheme scheme) {
        CmpSystem system(SystemConfig::baseline(scheme), lightMix(),
                         1);
        RobustnessConfig config = quietConfig();
        config.checkEnabled = true;
        config.checkPeriod = 2000;
        config.fault.kind = FaultKind::LruCorrupt;
        config.fault.arg = 1000;
        system.setRobustness(config);
        system.run(100000);
    };
    // The corruption is planted in whichever L3 organization runs;
    // both the flat per-set checker (private) and the adaptive
    // organization's structural pass must catch it.
    EXPECT_DEATH(corruptedRun(L3Scheme::Private),
                 "share use stamp");
    EXPECT_DEATH(corruptedRun(L3Scheme::Adaptive),
                 "share use stamp");
}

// ---------------------------------------------------------------
// Cycle budget.

TEST(RobustnessBudget, MaxCyclesRaisesCycleBudgetExceeded)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    RobustnessConfig config = quietConfig();
    config.maxCycles = 5000;
    system.setRobustness(config);
    EXPECT_THROW(system.run(100000), CycleBudgetExceeded);
    EXPECT_GE(system.now(), 5000u);
    EXPECT_LT(system.now(), 100000u);
}

TEST(RobustnessBudget, GenerousBudgetIsSilent)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                     lightMix(), 1);
    RobustnessConfig config = quietConfig();
    config.maxCycles = 1u << 30;
    system.setRobustness(config);
    EXPECT_NO_THROW(system.run(20000));
    EXPECT_EQ(system.now(), 20000u);
}

// ---------------------------------------------------------------
// The healthy-run contract: checking is purely observational.

TEST(RobustnessOverhead, CheckedRunIsBitIdenticalToUncheckedRun)
{
    for (const auto scheme : {L3Scheme::Private, L3Scheme::Shared,
                              L3Scheme::Adaptive,
                              L3Scheme::RandomReplacement}) {
        CmpSystem plain(SystemConfig::baseline(scheme), lightMix(),
                        42);
        plain.setRobustness(quietConfig());

        CmpSystem checked(SystemConfig::baseline(scheme), lightMix(),
                          42);
        RobustnessConfig config;
        config.checkEnabled = true;
        config.checkPeriod = 3000;
        config.watchdogEnabled = true;
        config.watchdogWindow = 5000;
        checked.setRobustness(config);

        EXPECT_EQ(committedAfter(plain, 40000),
                  committedAfter(checked, 40000))
            << "scheme " << static_cast<int>(scheme);
    }
}

TEST(RobustnessCheck, HealthyStructuresPassAnExplicitPass)
{
    for (const auto scheme : {L3Scheme::Private, L3Scheme::Shared,
                              L3Scheme::Adaptive,
                              L3Scheme::RandomReplacement}) {
        CmpSystem system(SystemConfig::baseline(scheme), lightMix(),
                         7);
        system.run(30000);
        system.checkStructuralInvariants(); // must not panic
    }
}

TEST(RobustnessWatchdog, HealthyRunNeverTrips)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     lightMix(), 3);
    RobustnessConfig config;
    config.watchdogWindow = 5000;
    // Healthy entries can outlive the memory round trip when the
    // channel queues; the bound must sit above worst-case queueing.
    config.mshrAgeBound = 10000;
    system.setRobustness(config);
    EXPECT_NO_THROW(system.run(50000));
}

} // namespace
} // namespace nuca
