/** @file Integration-level tests of the assembled CMP system. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/cmp_system.hh"
#include "workload/spec_profiles.hh"
#include "support/env_system.hh"

namespace nuca {
namespace {

std::vector<WorkloadProfile>
lightMix()
{
    return {specProfile("eon"), specProfile("crafty"),
            specProfile("mesa"), specProfile("wupwise")};
}

TEST(CmpSystem, BuildsEverySchemeAndRuns)
{
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        EnvCmpSystem system(SystemConfig::baseline(scheme), lightMix(),
                            1);
        system.run(20000);
        EXPECT_EQ(system.now(), 20000u);
        for (unsigned c = 0; c < 4; ++c) {
            EXPECT_GT(system.coreAt(static_cast<CoreId>(c))
                          .committed(),
                      0u)
                << to_string(scheme) << " core " << c;
        }
        EXPECT_EQ(system.l3().schemeName(),
                  scheme == L3Scheme::RandomReplacement
                      ? "random-replacement"
                      : to_string(scheme));
    }
}

TEST(CmpSystem, AdaptiveAccessorOnlyForAdaptiveScheme)
{
    EnvCmpSystem adaptive(SystemConfig::baseline(L3Scheme::Adaptive),
                          lightMix(), 1);
    EXPECT_NE(adaptive.adaptive(), nullptr);
    EnvCmpSystem priv(SystemConfig::baseline(L3Scheme::Private),
                      lightMix(), 1);
    EXPECT_EQ(priv.adaptive(), nullptr);
}

TEST(CmpSystem, ResetStatsStartsMeasurementWindow)
{
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                        lightMix(), 2);
    system.run(10000);
    system.resetStats();
    EXPECT_EQ(system.measuredCycles(), 0u);
    EXPECT_DOUBLE_EQ(system.ipcOf(0), 0.0);
    system.run(10000);
    EXPECT_EQ(system.measuredCycles(), 10000u);
    EXPECT_GT(system.ipcOf(0), 0.0);
}

TEST(CmpSystem, DeterministicAcrossIdenticalRuns)
{
    const auto run = [](std::uint64_t seed) {
        EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                            lightMix(), seed);
        system.run(30000);
        std::vector<Counter> committed;
        for (unsigned c = 0; c < 4; ++c)
            committed.push_back(
                system.coreAt(static_cast<CoreId>(c)).committed());
        return committed;
    };
    EXPECT_EQ(run(77), run(77));
    EXPECT_NE(run(77), run(78));
}

TEST(CmpSystem, WorkloadsArePerCoreDistinct)
{
    // Four different applications produce four different IPCs.
    std::vector<WorkloadProfile> mix = {
        specProfile("eon"), specProfile("mcf"), specProfile("mesa"),
        specProfile("ammp")};
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Private), mix,
                        3);
    system.run(200000);
    system.resetStats();
    system.run(200000);
    // eon (compute bound) runs far faster than mcf (memory bound).
    EXPECT_GT(system.ipcOf(0), 3.0 * system.ipcOf(1));
}

TEST(CmpSystem, L3AccessIntensityMetric)
{
    std::vector<WorkloadProfile> mix(4, idleProfile());
    mix[0] = specProfile("mcf");
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Private), mix,
                        4);
    system.run(100000);
    system.resetStats();
    system.run(200000);
    // mcf produces far more L3 traffic than the idle spinners.
    EXPECT_GT(system.l3AccessesPerKilocycle(0), 1.0);
    EXPECT_LT(system.l3AccessesPerKilocycle(1), 0.5);
}

TEST(CmpSystem, MismatchedWorkloadCountIsFatal)
{
    std::vector<WorkloadProfile> three(3, idleProfile());
    EXPECT_DEATH(CmpSystem(SystemConfig::baseline(L3Scheme::Private),
                           three, 1),
                 "one workload per core");
}

TEST(CmpSystem, EnvSystemInstallsTheRobustnessEnvironment)
{
    // CI reruns the integration tests under REPRO_CHECK=1; that only
    // checks anything if their EnvCmpSystems pick the variables up.
    // Save and restore whatever the caller set.
    const auto saved = [](const char *name) {
        const char *v = std::getenv(name);
        return v == nullptr ? std::string() : std::string(v);
    };
    const std::string check = saved("REPRO_CHECK");
    const std::string period = saved("REPRO_CHECK_PERIOD");
    ::setenv("REPRO_CHECK", "1", 1);
    ::setenv("REPRO_CHECK_PERIOD", "1234", 1);

    EnvCmpSystem checked(SystemConfig::baseline(L3Scheme::Adaptive),
                         lightMix(), 1);
    EXPECT_TRUE(checked.robustness().checkEnabled);
    EXPECT_EQ(checked.robustness().checkPeriod, 1234u);
    checked.run(5000);

    CmpSystem plain(SystemConfig::baseline(L3Scheme::Adaptive),
                    lightMix(), 1);
    EXPECT_FALSE(plain.robustness().checkEnabled);

    const auto restore = [](const char *name, const std::string &v) {
        if (v.empty())
            ::unsetenv(name);
        else
            ::setenv(name, v.c_str(), 1);
    };
    restore("REPRO_CHECK", check);
    restore("REPRO_CHECK_PERIOD", period);
}

} // namespace
} // namespace nuca
