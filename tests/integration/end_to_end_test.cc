/** @file End-to-end sanity of the full Table 1 system. */

#include <gtest/gtest.h>

#include "sim/cmp_system.hh"
#include "sim/metrics.hh"
#include "workload/spec_profiles.hh"
#include "support/env_system.hh"

namespace nuca {
namespace {

TEST(EndToEnd, FullBaselineRunsAllSchemes)
{
    const std::vector<WorkloadProfile> mix = {
        specProfile("mcf"), specProfile("gzip"), specProfile("ammp"),
        specProfile("wupwise")};
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        EnvCmpSystem system(SystemConfig::baseline(scheme), mix, 42);
        system.run(60000);
        system.resetStats();
        system.run(120000);
        for (unsigned c = 0; c < 4; ++c) {
            const double ipc = system.ipcOf(static_cast<CoreId>(c));
            EXPECT_GT(ipc, 0.0) << to_string(scheme);
            EXPECT_LT(ipc, 4.0) << to_string(scheme);
        }
        EXPECT_GT(harmonicMean(system.ipcs()), 0.0);
    }
}

TEST(EndToEnd, AdaptiveInvariantsHoldAfterLongRun)
{
    const std::vector<WorkloadProfile> mix = {
        specProfile("art"), specProfile("mcf"), specProfile("eon"),
        specProfile("swim")};
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive), mix,
                        7);
    system.run(400000);
    system.adaptive()->checkInvariants();
    // Sharing engine evaluated at least one epoch (2000 misses).
    EXPECT_GT(system.adaptive()->misses(), 2000u);
}

TEST(EndToEnd, ComputeBoundBeatsMemoryBound)
{
    const std::vector<WorkloadProfile> mix = {
        specProfile("eon"), specProfile("ammp"), specProfile("mesa"),
        specProfile("mcf")};
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Private), mix,
                        9);
    system.run(80000);
    system.resetStats();
    system.run(150000);
    EXPECT_GT(system.ipcOf(0), system.ipcOf(1) * 2);
    EXPECT_GT(system.ipcOf(2), system.ipcOf(3) * 2);
}

TEST(EndToEnd, MemoryChannelSeesContention)
{
    const std::vector<WorkloadProfile> mix = {
        specProfile("mcf"), specProfile("art"), specProfile("swim"),
        specProfile("ammp")};
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Private), mix,
                        5);
    system.run(150000);
    EXPECT_GT(system.memory().fetches(), 100u);
    EXPECT_GT(system.memory().queueCycles(), 0u);
}

TEST(EndToEnd, TechScalingSlowsEveryScheme)
{
    const std::vector<WorkloadProfile> mix = {
        specProfile("twolf"), specProfile("vpr"), specProfile("gzip"),
        specProfile("parser")};
    const auto run = [&](const SystemConfig &cfg) {
        EnvCmpSystem system(cfg, mix, 13);
        system.run(60000);
        system.resetStats();
        system.run(120000);
        return harmonicMean(system.ipcs());
    };
    const double base =
        run(SystemConfig::baseline(L3Scheme::Adaptive));
    const double scaled =
        run(SystemConfig::scaledTech(L3Scheme::Adaptive));
    // Relatively slower memory must not speed anything up.
    EXPECT_LT(scaled, base * 1.02);
}

TEST(EndToEnd, StatsDumpIsWellFormed)
{
    const std::vector<WorkloadProfile> mix(4, idleProfile());
    EnvCmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive), mix,
                        1);
    system.run(5000);
    std::ostringstream os;
    system.statsRoot().dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("system.core0.committed_insts"),
              std::string::npos);
    EXPECT_NE(text.find("system.l3_adaptive.sharing_engine"),
              std::string::npos);
    EXPECT_NE(text.find("system.memory.fetches"), std::string::npos);
}

} // namespace
} // namespace nuca
