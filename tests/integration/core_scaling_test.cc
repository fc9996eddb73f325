/** @file
 * The paper's Section 6 scalability claim: "we believe the scheme
 * will scale to systems with a higher processor count." Every
 * component is parameterized by the core count; these tests pin the
 * non-4-core configurations.
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "nuca/adaptive_nuca.hh"
#include "sim/cmp_system.hh"
#include "sim/metrics.hh"
#include "workload/spec_profiles.hh"
#include "support/env_system.hh"

namespace nuca {
namespace {

class CoreScaling : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CoreScaling, AdaptiveNucaGeometryScales)
{
    const unsigned cores = GetParam();
    stats::Group root("t");
    MainMemory memory(root, "memory", MainMemoryParams{});
    AdaptiveNucaParams params;
    params.numCores = cores;
    params.sizePerCoreBytes = 64 * 1024;
    AdaptiveNuca nuca(root, params, memory);
    EXPECT_EQ(nuca.totalWays(), cores * 4u);
    EXPECT_EQ(nuca.homeOf(4 * (cores - 1)),
              static_cast<CoreId>(cores - 1));

    // Quotas sum to the total ways at any scale.
    unsigned sum = 0;
    for (unsigned c = 0; c < cores; ++c)
        sum += nuca.engine().quota(static_cast<CoreId>(c));
    EXPECT_EQ(sum, cores * 4u);
    // The max quota leaves the minimum for everyone else.
    EXPECT_EQ(nuca.engine().maxQuota(), cores * 4u - (cores - 1) * 2);
}

TEST_P(CoreScaling, FullSystemRunsAndAdapts)
{
    const unsigned cores = GetParam();
    SystemConfig cfg = SystemConfig::baseline(L3Scheme::Adaptive);
    cfg.numCores = cores;
    cfg.l3SizePerCoreBytes = 128 * 1024; // keep the test fast
    cfg.epochMisses = 500;

    std::vector<WorkloadProfile> apps;
    apps.push_back(specProfile("art")); // one hog
    for (unsigned c = 1; c < cores; ++c)
        apps.push_back(idleProfile());

    EnvCmpSystem system(cfg, apps, 11);
    system.run(1200000);
    system.adaptive()->checkInvariants();
    // The hog grows past its initial share; some idler shrank.
    EXPECT_GT(system.adaptive()->engine().quota(0), 4u);
    for (unsigned c = 0; c < cores; ++c) {
        EXPECT_GT(system.coreAt(static_cast<CoreId>(c)).committed(),
                  0u);
    }
}

TEST_P(CoreScaling, InvariantsUnderRandomTrafficAtScale)
{
    const unsigned cores = GetParam();
    stats::Group root("t");
    MainMemory memory(root, "memory", MainMemoryParams{});
    AdaptiveNucaParams params;
    params.numCores = cores;
    params.sizePerCoreBytes = 32 * 1024;
    params.epochMisses = 100;
    AdaptiveNuca nuca(root, params, memory);

    Rng rng(cores);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto core = static_cast<CoreId>(rng.below(cores));
        const Addr addr =
            (rng.below(nuca.numSets() * 8) +
             (static_cast<Addr>(core) << 30)) *
            blockBytes;
        nuca.access(MemRequest{core, addr,
                               rng.chance(0.2) ? MemOp::Write
                                               : MemOp::Read},
                    now += 5);
    }
    nuca.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreScaling,
                         ::testing::Values(2u, 4u, 8u));

} // namespace
} // namespace nuca
