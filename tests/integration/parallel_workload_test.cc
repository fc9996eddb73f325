/** @file
 * Integration tests for the parallel-workload extension (the
 * paper's Section 3 future work): shared data regions, coherence,
 * and remote hits into the adaptive L3's private partitions.
 */

#include <gtest/gtest.h>

#include "sim/cmp_system.hh"
#include "sim/metrics.hh"
#include "workload/synth_workload.hh"
#include "support/env_system.hh"

namespace nuca {
namespace {

/** A thread of a parallel app: small private data + shared table. */
WorkloadProfile
parallelThread(double shared_frac, std::uint64_t shared_bytes)
{
    WorkloadProfile p;
    p.name = "ptask";
    p.loadFrac = 0.30;
    p.storeFrac = 0.08;
    p.branchFrac = 0.08;
    p.meanDepDist = 16;
    p.codeFootprintBytes = 8 * 1024;
    p.regions = {{32 * 1024, 1.0, RegionPattern::Random}};
    p.sharedFrac = shared_frac;
    p.sharedRegions = {{shared_bytes, 1.0, RegionPattern::Random}};
    return p;
}

TEST(ParallelWorkload, ThreadsGenerateOverlappingSharedAddresses)
{
    const auto profile = parallelThread(0.5, 256 * 1024);
    SynthWorkload t0(profile, 0, 1), t1(profile, 1, 1);
    Addr min_shared0 = ~0ull, min_shared1 = ~0ull;
    unsigned shared0 = 0, shared1 = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto a = t0.next();
        const auto b = t1.next();
        // Shared addresses live above the per-core spaces (1<<45).
        if (a.isMem() && a.effAddr >= (1ull << 45)) {
            ++shared0;
            min_shared0 = std::min(min_shared0, a.effAddr);
        }
        if (b.isMem() && b.effAddr >= (1ull << 45)) {
            ++shared1;
            min_shared1 = std::min(min_shared1, b.effAddr);
        }
    }
    EXPECT_GT(shared0, 2000u);
    EXPECT_GT(shared1, 2000u);
    // Both threads address the same shared window.
    EXPECT_EQ(min_shared0 >> 20, min_shared1 >> 20);
}

TEST(ParallelWorkload, CoherentSystemRunsAllSchemes)
{
    const std::vector<WorkloadProfile> threads(
        4, parallelThread(0.4, 512 * 1024));
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const auto cfg = SystemConfig::baseline(scheme);
        EnvCmpSystem system(cfg, threads, 3);
        system.run(150000);
        EXPECT_NE(system.coherence(), nullptr);
        EXPECT_GT(system.coherence()->invalidations(), 0u)
            << to_string(scheme);
        for (unsigned c = 0; c < 4; ++c)
            EXPECT_GT(system.coreAt(static_cast<CoreId>(c))
                          .committed(),
                      0u);
        if (scheme == L3Scheme::Adaptive)
            system.adaptive()->checkInvariants();
    }
}

TEST(ParallelWorkload, AdaptiveDoesNotDuplicateSharedBlocks)
{
    // A block fetched privately by one core is *pulled over*, not
    // re-fetched, by another.
    const auto cfg = SystemConfig::baseline(L3Scheme::Adaptive);
    const std::vector<WorkloadProfile> threads(
        4, parallelThread(0.9, 64 * 1024));
    EnvCmpSystem system(cfg, threads, 5);
    system.run(400000);
    system.adaptive()->checkInvariants();

    // The 64 KB shared table needs 1024 blocks; without duplication
    // suppression each core would fetch its own copy. Remote hits
    // must be a visible fraction of traffic.
    Counter remote = 0;
    for (CoreId c = 0; c < 4; ++c)
        remote += system.adaptive()->remoteHitsOf(c);
    EXPECT_GT(remote, 1000u);
}

TEST(ParallelWorkload, SharingSchemesBeatPrivateOnReadSharedData)
{
    // A read-mostly shared table larger than one private L3 but
    // smaller than the pooled cache: the organizations that keep ONE
    // copy (shared / adaptive) fit it; four private copies do not.
    WorkloadProfile t = parallelThread(0.55, 2 * 1024 * 1024);
    t.storeFrac = 0.02; // read-mostly: little invalidation traffic
    const std::vector<WorkloadProfile> threads(4, t);

    const auto run = [&](L3Scheme scheme) {
        const auto cfg = SystemConfig::baseline(scheme);
        EnvCmpSystem system(cfg, threads, 7);
        system.run(400000);
        system.resetStats();
        system.run(600000);
        return harmonicMean(system.ipcs());
    };

    const double priv = run(L3Scheme::Private);
    const double shared = run(L3Scheme::Shared);
    const double adaptive = run(L3Scheme::Adaptive);
    EXPECT_GT(shared, priv * 1.04);
    EXPECT_GT(adaptive, priv * 1.04);
}

TEST(ParallelWorkload, WriteSharingCausesCoherenceMisses)
{
    // Heavy write-sharing: invalidations keep L1 hit rates down.
    WorkloadProfile t = parallelThread(0.5, 16 * 1024);
    t.storeFrac = 0.20;
    const std::vector<WorkloadProfile> threads(4, t);
    const auto cfg = SystemConfig::baseline(L3Scheme::Shared);
    EnvCmpSystem system(cfg, threads, 9);
    system.run(300000);
    EXPECT_GT(system.coherence()->invalidations(), 5000u);
    EXPECT_GT(system.coherence()->dirtyFlushes(), 100u);
}

} // namespace
} // namespace nuca
