/** @file
 * Configuration-validation coverage: every user-facing fatal_if
 * guard must actually fire on the bad input it names (fatal = user
 * error, exit code 1 — never a panic/abort).
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/tlb.hh"
#include "cpu/branch_predictor.hh"
#include "mem/main_memory.hh"
#include "nuca/adaptive_nuca.hh"
#include "nuca/private_l3.hh"
#include "nuca/random_replacement_l3.hh"
#include "nuca/shared_l3.hh"
#include "nuca/sharing_engine.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "workload/reuse_model.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

namespace nuca {
namespace {

using ::testing::ExitedWithCode;

TEST(ConfigValidation, CacheSizeMustMatchGeometry)
{
    stats::Group g("g");
    EXPECT_EXIT(SetAssocCache(g, "c", 1000, 4), ExitedWithCode(1),
                "not a multiple");
    EXPECT_EXIT(SetAssocCache(g, "c", 3 * 4 * 64, 4),
                ExitedWithCode(1), "power-of-two");
    EXPECT_EXIT(SetAssocCache(g, "c", 4096, 0), ExitedWithCode(1),
                "zero associativity");
}

TEST(ConfigValidation, MshrAndTlbNeedEntries)
{
    stats::Group g("g");
    EXPECT_EXIT(MshrFile(g, "m", 0), ExitedWithCode(1),
                "no entries");
    EXPECT_EXIT(Tlb(g, "t", 0, 30), ExitedWithCode(1), "no entries");
}

TEST(ConfigValidation, PredictorTablesMustBePowersOfTwo)
{
    stats::Group g("g");
    BranchPredictorParams p;
    p.bimodalEntries = 1000;
    EXPECT_EXIT(BranchPredictor(g, "b", p), ExitedWithCode(1),
                "powers of two");

    BranchPredictorParams q;
    q.historyBits = 20;
    EXPECT_EXIT(BranchPredictor(g, "b", q), ExitedWithCode(1),
                "history width");

    BranchPredictorParams r;
    r.btbAssoc = 3;
    EXPECT_EXIT(BranchPredictor(g, "b", r), ExitedWithCode(1),
                "associativity");
}

TEST(ConfigValidation, MemoryChunksMustDivideBlocks)
{
    stats::Group g("g");
    MainMemoryParams p;
    p.chunkBytes = 7;
    EXPECT_EXIT(MainMemory(g, "m", p), ExitedWithCode(1),
                "divide the block size");
}

TEST(ConfigValidation, MemoryLatenciesMustBeNonzero)
{
    stats::Group g("g");
    MainMemoryParams p;
    p.firstChunkLatency = 0;
    EXPECT_EXIT(MainMemory(g, "m", p), ExitedWithCode(1),
                "latencies must be nonzero");
    MainMemoryParams q;
    q.interChunkLatency = 0;
    EXPECT_EXIT(MainMemory(g, "m", q), ExitedWithCode(1),
                "latencies must be nonzero");
}

TEST(ConfigValidation, L3HitLatenciesMustBeNonzero)
{
    stats::Group g("g");
    MainMemory memory(g, "mem", MainMemoryParams{});

    PrivateL3Params priv;
    priv.hitLatency = 0;
    EXPECT_EXIT(PrivateL3(g, priv, memory), ExitedWithCode(1),
                "hit latency must be nonzero");

    SharedL3Params shared;
    shared.hitLatency = 0;
    EXPECT_EXIT(SharedL3(g, shared, memory), ExitedWithCode(1),
                "hit latency must be nonzero");

    AdaptiveNucaParams adaptive;
    adaptive.localHitLatency = 0;
    EXPECT_EXIT(AdaptiveNuca(g, adaptive, memory),
                ExitedWithCode(1), "latencies must be nonzero");

    RandomReplacementL3Params random;
    random.remoteHitLatency = 0;
    EXPECT_EXIT(RandomReplacementL3(g, random, memory),
                ExitedWithCode(1), "latencies must be nonzero");
}

TEST(ConfigValidation, SharingEngineGuards)
{
    stats::Group g("g");
    SharingEngineParams base;
    base.numCores = 4;
    base.numSets = 64;
    base.totalWays = 16;
    base.localAssoc = 4;
    base.initialQuota = 4;

    auto p = base;
    p.numCores = 1;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1),
                ">= 2 cores");

    p = base;
    p.totalWays = 12;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1),
                "totalWays");

    p = base;
    p.minQuota = 1;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1), "minQuota");

    p = base;
    p.initialQuota = 5;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1),
                "must sum");

    p = base;
    p.epochMisses = 0;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1), "epoch");

    // minQuota so large that (numCores-1)*minQuota >= totalWays:
    // maxQuota would underflow, so the constructor must reject it.
    p = base;
    p.minQuota = 6;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1), "headroom");

    p = base;
    p.minQuota = 5;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1),
                "below the minimum");

    p = base;
    p.localAssoc = 0;
    p.totalWays = 0;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1),
                "local associativity");

    p = base;
    p.numSets = 0;
    EXPECT_EXIT(SharingEngine(g, p), ExitedWithCode(1),
                "set count");
}

TEST(ConfigValidation, ReuseModelGuards)
{
    EXPECT_EXIT(ReuseModel({}, 0), ExitedWithCode(1),
                "at least one region");
    EXPECT_EXIT(
        ReuseModel({{8, 1.0, RegionPattern::Random}}, 0),
        ExitedWithCode(1), "below one block");
}

TEST(ConfigValidation, WorkloadProfileGuards)
{
    WorkloadProfile p;
    p.loadFrac = 0.6;
    p.storeFrac = 0.4;
    p.branchFrac = 0.2;
    p.regions = {{4096, 1.0, RegionPattern::Random}};
    EXPECT_EXIT(SynthWorkload(p, 0, 1), ExitedWithCode(1),
                "exceed 1");

    WorkloadProfile q;
    q.regions = {{4096, 1.0, RegionPattern::Random}};
    q.sharedFrac = 0.5; // shared fraction without shared regions
    EXPECT_EXIT(SynthWorkload(q, 0, 1), ExitedWithCode(1),
                "sharedRegions");
}

TEST(ConfigValidation, CoherenceHubFollowsSharedData)
{
    // Profiles that share data get a coherence hub under every
    // scheme, and the adaptive L3 serves them without duplicating a
    // tag.
    WorkloadProfile p;
    p.name = "sharer";
    p.regions = {{64 * 1024, 1.0, RegionPattern::Random}};
    p.sharedFrac = 0.5;
    p.sharedRegions = {{256 * 1024, 1.0, RegionPattern::Random}};
    const std::vector<WorkloadProfile> apps(4, p);
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        CmpSystem system(SystemConfig::baseline(scheme), apps, 1);
        EXPECT_NE(system.coherence(), nullptr) << to_string(scheme);
        if (scheme == L3Scheme::Adaptive) {
            system.run(100000);
            system.checkStructuralInvariants();
        }
    }

    // Fig 6's first mix shares no address: no hub.
    const ExperimentSpec mix =
        makeMixes(llcIntensiveNames(), 1, 4, 20070201).front();
    std::vector<WorkloadProfile> disjoint;
    for (const auto &name : mix.apps)
        disjoint.push_back(specProfile(name));
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     disjoint, mix.seed);
    EXPECT_EQ(system.coherence(), nullptr);
}

} // namespace
} // namespace nuca
