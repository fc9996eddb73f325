/**
 * @file
 * Checkpoint/restore: per-component round-trips, whole-system
 * bit-identical resume, structural-mismatch refusal, and the
 * content-addressed warmup cache + mid-run resume behind runMix.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/random.hh"
#include "cache/cache_set.hh"
#include "cache/mshr.hh"
#include "cache/tlb.hh"
#include "nuca/sharing_engine.hh"
#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/env_config.hh"
#include "sim/experiment.hh"
#include "sim/robustness.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(ComponentCheckpoint, RngStreamResumes)
{
    Rng a(42);
    for (int i = 0; i < 100; ++i)
        a.next();

    Serializer s;
    a.checkpoint(s);
    Rng b(7); // deliberately different state
    Deserializer d(s.bytes());
    b.restore(d);

    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(ComponentCheckpoint, RngRejectsAllZeroState)
{
    Serializer s;
    for (int i = 0; i < 4; ++i)
        s.putU64(0);
    Rng r(1);
    Deserializer d(s.bytes());
    EXPECT_THROW(r.restore(d), CheckpointError);
}

TEST(ComponentCheckpoint, CacheSetRoundTripsLruStamps)
{
    CacheSet a(4);
    auto blk = a.block(1);
    blk.tag = 0xabc;
    blk.valid = true;
    blk.dirty = true;
    blk.owner = 2;
    blk.lastUse = 77;
    a.block(3).valid = true;
    a.block(3).tag = 0x123;
    a.block(3).lastUse = 12;

    Serializer s;
    a.checkpoint(s);
    CacheSet b(4);
    Deserializer d(s.bytes());
    b.restore(d);

    EXPECT_EQ(b.findTag(0xabc), 1);
    EXPECT_EQ(b.block(1).lastUse, 77u);
    EXPECT_TRUE(b.block(1).dirty);
    EXPECT_EQ(b.block(1).owner, 2);
    EXPECT_EQ(b.lruWay(), 3);
    EXPECT_FALSE(b.block(0).valid);
}

TEST(ComponentCheckpoint, CacheSetRefusesAssocMismatch)
{
    CacheSet a(4);
    Serializer s;
    a.checkpoint(s);
    CacheSet b(8);
    Deserializer d(s.bytes());
    EXPECT_THROW(b.restore(d), CheckpointError);
}

TEST(ComponentCheckpoint, MshrFileRoundTripsEntries)
{
    stats::Group g("g");
    MshrFile a(g, "a", 4);
    a.reserve(0x1000, 10);
    a.complete(0x1000, 300);
    a.reserve(0x2000, 20);

    Serializer s;
    a.checkpoint(s);
    stats::Group g2("g2");
    MshrFile b(g2, "b", 4);
    Deserializer d(s.bytes());
    b.restore(d);

    EXPECT_EQ(b.inFlight(50), 2u);
    // The merged lookup sees the primary's ready cycle.
    EXPECT_EQ(b.lookup(0x1000, 50), 300u);
}

TEST(ComponentCheckpoint, TlbRoundTripsTranslations)
{
    stats::Group g("g");
    Tlb a(g, "a", 8, 30);
    for (Addr page = 0; page < 5; ++page)
        a.translate(page << 12);

    Serializer s;
    a.checkpoint(s);
    stats::Group g2("g2");
    Tlb b(g2, "b", 8, 30);
    Deserializer d(s.bytes());
    b.restore(d);

    // Re-translating a restored page is a hit (costs 0 cycles).
    EXPECT_EQ(b.translate(3ull << 12), 0u);
    EXPECT_EQ(b.translate(0x100ull << 12), 30u);
}

TEST(ComponentCheckpoint, SharingEngineRoundTripsEpochState)
{
    SharingEngineParams p;
    p.numCores = 4;
    p.numSets = 64;
    p.totalWays = 16;
    p.localAssoc = 4;
    p.initialQuota = 4;
    p.epochMisses = 1000;

    stats::Group g("g");
    SharingEngine a(g, p);
    a.recordEviction(3, 1, 0xdead);
    a.observeMiss(3, 1, 0xdead); // shadow hit for core 1
    a.countLruHit(2);
    a.observeMiss(5, 0, 0xbeef);

    Serializer s;
    a.checkpoint(s);
    stats::Group g2("g2");
    SharingEngine b(g2, p);
    Deserializer d(s.bytes());
    b.restore(d);

    EXPECT_EQ(b.epochProgress(), a.epochProgress());
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(b.quota(c), a.quota(c));
    // The shadow tag survived: the same miss hits it again.
    b.recordEviction(3, 1, 0xdead);
    EXPECT_TRUE(b.observeMiss(3, 1, 0xdead));
}

class SystemCheckpointTest : public ::testing::Test
{
  protected:
    static std::vector<WorkloadProfile>
    mixApps()
    {
        return {specProfile("art"), specProfile("mcf"),
                specProfile("gzip"), specProfile("ammp")};
    }

    static std::vector<std::uint8_t>
    snapshot(const CmpSystem &system)
    {
        Serializer s;
        system.checkpoint(s);
        return s.bytes();
    }
};

TEST_F(SystemCheckpointTest, RestoreThenRunIsBitIdentical)
{
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);
    constexpr std::uint64_t seed = 99;
    constexpr Cycle before = 60000, after = 40000;

    // Reference: one uninterrupted run.
    CmpSystem whole(config, mixApps(), seed);
    whole.run(before + after);

    // Candidate: run, snapshot, restore into a fresh system, resume.
    CmpSystem first(config, mixApps(), seed);
    first.run(before);
    const auto bytes = snapshot(first);

    CmpSystem resumed(config, mixApps(), seed);
    Deserializer d(bytes.data(), bytes.size());
    resumed.restore(d);
    d.expectEnd("system payload");
    EXPECT_EQ(resumed.now(), before);
    resumed.run(after);

    EXPECT_EQ(resumed.now(), whole.now());
    EXPECT_EQ(resumed.ipcs(), whole.ipcs());
    // The strongest form: every bit of simulated state agrees.
    EXPECT_EQ(snapshot(resumed), snapshot(whole));
}

TEST_F(SystemCheckpointTest, EverySchemeRoundTrips)
{
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const SystemConfig config = SystemConfig::baseline(scheme);
        CmpSystem a(config, mixApps(), 5);
        a.run(30000);
        const auto bytes = snapshot(a);

        CmpSystem b(config, mixApps(), 5);
        Deserializer d(bytes.data(), bytes.size());
        b.restore(d);
        a.run(10000);
        b.run(10000);
        EXPECT_EQ(snapshot(a), snapshot(b))
            << "scheme " << to_string(scheme);
    }
}

TEST_F(SystemCheckpointTest, RestoreRefusesDifferentStructure)
{
    CmpSystem a(SystemConfig::baseline(L3Scheme::Shared), mixApps(),
                3);
    a.run(5000);
    const auto bytes = snapshot(a);

    CmpSystem b(SystemConfig::baseline(L3Scheme::Private), mixApps(),
                3);
    Deserializer d(bytes.data(), bytes.size());
    EXPECT_THROW(b.restore(d), CheckpointError);
}

TEST_F(SystemCheckpointTest, RestoreRefusesTruncatedPayload)
{
    CmpSystem a(SystemConfig::baseline(L3Scheme::Private), mixApps(),
                3);
    a.run(5000);
    auto bytes = snapshot(a);
    bytes.resize(bytes.size() / 2);

    CmpSystem b(SystemConfig::baseline(L3Scheme::Private), mixApps(),
                3);
    Deserializer d(bytes.data(), bytes.size());
    EXPECT_THROW(b.restore(d), CheckpointError);
}

TEST(ConfigHash, SensitiveToEveryAxisItMustCover)
{
    const SystemConfig base = SystemConfig::baseline(L3Scheme::Adaptive);
    const std::uint64_t h = configHash(base);
    EXPECT_EQ(h, configHash(base)); // deterministic

    SystemConfig other = base;
    other.epochMisses += 1;
    EXPECT_NE(configHash(other), h);
    other = base;
    other.scheme = L3Scheme::Shared;
    EXPECT_NE(configHash(other), h);
    other = base;
    other.coreMem.l2d.sizeBytes *= 2;
    EXPECT_NE(configHash(other), h);
    other = base;
    other.core.ruuSize += 1;
    EXPECT_NE(configHash(other), h);

    // Workload identity and window length key the artifact name.
    const std::vector<std::string> apps = {"art", "mcf", "gzip",
                                           "ammp"};
    const auto k = warmupKey(base, apps, 1, 1000);
    EXPECT_NE(warmupKey(base, apps, 2, 1000), k);
    EXPECT_NE(warmupKey(base, apps, 1, 1001), k);
    auto swapped = apps;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(warmupKey(base, swapped, 1, 1000), k);
    EXPECT_NE(runKey(base, apps, 1, 1000, 500),
              runKey(base, apps, 1, 1000, 501));
}

/** runMix under a private temp checkpoint dir; cleans the files. */
class WarmupCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "ckpt_cache_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        spec_.apps = {"art", "mcf", "gzip", "ammp"};
        spec_.seed = 1234;
        window_.warmupCycles = 20000;
        window_.measureCycles = 30000;
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** A run policy that caches checkpoints under dir_. */
    RunPolicy
    cached() const
    {
        RunPolicy policy;
        policy.ckpt.dir = dir_;
        return policy;
    }

    std::string dir_;
    SystemConfig config_ = SystemConfig::baseline(L3Scheme::Adaptive);
    ExperimentSpec spec_;
    SimWindow window_;
};

TEST_F(WarmupCacheTest, CachedWarmupReproducesColdResult)
{
    const MixResult cold = runMix(config_, spec_, window_);

    const RunPolicy policy = cached();
    const MixResult populate =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(populate.ipc, cold.ipc);

    // The warmup artifact exists and a second run reuses it.
    const auto warm = warmupPath(
        policy.ckpt,
        warmupKey(config_, spec_.apps, spec_.seed,
                  window_.warmupCycles));
    ASSERT_TRUE(checkpointFileExists(warm));
    const auto bytes = [&] {
        std::ifstream in(warm, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string written = bytes();

    const MixResult reused =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(reused.ipc, cold.ipc);
    EXPECT_EQ(reused.l3AccessesPerKilocycle,
              cold.l3AccessesPerKilocycle);
    // Reuse must not rewrite the artifact's content (its mtime does
    // refresh — restores count as use for the LRU prune).
    EXPECT_EQ(bytes(), written);
}

TEST_F(WarmupCacheTest, CorruptArtifactFallsBackToSimulation)
{
    const RunPolicy policy = cached();
    const MixResult cold = runMix(config_, spec_, window_, "", policy);

    const auto warm = warmupPath(
        policy.ckpt,
        warmupKey(config_, spec_.apps, spec_.seed,
                  window_.warmupCycles));
    ASSERT_TRUE(checkpointFileExists(warm));
    // Truncate the artifact; the loader must warn and re-simulate.
    std::filesystem::resize_file(warm, 64);

    const MixResult fallback =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(fallback.ipc, cold.ipc);
}

TEST_F(WarmupCacheTest, PeriodicCheckpointsResumeAKilledRun)
{
    const MixResult whole = runMix(config_, spec_, window_);

    RunPolicy policy = cached();
    policy.ckpt.period = 8000;
    // Kill the job mid-measurement via the cycle budget: the last
    // periodic snapshot (warmup 20000 + chunks at 28000, 36000)
    // stays behind.
    RunPolicy killed = policy;
    killed.robust.maxCycles = 40000;
    EXPECT_THROW(runMix(config_, spec_, window_, "", killed),
                 CycleBudgetExceeded);

    const auto run = runPath(
        policy.ckpt,
        runKey(config_, spec_.apps, spec_.seed, window_.warmupCycles,
               window_.measureCycles));
    ASSERT_TRUE(checkpointFileExists(run));

    // The resumed run finishes from the snapshot and matches the
    // uninterrupted result exactly; success removes the artifact.
    policy.resume = true;
    const MixResult resumed =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(resumed.ipc, whole.ipc);
    EXPECT_EQ(resumed.l3AccessesPerKilocycle,
              whole.l3AccessesPerKilocycle);
    EXPECT_FALSE(checkpointFileExists(run));
}

/** REPRO_CKPT_MAX_MB: size-capped LRU pruning of the cache dir. */
class CheckpointPruneTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "ckpt_prune_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Write a 512 KiB artifact with an mtime @p age_s back. */
    std::string
    artifact(const std::string &name, int age_s)
    {
        const std::string path = dir_ + "/" + name + ".ckpt";
        {
            std::vector<char> blob(512 * 1024, 'x');
            std::FILE *f = std::fopen(path.c_str(), "wb");
            std::fwrite(blob.data(), 1, blob.size(), f);
            std::fclose(f);
        }
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now() -
                      std::chrono::seconds(age_s));
        return path;
    }

    std::string dir_;
};

TEST_F(CheckpointPruneTest, OldestArtifactsGoFirstUnderTheCap)
{
    // Four 512 KiB artifacts = 2 MiB; a 1 MiB cap must evict the two
    // least-recently-used ones and keep the newest two.
    const std::string oldest = artifact("a", 400);
    const std::string older = artifact("b", 300);
    const std::string newer = artifact("c", 200);
    const std::string newest = artifact("d", 100);

    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.maxMb = 1;
    EXPECT_EQ(pruneCheckpointDir(cfg), 2u);
    EXPECT_FALSE(std::filesystem::exists(oldest));
    EXPECT_FALSE(std::filesystem::exists(older));
    EXPECT_TRUE(std::filesystem::exists(newer));
    EXPECT_TRUE(std::filesystem::exists(newest));
}

TEST_F(CheckpointPruneTest, NoCapMeansNoPruning)
{
    artifact("a", 400);
    artifact("b", 300);
    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.maxMb = 0; // unbounded
    EXPECT_EQ(pruneCheckpointDir(cfg), 0u);
    EXPECT_EQ(pruneCheckpointDir(CheckpointConfig{}), 0u);
}

TEST_F(CheckpointPruneTest, NonCheckpointFilesAreIgnored)
{
    artifact("a", 400);
    const std::string stranger = dir_ + "/README.txt";
    {
        std::FILE *f = std::fopen(stranger.c_str(), "wb");
        std::fputs("not a checkpoint", f);
        std::fclose(f);
    }
    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.maxMb = 1; // 512 KiB artifact fits: nothing to prune
    EXPECT_EQ(pruneCheckpointDir(cfg), 0u);
    EXPECT_TRUE(std::filesystem::exists(stranger));
}

TEST_F(CheckpointPruneTest, RestoreTouchKeepsHotArtifactsAlive)
{
    // tryRestoreCheckpoint bumps its artifact's mtime, so a restored
    // (hot) artifact outlives an untouched (cold) one at prune time.
    ExperimentSpec spec;
    spec.apps = {"art", "mcf", "gzip", "ammp"};
    spec.seed = 1234;
    const SimWindow window{20000, 30000};
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);

    RunPolicy policy;
    policy.ckpt.dir = dir_;
    // Populates the warmup artifact.
    runMix(config, spec, window, "", policy);

    const std::string warm = warmupPath(
        policy.ckpt, warmupKey(config, spec.apps, spec.seed,
                       window.warmupCycles));
    ASSERT_TRUE(std::filesystem::exists(warm));
    std::filesystem::last_write_time(
        warm, std::filesystem::file_time_type::clock::now() -
                  std::chrono::hours(24));
    const auto stale = std::filesystem::last_write_time(warm);

    // A restoring run marks the artifact as used...
    runMix(config, spec, window, "", policy);
    EXPECT_GT(std::filesystem::last_write_time(warm), stale);
}

TEST(CheckpointConfigEnv, ReadsMaxMbKnob)
{
    ::setenv("REPRO_CKPT_MAX_MB", "64", 1);
    EXPECT_EQ(checkpointFromEnv().maxMb, 64u);
    ::unsetenv("REPRO_CKPT_MAX_MB");
    EXPECT_EQ(checkpointFromEnv().maxMb, 0u);
}

} // namespace
} // namespace nuca
