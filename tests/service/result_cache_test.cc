#include "service/result_cache.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "service/job_spec.hh"
#include "sim/sweep_store.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The pid keeps concurrent test processes (one per test
        // under parallel ctest) out of each other's directories.
        dir_ = (std::filesystem::temp_directory_path() /
                ("nuca_result_cache_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++)))
                   .string();
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    static MixResult
    sampleResult()
    {
        MixResult result;
        // Deliberately awkward doubles: the codec must round-trip
        // them exactly for byte-identical cache hits.
        result.ipc = {0.1 + 0.2, 1.0 / 3.0, 0.9999999999999999,
                      2.5};
        result.l3AccessesPerKilocycle = {12.000000000000002, 0.0,
                                         7.5, 1e-9};
        return result;
    }

    static JobSpec
    sampleSpec()
    {
        JobSpec spec;
        spec.apps = {"mcf", "gzip", "ammp", "art"};
        spec.seed = 42;
        spec.warmupCycles = 20000;
        spec.measureCycles = 40000;
        return spec;
    }

    std::string dir_;
    static int counter_;
};

int ResultCacheTest::counter_ = 0;

TEST_F(ResultCacheTest, MissesWhenEmptyThenHitsAfterPut)
{
    const ResultCache cache(dir_);
    const JobSpec spec = sampleSpec();
    const std::uint64_t key = spec.resultKey();

    EXPECT_FALSE(cache.get(key).has_value());

    const MixResult stored = sampleResult();
    cache.put(key, spec, stored);
    const auto loaded = cache.get(key);
    ASSERT_TRUE(loaded.has_value());

    // Byte-identical, not approximately equal: the daemon's repeat
    // submissions must serialize to the same bytes as the first run.
    EXPECT_EQ(mixResultToJson(*loaded).dump(),
              mixResultToJson(stored).dump());
    EXPECT_EQ(cache.count(), 1u);
}

TEST_F(ResultCacheTest, DifferentConfigIsADifferentEntry)
{
    const ResultCache cache(dir_);
    JobSpec spec = sampleSpec();
    cache.put(spec.resultKey(), spec, sampleResult());

    // Changing the scheme changes the key, so the changed config
    // misses — the "invalidation" is structural, not time-based.
    JobSpec changed = spec;
    changed.scheme = "private";
    EXPECT_NE(changed.resultKey(), spec.resultKey());
    EXPECT_FALSE(cache.get(changed.resultKey()).has_value());

    JobSpec longer = spec;
    longer.measureCycles *= 2;
    EXPECT_FALSE(cache.get(longer.resultKey()).has_value());
}

TEST_F(ResultCacheTest, CorruptEntryIsAMissAndIsDropped)
{
    const ResultCache cache(dir_);
    const JobSpec spec = sampleSpec();
    const std::uint64_t key = spec.resultKey();
    cache.put(key, spec, sampleResult());

    {
        std::ofstream out(cache.pathFor(key),
                          std::ios::trunc | std::ios::binary);
        out << "{\"key\": \"truncated";
    }
    EXPECT_FALSE(cache.get(key).has_value());
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)));
}

TEST_F(ResultCacheTest, KeyMismatchIsAMiss)
{
    const ResultCache cache(dir_);
    const JobSpec spec = sampleSpec();
    const std::uint64_t key = spec.resultKey();
    cache.put(key, spec, sampleResult());

    // A file renamed to another key's slot must not serve that key.
    const std::uint64_t other = key ^ 1;
    std::filesystem::copy_file(cache.pathFor(key),
                               cache.pathFor(other));
    EXPECT_FALSE(cache.get(other).has_value());
    // ...and the impostor is gone, while the real entry still hits.
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(other)));
    EXPECT_TRUE(cache.get(key).has_value());
}

TEST_F(ResultCacheTest, DisabledCacheNeverHitsAndNeverWrites)
{
    const ResultCache cache{""};
    EXPECT_FALSE(cache.enabled());
    const JobSpec spec = sampleSpec();
    cache.put(spec.resultKey(), spec, sampleResult());
    EXPECT_FALSE(cache.get(spec.resultKey()).has_value());
    EXPECT_EQ(cache.count(), 0u);
}

TEST_F(ResultCacheTest, CurvePayloadRoundTrips)
{
    const ResultCache cache(dir_);
    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"mcf"};
    spec.insts = 1000;

    MixResult result;
    result.curve = {1048576.0, 524288.0, 262144.0, 131072.0};
    cache.put(spec.resultKey(), spec, result);

    const auto loaded = cache.get(spec.resultKey());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->curve, result.curve);
}

} // namespace
