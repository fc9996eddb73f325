#include "service/result_cache.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "service/job_spec.hh"
#include "sim/checkpoint.hh"
#include "sim/json_writer.hh"
#include "sim/sweep_store.hh"
#include "support/mutation.hh"

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
        result.l1dMissRatio = {0.1, 0.7, 1.0 / 7.0, 0.0};
        result.l2dMissRatio = {0.5, 0.1 + 0.7, 1.0, 0.25};
        result.l3MissRatio = {0.0, 0.9, 0.3333333333333333, 1e-12};
        result.mispredictRate = {0.05, 0.01, 0.125, 2.0 / 3.0};
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
    const std::string hex = std::filesystem::path(cache.pathFor(key))
                                .filename()
                                .string()
                                .substr(0, 16);
    // A torn file, well-formed JSON whose payload is mistyped, and
    // a Mix payload from before the per-core miss ratios and
    // mispredict rates existed: each must be dropped rather than
    // served (or abort the reader).
    for (const std::string &corrupt :
         {std::string("{\"key\": \"truncated"),
          "{\"key\":\"" + hex + "\",\"result\":{\"ipc\":[\"x\"]}}",
          "{\"key\":\"" + hex +
              "\",\"result\":{\"ipc\":[0.5],\"l3apk\":[12.5]}}",
          "{\"key\":\"" + hex + "\",\"result\":{\"l3apk\":\"x\"}}",
          "{\"key\":\"" + hex + "\",\"result\":7}"}) {
        cache.put(key, spec, sampleResult());
        {
            std::ofstream out(cache.pathFor(key),
                              std::ios::trunc | std::ios::binary);
            out << corrupt;
        }
        EXPECT_FALSE(cache.get(key).has_value()) << corrupt;
        EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)))
            << corrupt;
    }
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

TEST_F(ResultCacheTest, BlockedTempPathWarnsInsteadOfExiting)
{
    const ResultCache cache(dir_);
    const JobSpec spec = sampleSpec();
    const std::uint64_t key = spec.resultKey();
    // A directory where the entry's temporary file goes: the write
    // cannot even open (chmod would not stop root).
    std::filesystem::create_directories(cache.pathFor(key) + ".tmp");

    ::testing::internal::CaptureStderr();
    cache.put(key, spec, sampleResult());
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("not stored"), std::string::npos) << warning;
    EXPECT_FALSE(cache.get(key).has_value());
    EXPECT_EQ(cache.count(), 0u);

    // Once the path is free again, the same put stores the entry.
    std::filesystem::remove(cache.pathFor(key) + ".tmp");
    cache.put(key, spec, sampleResult());
    EXPECT_TRUE(cache.get(key).has_value());
}

/**
 * The reference reading of an entry: json::Value::tryParse, then the
 * shape, key and mixResultFromJson checks ResultCache::get applies.
 */
std::optional<MixResult>
treeEntry(const std::string &text, const std::string &hex)
{
    const auto doc = json::Value::tryParse(text);
    if (!doc || doc->type() != json::Value::Type::Object ||
        !doc->contains("key") ||
        doc->at("key").type() != json::Value::Type::String ||
        !doc->contains("result") || doc->at("key").asString() != hex)
        return std::nullopt;
    try {
        return mixResultFromJson(doc->at("result"));
    } catch (const SimulationError &) {
        return std::nullopt;
    }
}

/** get() over every flip and truncation of a stored entry. */
class ResultCacheMutation : public ResultCacheTest
{
};

TEST_F(ResultCacheMutation, ServesWhatTheTreeReadsOrDropsTheEntry)
{
    const ResultCache cache(dir_);
    JobSpec curveSpec;
    curveSpec.kind = JobKind::MissCurve;
    curveSpec.apps = {"mcf"};
    curveSpec.insts = 1000;
    MixResult curve;
    curve.curve = {1048576.0, 524288.5, 0.1, 0.0};

    for (const auto &[spec, stored] :
         {std::pair{sampleSpec(), sampleResult()},
          std::pair{curveSpec, curve}}) {
        const std::uint64_t key = spec.resultKey();
        const std::string path = cache.pathFor(key);
        cache.put(key, spec, stored);
        std::string clean;
        {
            std::ifstream in(path, std::ios::binary);
            clean.assign(std::istreambuf_iterator<char>(in), {});
        }
        ASSERT_FALSE(clean.empty());

        std::size_t served = 0, dropped = 0;
        forEachMutation(clean, [&](const std::string &mutant,
                                   const std::string &what) {
            {
                std::ofstream out(path,
                                  std::ios::trunc | std::ios::binary);
                out << mutant;
            }
            const std::optional<MixResult> tree =
                treeEntry(mutant, hex16(key));
            std::optional<MixResult> got;
            ::testing::internal::CaptureStderr();
            ASSERT_NO_THROW(got = cache.get(key)) << what;
            ::testing::internal::GetCapturedStderr();
            ASSERT_EQ(got.has_value(), tree.has_value()) << what;
            if (tree) {
                ++served;
                // Bit for bit: the same bytes on re-encoding.
                EXPECT_EQ(mixResultToJson(*got).dump(),
                          mixResultToJson(*tree).dump())
                    << what;
                EXPECT_TRUE(std::filesystem::exists(path)) << what;
            } else {
                ++dropped;
                EXPECT_FALSE(std::filesystem::exists(path)) << what;
            }
        });
        EXPECT_GT(served, 0u);
        EXPECT_GT(dropped, 0u);
    }
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
