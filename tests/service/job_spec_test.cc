#include "service/job_spec.hh"

#include <gtest/gtest.h>

#include "sim/json_writer.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

JobSpec
validMix()
{
    JobSpec spec;
    spec.kind = JobKind::Mix;
    spec.scheme = "adaptive";
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = 0xdeadbeefcafe1234ull;
    spec.warmupCycles = 20000;
    spec.measureCycles = 40000;
    spec.tenant = "alice";
    spec.priority = 3;
    return spec;
}

TEST(JobSpecTest, RoundTripsThroughJson)
{
    const JobSpec spec = validMix();
    const JobSpec back = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.kind, JobKind::Mix);
    EXPECT_EQ(back.base, spec.base);
    EXPECT_EQ(back.scheme, spec.scheme);
    EXPECT_EQ(back.apps, spec.apps);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.warmupCycles, spec.warmupCycles);
    EXPECT_EQ(back.measureCycles, spec.measureCycles);
    EXPECT_EQ(back.tenant, spec.tenant);
    EXPECT_EQ(back.priority, spec.priority);
    EXPECT_EQ(back.resultKey(), spec.resultKey());
}

TEST(JobSpecTest, SeedSurvivesAbove53Bits)
{
    // A raw JSON number would round 2^53+1; the codec ships seeds as
    // decimal strings.
    JobSpec spec = validMix();
    spec.seed = (1ull << 53) + 1;
    const JobSpec back = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.seed, (1ull << 53) + 1);
}

TEST(JobSpecTest, MissCurveRoundTrip)
{
    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"mcf"};
    spec.insts = 123456;
    const JobSpec back = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.kind, JobKind::MissCurve);
    EXPECT_EQ(back.insts, 123456u);
    EXPECT_EQ(back.resultKey(), spec.resultKey());
}

TEST(JobSpecTest, RejectsUnknownNames)
{
    JobSpec spec = validMix();
    spec.scheme = "psychic";
    EXPECT_THROW(spec.validate(), SpecError);

    spec = validMix();
    spec.base = "imaginary";
    EXPECT_THROW(spec.validate(), SpecError);

    spec = validMix();
    spec.apps[2] = "nonexistent_app";
    EXPECT_THROW(spec.validate(), SpecError);
}

TEST(JobSpecTest, RejectsWrongAppCount)
{
    JobSpec spec = validMix();
    spec.apps = {"mcf", "gzip"};
    EXPECT_THROW(spec.validate(), SpecError);

    JobSpec curve;
    curve.kind = JobKind::MissCurve;
    curve.apps = {"mcf", "gzip"};
    EXPECT_THROW(curve.validate(), SpecError);
}

TEST(JobSpecTest, IdleProfileIsSubmittable)
{
    // fig05-style characterization mixes pad with idle cores.
    JobSpec spec = validMix();
    spec.scheme = "private";
    spec.apps = {"mcf", "idle", "idle", "idle"};
    EXPECT_NO_THROW(spec.validate());
}

TEST(JobSpecTest, FromJsonRejectsMalformedShapes)
{
    EXPECT_THROW(JobSpec::fromJson(json::Value(3.0)), SpecError);
    EXPECT_THROW(JobSpec::fromJson(json::Value::object()),
                 SpecError); // no apps
    json::Value bad = json::Value::object();
    bad.set("apps", "not-an-array");
    EXPECT_THROW(JobSpec::fromJson(bad), SpecError);
    bad = json::Value::object();
    json::Value apps = json::Value::array();
    apps.append(7);
    bad.set("apps", std::move(apps));
    EXPECT_THROW(JobSpec::fromJson(bad), SpecError);
}

TEST(JobSpecTest, FromJsonRejectsInexactNumbers)
{
    // Counts are exact non-negative integers below 2^64: a fraction
    // is not silently truncated and 2^64 does not wrap.
    for (const char *field : {"warmup_cycles", "measure_cycles",
                              "insts", "seed"}) {
        for (const double bad : {1.5, 0x1p64, 1e300, -1.0}) {
            json::Value obj = validMix().toJson();
            obj.set(field, bad);
            EXPECT_THROW(JobSpec::fromJson(obj), SpecError)
                << field << "=" << bad;
        }
    }
    for (const char *bad : {"-1", "18446744073709551616", "12x"}) {
        json::Value obj = validMix().toJson();
        obj.set("seed", bad);
        EXPECT_THROW(JobSpec::fromJson(obj), SpecError) << bad;
    }
    // A priority must be an int: integral and in int's range.
    for (const double bad : {1.5, 1e10, -1e10}) {
        json::Value obj = validMix().toJson();
        obj.set("priority", bad);
        EXPECT_THROW(JobSpec::fromJson(obj), SpecError) << bad;
    }
    json::Value obj = validMix().toJson();
    obj.set("priority", -7.0);
    obj.set("seed", 42.0);
    const JobSpec ok = JobSpec::fromJson(obj);
    EXPECT_EQ(ok.priority, -7);
    EXPECT_EQ(ok.seed, 42u);
}

// The whole point of the result cache key: any knob that changes the
// simulated run changes the key, and nothing else does.
TEST(JobSpecTest, ResultKeyCoversSchemeMixAndRunLength)
{
    const JobSpec spec = validMix();
    const std::uint64_t key = spec.resultKey();

    JobSpec other = spec;
    other.scheme = "private";
    EXPECT_NE(other.resultKey(), key);

    other = spec;
    other.seed += 1;
    EXPECT_NE(other.resultKey(), key);

    other = spec;
    other.apps[0] = "twolf";
    EXPECT_NE(other.resultKey(), key);

    other = spec;
    other.measureCycles += 1;
    EXPECT_NE(other.resultKey(), key);

    other = spec;
    other.base = "large8mb";
    EXPECT_NE(other.resultKey(), key);

    // Scheduling metadata must NOT change the key: the same
    // simulation submitted by another tenant is the same result.
    other = spec;
    other.tenant = "bob";
    other.priority = -2;
    other.label = "renamed";
    EXPECT_EQ(other.resultKey(), key);
}

TEST(JobSpecTest, MissCurveKeyCoversAppAndLength)
{
    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"mcf"};
    spec.insts = 100000;
    const std::uint64_t key = spec.resultKey();

    JobSpec other = spec;
    other.apps = {"gzip"};
    EXPECT_NE(other.resultKey(), key);

    other = spec;
    other.insts = 100001;
    EXPECT_NE(other.resultKey(), key);

    // Mix fields are irrelevant to a miss-curve replay.
    other = spec;
    other.scheme = "private";
    other.seed = 99;
    EXPECT_EQ(other.resultKey(), key);
}

TEST(JobSpecTest, QuadPrivateImpliesPrivateScheme)
{
    JobSpec spec = validMix();
    spec.base = "quad_private";
    spec.scheme = "adaptive";
    EXPECT_THROW(spec.config(), SpecError);
    spec.scheme = "private";
    EXPECT_EQ(spec.config().numCores, 4u);
}

} // namespace
