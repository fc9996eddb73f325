/** @file Tests for the multiprogrammed experiment methodology. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>

#include "sim/cmp_system.hh"
#include "sim/env_config.hh"
#include "sim/experiment.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(Experiment, MixesDrawFromPoolOnly)
{
    const std::vector<std::string> pool = {"mcf", "gzip", "ammp"};
    const auto mixes = makeMixes(pool, 20, 4, 99);
    ASSERT_EQ(mixes.size(), 20u);
    for (const auto &mix : mixes) {
        ASSERT_EQ(mix.apps.size(), 4u);
        for (const auto &app : mix.apps) {
            EXPECT_TRUE(app == "mcf" || app == "gzip" ||
                        app == "ammp")
                << app;
        }
    }
}

TEST(Experiment, MixesAreSeededDeterministically)
{
    const auto pool = llcIntensiveNames();
    const auto a = makeMixes(pool, 10, 4, 5);
    const auto b = makeMixes(pool, 10, 4, 5);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].apps, b[i].apps);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
    const auto c = makeMixes(pool, 10, 4, 6);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= a[i].apps != c[i].apps || a[i].seed != c[i].seed;
    EXPECT_TRUE(any_diff);
}

TEST(Experiment, MixesVaryAcrossExperiments)
{
    const auto pool = allProfileNames();
    const auto mixes = makeMixes(pool, 30, 4, 7);
    std::set<std::vector<std::string>> distinct;
    for (const auto &mix : mixes)
        distinct.insert(mix.apps);
    EXPECT_GT(distinct.size(), 25u);
}

TEST(Experiment, RunMixProducesPerCoreResults)
{
    SimWindow window{5000, 20000};
    ExperimentSpec spec{{"eon", "mesa", "crafty", "wupwise"}, 11};
    const auto result =
        runMix(SystemConfig::baseline(L3Scheme::Private), spec,
               window);
    ASSERT_EQ(result.ipc.size(), 4u);
    ASSERT_EQ(result.l3AccessesPerKilocycle.size(), 4u);
    for (const double ipc : result.ipc)
        EXPECT_GT(ipc, 0.0);
}

/** Stats dump of a directly built system after a short run. */
std::string
directRunStats(const SystemConfig &config)
{
    CmpSystem system(config,
                     {specProfile("mcf"), specProfile("gzip"),
                      specProfile("ammp"), specProfile("art")},
                     11);
    EXPECT_TRUE(system.fastForwardEnabled());
    system.run(20000);
    std::ostringstream os;
    system.statsRoot().dump(os);
    return os.str();
}

TEST(Experiment, LibraryIgnoresTheEnvironment)
{
    // Configuration reaches the library only as arguments: variables
    // that would change the loop, cut the run short, plant a fault,
    // cache checkpoints or write a trace must not reach a system
    // built from a config, nor runMix(config, spec, window).
    const SystemConfig config = SystemConfig::baseline(L3Scheme::Adaptive);
    const ExperimentSpec spec{{"mcf", "gzip", "ammp", "art"}, 7};
    const SimWindow window{10000, 20000};
    const std::string cleanStats = directRunStats(config);
    const MixResult clean = runMix(config, spec, window);

    const std::string tmp =
        ::testing::TempDir() + "nuca_library_ignores_env";
    std::filesystem::remove_all(tmp);
    std::filesystem::create_directories(tmp);
    const std::vector<std::pair<const char *, std::string>> knobs = {
        {"REPRO_FASTFWD", "0"},
        {"REPRO_MAX_CYCLES", "1"},
        {"REPRO_FAULT", "channel_stall"},
        {"REPRO_CKPT_DIR", tmp},
        {"REPRO_TRACE", tmp + "/t.jsonl"}};
    for (const auto &[name, value] : knobs)
        ::setenv(name, value.c_str(), 1);
    const std::string envStats = directRunStats(config);
    const MixResult env = runMix(config, spec, window);
    for (const auto &[name, value] : knobs)
        ::unsetenv(name);

    EXPECT_EQ(envStats, cleanStats);
    EXPECT_EQ(env.ipc, clean.ipc);
    EXPECT_EQ(env.l3AccessesPerKilocycle, clean.l3AccessesPerKilocycle);
    EXPECT_TRUE(std::filesystem::is_empty(tmp));
    std::filesystem::remove_all(tmp);
}

TEST(Experiment, EnvOverrideParsesNumbers)
{
    ::setenv("NUCA_TEST_ENV_VALUE", "12345", 1);
    EXPECT_EQ(envOr("NUCA_TEST_ENV_VALUE", 1), 12345u);
    ::unsetenv("NUCA_TEST_ENV_VALUE");
    EXPECT_EQ(envOr("NUCA_TEST_ENV_VALUE", 42), 42u);
    ::setenv("NUCA_TEST_ENV_EMPTY", "", 1);
    EXPECT_EQ(envOr("NUCA_TEST_ENV_EMPTY", 7), 7u);
    ::unsetenv("NUCA_TEST_ENV_EMPTY");
}

TEST(Experiment, EnvOverrideRejectsNegativeNumbers)
{
    // strtoull would silently wrap "-1" to 2^64-1 — a sweep asked
    // for -1 mixes must fail fast instead of hanging.
    ::setenv("NUCA_TEST_ENV_VALUE", "-1", 1);
    EXPECT_EXIT(envOr("NUCA_TEST_ENV_VALUE", 1),
                testing::ExitedWithCode(1), "must be non-negative");
    ::setenv("NUCA_TEST_ENV_VALUE", "  -5", 1);
    EXPECT_EXIT(envOr("NUCA_TEST_ENV_VALUE", 1),
                testing::ExitedWithCode(1), "must be non-negative");
    ::unsetenv("NUCA_TEST_ENV_VALUE");
}

TEST(Experiment, EnvOverrideRejectsOverflow)
{
    // 2^64 saturates strtoull with ERANGE; reject instead.
    ::setenv("NUCA_TEST_ENV_VALUE", "18446744073709551616", 1);
    EXPECT_EXIT(envOr("NUCA_TEST_ENV_VALUE", 1),
                testing::ExitedWithCode(1), "overflows 64 bits");
    ::unsetenv("NUCA_TEST_ENV_VALUE");
}

TEST(Experiment, EnvOverrideRejectsTrailingGarbage)
{
    ::setenv("NUCA_TEST_ENV_VALUE", "123abc", 1);
    EXPECT_EXIT(envOr("NUCA_TEST_ENV_VALUE", 1),
                testing::ExitedWithCode(1), "not a number");
    ::setenv("NUCA_TEST_ENV_VALUE", "abc", 1);
    EXPECT_EXIT(envOr("NUCA_TEST_ENV_VALUE", 1),
                testing::ExitedWithCode(1), "not a number");
    ::unsetenv("NUCA_TEST_ENV_VALUE");
}

TEST(Experiment, EnvOverrideStillAcceptsMaxUint64)
{
    ::setenv("NUCA_TEST_ENV_VALUE", "18446744073709551615", 1);
    EXPECT_EQ(envOr("NUCA_TEST_ENV_VALUE", 1),
              18446744073709551615ull);
    ::unsetenv("NUCA_TEST_ENV_VALUE");
}

TEST(Experiment, WindowFromEnvUsesDefaults)
{
    ::unsetenv("REPRO_WARMUP_CYCLES");
    ::unsetenv("REPRO_MEASURE_CYCLES");
    const auto window = windowFromEnv(111, 222);
    EXPECT_EQ(window.warmupCycles, 111u);
    EXPECT_EQ(window.measureCycles, 222u);

    ::setenv("REPRO_WARMUP_CYCLES", "333", 1);
    ::setenv("REPRO_MEASURE_CYCLES", "444", 1);
    const auto overridden = windowFromEnv(111, 222);
    EXPECT_EQ(overridden.warmupCycles, 333u);
    EXPECT_EQ(overridden.measureCycles, 444u);
    ::unsetenv("REPRO_WARMUP_CYCLES");
    ::unsetenv("REPRO_MEASURE_CYCLES");
}

} // namespace
} // namespace nuca
