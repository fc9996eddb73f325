/** @file Tests pinning the system configurations to Table 1 and the
 * evaluation section's variants. */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/system_config.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(SystemConfig, Table1Baseline)
{
    const auto cfg = SystemConfig::baseline(L3Scheme::Adaptive);
    EXPECT_EQ(cfg.numCores, 4u);

    // Core structures.
    EXPECT_EQ(cfg.core.ruuSize, 128u);
    EXPECT_EQ(cfg.core.lsqSize, 64u);
    EXPECT_EQ(cfg.core.fetchQueueSize, 4u);
    EXPECT_EQ(cfg.core.fetchWidth, 4u);
    EXPECT_EQ(cfg.core.issueWidth, 4u);
    EXPECT_EQ(cfg.core.commitWidth, 4u);
    EXPECT_EQ(cfg.core.mispredictPenalty, 7u);

    // Predictor.
    EXPECT_EQ(cfg.core.predictor.bimodalEntries, 4096u);
    EXPECT_EQ(cfg.core.predictor.historyEntries, 1024u);
    EXPECT_EQ(cfg.core.predictor.historyBits, 10u);
    EXPECT_EQ(cfg.core.predictor.chooserEntries, 4096u);
    EXPECT_EQ(cfg.core.predictor.btbEntries, 512u);
    EXPECT_EQ(cfg.core.predictor.btbAssoc, 4u);

    // Functional units.
    EXPECT_EQ(cfg.core.funcUnits.intAlus, 4u);
    EXPECT_EQ(cfg.core.funcUnits.fpAlus, 4u);
    EXPECT_EQ(cfg.core.funcUnits.intMultDiv, 1u);
    EXPECT_EQ(cfg.core.funcUnits.fpMultDiv, 1u);

    // Hierarchy.
    EXPECT_EQ(cfg.coreMem.l1i.sizeBytes, 64ull << 10);
    EXPECT_EQ(cfg.coreMem.l1i.assoc, 2u);
    EXPECT_EQ(cfg.coreMem.l1i.hitLatency, 2u);
    EXPECT_EQ(cfg.coreMem.l1d.hitLatency, 3u);
    EXPECT_EQ(cfg.coreMem.l2i.sizeBytes, 128ull << 10);
    EXPECT_EQ(cfg.coreMem.l2d.sizeBytes, 256ull << 10);
    EXPECT_EQ(cfg.coreMem.l2d.hitLatency, 9u);
    EXPECT_EQ(cfg.coreMem.tlbEntries, 128u);
    EXPECT_EQ(cfg.coreMem.tlbMissPenalty, 30u);

    // L3 and memory.
    EXPECT_EQ(cfg.l3SizePerCoreBytes, 1ull << 20);
    EXPECT_EQ(cfg.l3LocalAssoc, 4u);
    EXPECT_EQ(cfg.l3LocalLatency, 14u);
    EXPECT_EQ(cfg.l3SharedLatency, 19u);
    EXPECT_EQ(cfg.memFirstChunkShared, 260u);
    EXPECT_EQ(cfg.memFirstChunkPrivate, 258u);
    EXPECT_EQ(cfg.epochMisses, 2000u);
}

TEST(SystemConfig, QuadSizePrivateIsFourTimesLarger)
{
    const auto cfg = SystemConfig::quadSizePrivate();
    EXPECT_EQ(cfg.scheme, L3Scheme::Private);
    EXPECT_EQ(cfg.l3SizePerCoreBytes, 4ull << 20);
    EXPECT_EQ(cfg.l3LocalAssoc, 16u);
    EXPECT_EQ(cfg.l3LocalLatency, 14u);
}

TEST(SystemConfig, Large8MBKeepsTiming)
{
    const auto cfg = SystemConfig::large8MB(L3Scheme::Shared);
    EXPECT_EQ(cfg.l3SizePerCoreBytes, 2ull << 20);
    EXPECT_EQ(cfg.l3SharedLatency, 19u);
    EXPECT_EQ(cfg.l3LocalLatency, 14u);
}

TEST(SystemConfig, ScaledTechMatchesSection45)
{
    const auto cfg = SystemConfig::scaledTech(L3Scheme::Adaptive);
    EXPECT_EQ(cfg.coreMem.l2i.hitLatency, 11u);
    EXPECT_EQ(cfg.coreMem.l2d.hitLatency, 11u);
    EXPECT_EQ(cfg.l3LocalLatency, 16u);
    EXPECT_EQ(cfg.l3SharedLatency, 24u);
    EXPECT_EQ(cfg.memFirstChunkPrivate, 330u);
    EXPECT_EQ(cfg.memFirstChunkShared, 338u);
    // L1 latencies are close to the core and do not scale.
    EXPECT_EQ(cfg.coreMem.l1d.hitLatency, 3u);
}

TEST(SystemConfig, SchemeNames)
{
    EXPECT_EQ(to_string(L3Scheme::Private), "private");
    EXPECT_EQ(to_string(L3Scheme::Shared), "shared");
    EXPECT_EQ(to_string(L3Scheme::Adaptive), "adaptive");
    EXPECT_EQ(to_string(L3Scheme::RandomReplacement),
              "random-replacement");
}

TEST(ConfigCodec, EveryFieldRoundTripsAndMovesTheDigest)
{
    // Each field, moved to another value the codec accepts, shows up
    // in the overrides under its own name alone, comes back through
    // them, and changes the config digest: the table reaches every
    // field the digest encodes.
    const SystemConfig base = SystemConfig::baseline(L3Scheme::Adaptive);
    std::set<std::string> names;
    for (const ConfigField &field : configFields()) {
        if (std::string(field.name) == "scheme")
            continue; // a different preset, covered below
        EXPECT_TRUE(names.insert(field.name).second) << field.name;
        const std::uint64_t value = field.get(base);
        SystemConfig changed = base;
        bool found = false;
        for (const std::uint64_t v :
             {value * 2, value / 2, value + 1, value - 1, field.min,
              field.max}) {
            changed = base;
            field.set(changed, v);
            if (v != value && v >= field.min && v <= field.max &&
                configError(changed).empty()) {
                found = true;
                break;
            }
        }
        ASSERT_TRUE(found) << field.name;
        const json::Value overrides = configOverrides(changed, base);
        ASSERT_EQ(overrides.size(), 1u) << field.name;
        EXPECT_TRUE(overrides.contains(field.name));
        const SystemConfig back = applyConfigOverrides(
            base, json::Value::parse(overrides.dump()));
        EXPECT_EQ(configHash(back), configHash(changed)) << field.name;
        EXPECT_NE(configHash(changed), configHash(base)) << field.name;
    }
}

TEST(ConfigCodec, PresetsRoundTripThroughOverrides)
{
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const SystemConfig base = SystemConfig::baseline(scheme);
        for (const SystemConfig &config :
             {SystemConfig::large8MB(scheme), SystemConfig::scaledTech(scheme),
              SystemConfig::quadSizePrivate()}) {
            if (config.scheme != scheme)
                continue;
            const auto overrides = json::Value::parse(
                configOverrides(config, base).dump());
            EXPECT_EQ(configHash(applyConfigOverrides(base, overrides)),
                      configHash(config))
                << to_string(scheme) << " " << overrides.dump();
        }
        EXPECT_EQ(configOverrides(base, base).size(), 0u);
    }
    const auto overrides = configOverrides(
        SystemConfig::quadSizePrivate(),
        SystemConfig::baseline(L3Scheme::Private));
    EXPECT_EQ(overrides.dump(),
              "{\"l3_size_per_core_bytes\":4194304,\"l3_local_assoc\":16}");
}

TEST(ConfigCodec, RefusesMalformedOverrides)
{
    const SystemConfig base = SystemConfig::baseline(L3Scheme::Adaptive);
    for (const char *text :
         {"[]", "{\"no_such_field\": 1}", "{\"epoch_misses\": \"250\"}",
          "{\"epoch_misses\": -1}", "{\"epoch_misses\": 2.5}",
          "{\"scheme_seed\": 18446744073709551616}",
          "{\"num_cores\": 4294967297}",
          "{\"adaptation_enabled\": 1}",
          "{\"l3_repl_policy\": \"mru\"}",
          "{\"l3_repl_policy\": 3}"}) {
        EXPECT_THROW(applyConfigOverrides(base, json::Value::parse(text)),
                     ConfigError)
            << text;
    }
    EXPECT_EQ(applyConfigOverrides(
                  base, json::Value::parse("{\"l3_repl_policy\": \"nru\"}"))
                  .l3ReplPolicy,
              ReplPolicy::Nru);
}

/** Single-field edits CmpSystem construction refuses (fatal, or a
 *  crash before its own check runs), each with the scheme it needs. */
struct Unbuildable
{
    L3Scheme scheme;
    void (*edit)(SystemConfig &);
};

const Unbuildable unbuildable[] = {
    {L3Scheme::Adaptive, [](SystemConfig &c) { c.l3LocalAssoc = 0; }},
    {L3Scheme::Adaptive, [](SystemConfig &c) { c.l3LocalAssoc = 1; }},
    {L3Scheme::Adaptive, [](SystemConfig &c) { c.l3LocalAssoc = 3; }},
    {L3Scheme::Adaptive, [](SystemConfig &c) { c.numCores = 1; }},
    {L3Scheme::Adaptive, [](SystemConfig &c) { c.epochMisses = 0; }},
    {L3Scheme::Adaptive,
     [](SystemConfig &c) { c.shadowSampleShift = 13; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.numCores = 0; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.l3LocalAssoc = 3; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.l3LocalLatency = 0; }},
    {L3Scheme::Shared, [](SystemConfig &c) { c.l3SharedLatency = 0; }},
    {L3Scheme::Shared,
     [](SystemConfig &c) { c.memFirstChunkShared = 0; }},
    {L3Scheme::RandomReplacement, [](SystemConfig &c) { c.numCores = 1; }},
    {L3Scheme::Private,
     [](SystemConfig &c) { c.coreMem.l1d.sizeBytes = 1000; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.coreMem.l2d.assoc = 0; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.coreMem.l1i.mshrs = 0; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.coreMem.tlbEntries = 0; }},
    {L3Scheme::Private, [](SystemConfig &c) { c.core.ruuSize = 0; }},
    {L3Scheme::Private,
     [](SystemConfig &c) { c.core.predictor.bimodalEntries = 1000; }},
    {L3Scheme::Private,
     [](SystemConfig &c) { c.core.predictor.historyBits = 17; }},
    {L3Scheme::Private,
     [](SystemConfig &c) { c.core.predictor.btbAssoc = 3; }},
    {L3Scheme::Private,
     [](SystemConfig &c) { c.core.funcUnits.memPorts = 0; }},
    {L3Scheme::Private,
     [](SystemConfig &c) {
         c.coreMem.enablePrefetcher = true;
         c.coreMem.prefetcher.degree = 0;
     }},
};

TEST(ConfigCodec, RefusesWhatCmpSystemRefuses)
{
    for (const Unbuildable &bad : unbuildable) {
        SystemConfig config = SystemConfig::baseline(bad.scheme);
        bad.edit(config);
        // Refused as a value out of the codec's range (when writing
        // the overrides) or as an unbuildable whole (when reading).
        const SystemConfig base = SystemConfig::baseline(bad.scheme);
        EXPECT_THROW(
            applyConfigOverrides(base, configOverrides(config, base)),
            ConfigError)
            << configError(config);
    }
}

TEST(ConfigCodecDeathTest, EveryRefusedConfigStopsCmpSystem)
{
    // The other half of the contract: each refusal above is a config
    // the simulator itself would stop on.
    for (const Unbuildable &bad : unbuildable) {
        SystemConfig config = SystemConfig::baseline(bad.scheme);
        bad.edit(config);
        EXPECT_DEATH(
            {
                std::vector<WorkloadProfile> apps(
                    config.numCores, specProfile("gzip"));
                CmpSystem system(config, apps, 1);
            },
            "")
            << configError(config);
    }
}

} // namespace
} // namespace nuca
