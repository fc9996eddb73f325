/** @file
 * Behavioural comparisons between the four L3 organizations — the
 * paper's claims reproduced at test scale.
 *
 * To keep runtimes down the system is scaled: 128 KB local L3
 * partitions (one way per set = 32 KB) with small L1/L2s, and
 * purpose-built workloads whose working sets are sized in units of
 * those ways. The mechanisms under test are identical to the
 * full-scale configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "sim/telemetry.hh"
#include "support/env_system.hh"

namespace nuca {
namespace {

/** Scaled-down system: converges within a few 100K cycles. */
SystemConfig
smallSystem(L3Scheme scheme)
{
    SystemConfig cfg = SystemConfig::baseline(scheme);
    cfg.coreMem.l1i = CacheLevelParams{8ull << 10, 2, 2, 16};
    cfg.coreMem.l1d = CacheLevelParams{8ull << 10, 2, 3, 16};
    cfg.coreMem.l2i = CacheLevelParams{16ull << 10, 4, 9, 16};
    cfg.coreMem.l2d = CacheLevelParams{16ull << 10, 4, 9, 16};
    cfg.l3SizePerCoreBytes = 128ull << 10; // 1 way = 32 KB
    cfg.epochMisses = 500;
    return cfg;
}

/** A workload touching `l3_ways` ways of the scaled L3 per set. */
WorkloadProfile
sizedWorkload(const char *name, unsigned l3_ways,
              double big_weight = 0.25)
{
    WorkloadProfile p;
    p.name = name;
    p.loadFrac = 0.30;
    p.storeFrac = 0.08;
    p.branchFrac = 0.08;
    p.meanDepDist = 16;
    p.codeFootprintBytes = 4 * 1024;
    p.regions = {
        {4 * 1024, 1.0 - big_weight, RegionPattern::Random},
        {l3_ways * 32ull * 1024, big_weight, RegionPattern::Random},
    };
    return p;
}

/** A compute-only workload (touches nothing beyond its 4 KB). */
WorkloadProfile
computeOnly(const char *name)
{
    WorkloadProfile p;
    p.name = name;
    p.loadFrac = 0.20;
    p.storeFrac = 0.05;
    p.branchFrac = 0.08;
    p.meanDepDist = 16;
    p.codeFootprintBytes = 4 * 1024;
    p.regions = {{4 * 1024, 1.0, RegionPattern::Random}};
    return p;
}

std::vector<double>
runMixOn(L3Scheme scheme, const std::vector<WorkloadProfile> &mix,
         std::uint64_t seed = 42)
{
    EnvCmpSystem system(smallSystem(scheme), mix, seed);
    system.run(150000);
    system.resetStats();
    system.run(300000);
    return system.ipcs();
}

TEST(SchemeBehaviour, SharingHelpsAHogWithIdleNeighbors)
{
    // One application needing 10 ways next to three compute-only
    // apps: the sharing organizations lend it the idle capacity,
    // the private organization cannot.
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("hog", 10), computeOnly("idle1"),
        computeOnly("idle2"), computeOnly("idle3")};

    const double priv = runMixOn(L3Scheme::Private, mix)[0];
    const double shared = runMixOn(L3Scheme::Shared, mix)[0];
    const double adaptive = runMixOn(L3Scheme::Adaptive, mix)[0];

    EXPECT_GT(shared, priv * 1.05);
    EXPECT_GT(adaptive, priv * 1.05);
}

TEST(SchemeBehaviour, AdaptiveProtectsVictimFromPollution)
{
    // A thrasher (way beyond total capacity, no reuse) next to a
    // well-behaved app that fits its local partition. The shared
    // cache lets the thrasher pollute; the adaptive scheme keeps
    // the victim's hit rate close to the private organization's.
    WorkloadProfile thrasher;
    thrasher.name = "thrasher";
    thrasher.loadFrac = 0.35;
    thrasher.storeFrac = 0.05;
    thrasher.branchFrac = 0.05;
    thrasher.meanDepDist = 24;
    thrasher.codeFootprintBytes = 4 * 1024;
    thrasher.regions = {
        {4 * 1024, 0.55, RegionPattern::Random},
        {64ull << 20, 0.45, RegionPattern::Stream},
    };
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("victim", 3, 0.30), thrasher,
        computeOnly("idle1"), computeOnly("idle2")};

    const double victim_shared = runMixOn(L3Scheme::Shared, mix)[0];
    const double victim_adaptive =
        runMixOn(L3Scheme::Adaptive, mix)[0];
    EXPECT_GT(victim_adaptive, victim_shared);
}

TEST(SchemeBehaviour, AdaptiveBeatsPrivateOnHarmonicMeanForMixes)
{
    // A capacity-hungry pair against two modest apps: the headline
    // Figure 6 claim at test scale.
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("hungry1", 8, 0.3),
        sizedWorkload("hungry2", 6, 0.3),
        sizedWorkload("modest1", 2, 0.2),
        sizedWorkload("modest2", 1, 0.2)};

    const double priv =
        harmonicMean(runMixOn(L3Scheme::Private, mix));
    const double adaptive =
        harmonicMean(runMixOn(L3Scheme::Adaptive, mix));
    EXPECT_GT(adaptive, priv);
}

TEST(SchemeBehaviour, AdaptiveAtLeastMatchesRandomReplacement)
{
    // Section 4.7: with every core competing, uncontrolled spilling
    // pollutes; the adaptive quotas keep the harmonic mean at or
    // above the random-replacement scheme.
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("a", 8, 0.3), sizedWorkload("b", 6, 0.3),
        sizedWorkload("c", 5, 0.3), sizedWorkload("d", 4, 0.3)};

    const double random =
        harmonicMean(runMixOn(L3Scheme::RandomReplacement, mix));
    const double adaptive =
        harmonicMean(runMixOn(L3Scheme::Adaptive, mix));
    EXPECT_GT(adaptive, random * 0.97);
}

TEST(SchemeBehaviour, QuotasFollowDemand)
{
    // The hungry core must end up with more blocks per set than the
    // idle ones.
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("hog", 10), computeOnly("idle1"),
        computeOnly("idle2"), computeOnly("idle3")};
    EnvCmpSystem system(smallSystem(L3Scheme::Adaptive), mix, 21);
    system.run(400000);
    const auto &engine = system.adaptive()->engine();
    EXPECT_GT(engine.quota(0), 4u);
    // The hog's gain comes out of the idle cores' quotas. Which idle
    // core donates first is a tie broken by the rotating scan start,
    // so assert on their total rather than on core 1 specifically.
    const unsigned idle_total = engine.quota(1) + engine.quota(2) +
                                engine.quota(3);
    EXPECT_LT(idle_total, 12u);
    system.adaptive()->checkInvariants();
}

TEST(SchemeBehaviour, LargeCacheErasesAdaptiveAdvantage)
{
    // Figure 9's lesson: when capacity dwarfs demand, constraining
    // sharing cannot help much.
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("a", 3, 0.3), sizedWorkload("b", 2, 0.3),
        computeOnly("c"), computeOnly("d")};
    auto big_private = smallSystem(L3Scheme::Private);
    big_private.l3SizePerCoreBytes = 1ull << 20; // 8x the demand
    auto big_adaptive = smallSystem(L3Scheme::Adaptive);
    big_adaptive.l3SizePerCoreBytes = 1ull << 20;

    const auto run = [&](const SystemConfig &cfg) {
        EnvCmpSystem system(cfg, mix, 31);
        system.run(150000);
        system.resetStats();
        system.run(300000);
        return harmonicMean(system.ipcs());
    };
    const double priv = run(big_private);
    const double adaptive = run(big_adaptive);
    // Within a few percent of each other: nothing left to win.
    EXPECT_NEAR(adaptive / priv, 1.0, 0.06);
}

TEST(Telemetry, TracedRunIsBitIdenticalToUntraced)
{
    // Tracing is observation only: the per-core IPCs and the entire
    // final stats dump must match bit for bit with tracing on
    // and off.
    const std::vector<WorkloadProfile> mix = {
        sizedWorkload("hog", 10), computeOnly("idle1"),
        computeOnly("idle2"), computeOnly("idle3")};

    const auto run = [&](bool traced, std::vector<double> &ipcs) {
        EnvCmpSystem system(smallSystem(L3Scheme::Adaptive), mix, 42);
        std::unique_ptr<TraceSink> sink;
        if (traced) {
            TelemetryConfig telemetry;
            telemetry.tracePath = "behaviour_trace.jsonl";
            telemetry.samplePeriod = 20000;
            sink = attachTelemetry(system, telemetry, "");
            EXPECT_NE(sink, nullptr);
        }
        system.run(150000);
        system.resetStats();
        system.run(300000);
        ipcs = system.ipcs();
        std::ostringstream os;
        system.statsRoot().dump(os);
        return os.str();
    };

    std::vector<double> ipc_on, ipc_off;
    const std::string stats_on = run(true, ipc_on);
    const std::string stats_off = run(false, ipc_off);

    ASSERT_EQ(ipc_on.size(), ipc_off.size());
    for (std::size_t c = 0; c < ipc_on.size(); ++c)
        EXPECT_EQ(ipc_on[c], ipc_off[c]) << "core " << c;
    EXPECT_EQ(stats_on, stats_off);
    std::remove("behaviour_trace.jsonl");
}

TEST(Telemetry, ParallelExperimentsWriteCompleteSeparateTraces)
{
    // Four labeled experiments fanned out over a 4-worker pool, like
    // a REPRO_JOBS=4 bench sweep: each must get its own complete,
    // well-formed JSONL trace file.
    RunPolicy policy;
    policy.telemetry.tracePath = "par_trace.jsonl";
    policy.telemetry.samplePeriod = 25000;

    const std::vector<std::string> pool = {"mcf", "gzip", "ammp",
                                           "art"};
    const auto mixes = makeMixes(pool, 4, 4, 20070202);
    const SimWindow window{100000, 200000};

    std::vector<unsigned> idx = {0, 1, 2, 3};
    runParallel(
        idx,
        [&](unsigned m) {
            return runMix(SystemConfig::baseline(L3Scheme::Adaptive),
                          mixes[m], window,
                          "adaptive.mix" + std::to_string(m), policy);
        },
        /*jobs=*/4);

    for (unsigned m = 0; m < 4; ++m) {
        const std::string path = tracePathFor(
            "par_trace.jsonl", "adaptive.mix" + std::to_string(m));
        const std::string text = json::readFile(path);
        ASSERT_FALSE(text.empty()) << path;

        std::size_t metas = 0, samples = 0, lines = 0;
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t end = text.find('\n', pos);
            if (end == std::string::npos)
                end = text.size();
            const std::string line = text.substr(pos, end - pos);
            pos = end + 1;
            if (line.empty())
                continue;
            ++lines;
            const auto record = json::Value::tryParse(line);
            ASSERT_TRUE(record.has_value())
                << path << ": bad line: " << line;
            const std::string &type = record->at("type").asString();
            metas += type == "meta";
            samples += type == "sample";
        }
        // One meta per file and all samples present: the full
        // warmup+measure window divided by the period.
        EXPECT_EQ(metas, 1u) << path;
        EXPECT_EQ(samples, (100000u + 200000u) / 25000u) << path;
        EXPECT_GE(lines, 1 + samples) << path;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace nuca
