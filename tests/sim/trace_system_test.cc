/** @file Tests for the InstSource-driven CmpSystem (trace replay). */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"
#include "workload/trace.hh"

namespace nuca {
namespace {

std::vector<std::unique_ptr<InstSource>>
captureMix(unsigned insts)
{
    std::vector<std::unique_ptr<InstSource>> sources;
    const char *apps[] = {"eon", "mesa", "crafty", "wupwise"};
    for (unsigned c = 0; c < 4; ++c) {
        // Same per-core seed derivation as CmpSystem's profile
        // constructor, so live and replayed streams coincide.
        SynthWorkload workload(specProfile(apps[c]),
                               static_cast<CoreId>(c),
                               77 + c * 0x9e3779b9ull);
        std::ostringstream os;
        writeTrace(os, workload, insts);
        std::istringstream is(os.str());
        sources.push_back(std::make_unique<TraceReplaySource>(is));
    }
    return sources;
}

TEST(TraceSystem, RunsFromReplayedSources)
{
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     captureMix(20000));
    system.run(50000);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_GT(system.coreAt(static_cast<CoreId>(c)).committed(),
                  0u);
    }
    system.adaptive()->checkInvariants();
}

TEST(TraceSystem, ReplayMatchesLiveGenerationExactly)
{
    // A system fed by captured traces commits the same instruction
    // counts as one generating the same streams live (the trace
    // loops, but within one pass the streams are identical).
    std::vector<WorkloadProfile> apps = {
        specProfile("eon"), specProfile("mesa"),
        specProfile("crafty"), specProfile("wupwise")};
    CmpSystem live(SystemConfig::baseline(L3Scheme::Private), apps,
                   77);
    CmpSystem replay(SystemConfig::baseline(L3Scheme::Private),
                     captureMix(200000));
    live.run(40000);
    replay.run(40000);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(live.coreAt(static_cast<CoreId>(c)).committed(),
                  replay.coreAt(static_cast<CoreId>(c)).committed())
            << "core " << c;
    }
}

TEST(TraceSystem, SourceAndProfileConstructorsAgree)
{
    // The same streams through either constructor build the same
    // system: same components (no coherence hub for a mix that shares
    // nothing), same statistics. Source-built runs that count ops
    // check their stats against profile-built ones.
    const ExperimentSpec mix =
        makeMixes(llcIntensiveNames(), 1, 4, 20070201).front();
    std::vector<WorkloadProfile> apps;
    for (const auto &name : mix.apps)
        apps.push_back(specProfile(name));
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const auto cfg = SystemConfig::baseline(scheme);
        CmpSystem from_profiles(cfg, apps, mix.seed);
        std::vector<std::unique_ptr<InstSource>> sources;
        for (unsigned c = 0; c < 4; ++c) {
            sources.push_back(std::make_unique<SynthWorkload>(
                apps[c], static_cast<CoreId>(c),
                mix.seed + c * 0x9e3779b9ull));
        }
        CmpSystem from_sources(cfg, std::move(sources));
        from_profiles.run(200000);
        from_sources.run(200000);
        std::ostringstream a, b;
        from_profiles.statsRoot().dump(a);
        from_sources.statsRoot().dump(b);
        EXPECT_EQ(a.str(), b.str()) << to_string(scheme);
    }
}

TEST(TraceSystem, ReplaysOfOneCaptureShareDataCoherently)
{
    // Replayed addresses are raw, so two cores replaying one capture
    // touch the same lines: the system builds a coherence hub, and
    // each core's store invalidates the other's L1D copy.
    std::vector<SynthInst> capture(8);
    capture[0].op = OpClass::Load;
    capture[0].effAddr = 0x10000;
    capture[1].op = OpClass::Store;
    capture[1].effAddr = 0x10000;
    for (std::size_t i = 0; i < capture.size(); ++i)
        capture[i].pc = 0x400000 + 4 * i;
    std::vector<std::unique_ptr<InstSource>> sources;
    for (int c = 0; c < 2; ++c)
        sources.push_back(std::make_unique<TraceReplaySource>(capture));
    SystemConfig config = SystemConfig::baseline(L3Scheme::Private);
    config.numCores = 2;
    CmpSystem system(config, std::move(sources));
    ASSERT_NE(system.coherence(), nullptr);
    system.run(20000);
    EXPECT_GT(system.coherence()->invalidations(), 0u);
}

TEST(TraceSystem, WrongSourceCountIsFatal)
{
    auto sources = captureMix(1000);
    sources.pop_back();
    EXPECT_DEATH(
        CmpSystem(SystemConfig::baseline(L3Scheme::Private),
                  std::move(sources)),
        "one instruction source per core");
}

} // namespace
} // namespace nuca
