/**
 * @file
 * Host self-profiler unit tests: the enable gate, exact and sampled
 * phase accounting, counters, cross-thread merging, and the report
 * formats (docs/OBSERVABILITY.md).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "base/profiler.hh"
#include "sim/cmp_system.hh"
#include "sim/env_config.hh"
#include "sim/json_writer.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

/** Restores the global profiler flag and state around each test. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prev_ = prof::enabled();
        prof::setEnabled(false);
        prof::resetAll();
    }
    void
    TearDown() override
    {
        prof::resetAll();
        prof::setEnabled(prev_);
    }

  private:
    bool prev_ = false;
};

TEST_F(ProfilerTest, DisabledRecordsNothing)
{
    {
        prof::Scope s(prof::Phase::CheckpointSave);
    }
    prof::add(prof::Counter::TraceRecords, 7);
    EXPECT_FALSE(prof::samplePoint(prof::Phase::CoreTick));

    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.estCalls(prof::Phase::CheckpointSave), 0u);
    EXPECT_EQ(snap.estCalls(prof::Phase::CoreTick), 0u);
    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  prof::Counter::TraceRecords)],
              0u);
}

TEST_F(ProfilerTest, UnsampledScopeCountsExactly)
{
    prof::setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        prof::Scope s(prof::Phase::TelemetryFlush);
    }
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.estCalls(prof::Phase::TelemetryFlush), 3u);
    // Steady clocks can in principle report two identical readings,
    // but three scope entries must have recorded *some* time fields.
    EXPECT_EQ(
        snap.timed[static_cast<unsigned>(prof::Phase::TelemetryFlush)],
        3u);
}

TEST_F(ProfilerTest, SampledPhaseScalesEstimates)
{
    prof::setEnabled(true);
    const unsigned shift =
        prof::phaseSampleShift(prof::Phase::CoreTick);
    ASSERT_GT(shift, 0u);
    const unsigned period = 1u << shift;

    unsigned sampled = 0;
    for (unsigned i = 0; i < 4 * period; ++i)
        sampled += prof::samplePoint(prof::Phase::CoreTick) ? 1 : 0;

    // Entries count every call; exactly 1-in-2^shift are sampled.
    EXPECT_EQ(sampled, 4u);
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.estCalls(prof::Phase::CoreTick), 4 * period);
    EXPECT_EQ(
        snap.timed[static_cast<unsigned>(prof::Phase::CoreTick)], 0u);
}

TEST_F(ProfilerTest, MaybeScopeTimesOnlyWhenTold)
{
    prof::setEnabled(true);
    {
        prof::MaybeScope off(false, prof::Phase::CommitStage);
    }
    {
        prof::MaybeScope on(true, prof::Phase::CommitStage);
    }
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(
        snap.timed[static_cast<unsigned>(prof::Phase::CommitStage)],
        1u);
}

TEST_F(ProfilerTest, NestedTimersChargeOverheadToEnclosingScope)
{
    prof::setEnabled(true);
    constexpr unsigned kInner = 4000;
    const auto wall0 = std::chrono::steady_clock::now();
    {
        prof::Scope outer(prof::Phase::TelemetryFlush);
        for (unsigned i = 0; i < kInner; ++i) {
            // Exact-shift phase: every inner scope is timed, so the
            // outer scope accumulates kInner clock-pair charges.
            prof::Scope inner(prof::Phase::CheckpointSave);
        }
    }
    const auto wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());
    if (wallNs < 50'000)
        GTEST_SKIP() << "clock too coarse to resolve pair overhead";

    // The loop body is nothing but nested timer overhead; with the
    // charges subtracted, the outer measurement must come in well
    // under the raw wall time of the block (uncompensated it would
    // equal it).
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.estCalls(prof::Phase::CheckpointSave), kInner);
    EXPECT_LT(snap.estNs(prof::Phase::TelemetryFlush),
              wallNs * 9 / 10);
}

TEST_F(ProfilerTest, CountersAccumulate)
{
    prof::setEnabled(true);
    prof::add(prof::Counter::CheckpointBytesOut, 100);
    prof::add(prof::Counter::CheckpointBytesOut, 23);
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  prof::Counter::CheckpointBytesOut)],
              123u);
}

TEST_F(ProfilerTest, MergesAcrossThreads)
{
    prof::setEnabled(true);
    prof::add(prof::Counter::JobsFinished, 1);
    std::thread t([] {
        prof::add(prof::Counter::JobsFinished, 2);
        prof::Scope s(prof::Phase::Job);
    });
    t.join();
    // The worker exited, so its totals merged into the registry.
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  prof::Counter::JobsFinished)],
              3u);
    EXPECT_EQ(snap.estCalls(prof::Phase::Job), 1u);
}

TEST_F(ProfilerTest, ResetClearsEverything)
{
    prof::setEnabled(true);
    {
        prof::Scope s(prof::Phase::Run);
    }
    prof::add(prof::Counter::TraceFlushes, 5);
    prof::resetAll();
    const prof::Snapshot snap = prof::snapshot();
    EXPECT_EQ(snap.estCalls(prof::Phase::Run), 0u);
    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  prof::Counter::TraceFlushes)],
              0u);
}

TEST_F(ProfilerTest, TextReportNamesPhasesAndCounters)
{
    prof::setEnabled(true);
    {
        prof::Scope s(prof::Phase::CheckpointSave);
    }
    prof::add(prof::Counter::CheckpointBytesOut, 42);
    std::ostringstream os;
    prof::writeReport(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("host self-profile"), std::string::npos);
    EXPECT_NE(text.find("checkpoint_save"), std::string::npos);
    EXPECT_NE(text.find("checkpoint_bytes_out"), std::string::npos);
}

TEST_F(ProfilerTest, JsonReportParsesAndCarriesTotals)
{
    prof::setEnabled(true);
    {
        prof::Scope s(prof::Phase::CheckpointRestore);
    }
    prof::add(prof::Counter::CheckpointBytesIn, 9);

    // The sim layer builds the report over the profiler's snapshot;
    // the document it writes must parse back.
    const auto doc =
        json::Value::tryParse(profilerReportJson().dump());
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->at("enabled").asBool());
    EXPECT_EQ(doc->at("counters").at("checkpoint_bytes_in")
                  .asNumber(),
              9.0);
    bool found = false;
    const json::Value &phases = doc->at("phases");
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (phases.at(i).at("name").asString() ==
            "checkpoint_restore") {
            found = true;
            EXPECT_EQ(phases.at(i).at("calls_est").asNumber(), 1.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ProfilerTest, WorkloadGenTimesGeneratorCallsInSampledTicks)
{
    // workload_gen nests under fetch_stage and shares core_tick's
    // hoisted sampling decision: only sampled ticks time their
    // source_.next() calls, and the estimate scales them back up.
    prof::setEnabled(true);
    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     {specProfile("gzip"), specProfile("gcc"),
                      specProfile("mcf"), specProfile("art")},
                     7);
    system.run(20000);
    prof::setEnabled(false);
    const auto snap = prof::snapshot();
    const auto gen = static_cast<unsigned>(prof::Phase::WorkloadGen);
    EXPECT_GT(snap.timed[gen], 0u);
    EXPECT_GT(snap.estCalls(prof::Phase::WorkloadGen), 0u);
    EXPECT_EQ(prof::phaseParent(prof::Phase::WorkloadGen),
              prof::Phase::FetchStage);
    EXPECT_EQ(prof::phaseSampleShift(prof::Phase::WorkloadGen),
              prof::phaseSampleShift(prof::Phase::CoreTick));
    EXPECT_STREQ(prof::phaseName(prof::Phase::WorkloadGen),
                 "workload_gen");
}

} // namespace
} // namespace nuca
