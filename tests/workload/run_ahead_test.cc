/**
 * @file
 * RunAheadStreams: a system's instruction streams, generated ahead of
 * its cores by a producer thread or, with no CPU free, by the
 * simulating thread. Either way the stream and every checkpoint byte
 * must be those of a SynthWorkload called inline. These tests carry
 * the "parallel" label, so the TSan build runs them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/cpu_budget.hh"
#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"
#include "sim/parallel_runner.hh"
#include "sim/system_config.hh"
#include "workload/run_ahead.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

namespace nuca {
namespace {

constexpr unsigned K = RunAheadStreams::blockInsts;

/** The benchmark's busy_tick profile: a 48 KB cyclic working set and
 *  a mostly-ALU stream. */
WorkloadProfile
computeProfile()
{
    WorkloadProfile p;
    p.name = "compute";
    p.loadFrac = 0.20;
    p.storeFrac = 0.08;
    p.branchFrac = 0.15;
    p.fpFrac = 0.30;
    p.mulDivFrac = 0.05;
    p.meanDepDist = 16.0;
    p.loadChainFrac = 0.0;
    p.codeFootprintBytes = 16ull << 10;
    p.regions = {MemRegion{48ull << 10, 1.0, RegionPattern::Cyclic}};
    p.llcIntensive = false;
    return p;
}

/** The benchmark's latency_chase profile: nearly every load depends
 *  on the previous one across 64 MB. */
WorkloadProfile
pchaseProfile()
{
    WorkloadProfile p;
    p.name = "pchase";
    p.loadFrac = 0.40;
    p.storeFrac = 0.02;
    p.branchFrac = 0.08;
    p.meanDepDist = 3.0;
    p.loadChainFrac = 0.95;
    p.codeFootprintBytes = 8ull << 10;
    p.regions = {MemRegion{64ull << 20, 1.0, RegionPattern::Random}};
    p.llcIntensive = true;
    return p;
}

/** Every SPEC profile plus the benchmark's two custom ones. */
std::vector<WorkloadProfile>
allProfiles()
{
    std::vector<WorkloadProfile> all = specProfiles();
    all.push_back(computeProfile());
    all.push_back(pchaseProfile());
    return all;
}

/** Fills every block on the simulating thread: while in scope, the
 *  simulating threads use up every CPU, so no producer starts. */
class NoFreeCpu
{
  public:
    NoFreeCpu() { cpu_budget::addSimulating(cpus_); }
    ~NoFreeCpu() { cpu_budget::addSimulating(-cpus_); }

  private:
    const int cpus_ = static_cast<int>(cpu_budget::hostCpus());
};

::testing::AssertionResult
sameInst(const SynthInst &a, const SynthInst &b)
{
    if (a.op == b.op && a.pc == b.pc && a.effAddr == b.effAddr &&
        a.depDist[0] == b.depDist[0] && a.depDist[1] == b.depDist[1] &&
        a.taken == b.taken && a.target == b.target)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "pc " << a.pc << " vs " << b.pc << ", addr " << a.effAddr
           << " vs " << b.effAddr;
}

/** Draw @p n from both and require the same instructions. */
::testing::AssertionResult
drawSame(InstSource &ahead, InstSource &inlined, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        auto same = sameInst(ahead.next(), inlined.next());
        if (!same)
            return same << " at draw " << i;
    }
    return ::testing::AssertionSuccess();
}

std::vector<std::uint8_t>
bytesOf(const InstSource &source)
{
    Serializer s;
    source.checkpoint(s);
    return s.bytes();
}

/** Which fill a test runs under. */
enum class Fill { Thread, Inline };

std::string
fillName(const ::testing::TestParamInfo<Fill> &info)
{
    return info.param == Fill::Thread ? "Thread" : "Inline";
}

class RunAheadStream : public ::testing::TestWithParam<Fill>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == Fill::Inline)
            saturate_ = std::make_unique<NoFreeCpu>();
    }

    /** The producer runs exactly when the fill says it should. */
    void
    expectFill(const RunAheadStreams &streams)
    {
        EXPECT_EQ(streams.producing(), GetParam() == Fill::Thread);
    }

    std::unique_ptr<NoFreeCpu> saturate_;
};

// Two cores of every profile share one producer; each stream must
// equal its inline generator across several block edges.
TEST_P(RunAheadStream, EqualsInlineGeneratorForEveryProfile)
{
    for (const WorkloadProfile &profile : allProfiles()) {
        SCOPED_TRACE(profile.name);
        RunAheadStreams streams;
        InstSource &a = streams.add(profile, 0, 11);
        InstSource &b = streams.add(profile, 1, 11 + 0x9e3779b9ull);
        SynthWorkload refA(profile, 0, 11);
        SynthWorkload refB(profile, 1, 11 + 0x9e3779b9ull);
        for (int round = 0; round < 5; ++round) {
            ASSERT_TRUE(drawSame(a, refA, K - 3));
            ASSERT_TRUE(drawSame(b, refB, K + 7));
        }
        expectFill(streams);
    }
}

// The checkpoint is the inline generator's at the core's position,
// wherever that falls in a block, before the first draw included.
TEST_P(RunAheadStream, CheckpointBytesEqualInlineAtBlockEdges)
{
    const std::vector<unsigned> offsets = {0,     1,     K - 1, K,
                                           K + 1, 3 * K, 5 * K + 77};
    for (const WorkloadProfile &profile :
         {specProfile("mcf"), computeProfile(), pchaseProfile()}) {
        SCOPED_TRACE(profile.name);
        for (const unsigned offset : offsets) {
            SCOPED_TRACE("offset " + std::to_string(offset));
            RunAheadStreams streams;
            InstSource &ahead = streams.add(profile, 2, 5);
            SynthWorkload ref(profile, 2, 5);
            ASSERT_TRUE(drawSame(ahead, ref, offset));
            EXPECT_EQ(bytesOf(ahead), bytesOf(ref));
            // A checkpoint changes nothing: the stream goes on.
            ASSERT_TRUE(drawSame(ahead, ref, 2 * K));
            EXPECT_EQ(bytesOf(ahead), bytesOf(ref));
            if (offset > 0)
                expectFill(streams);
        }
    }
}

// Restoring mid-block, into a fresh system's streams or into streams
// whose producer is running ahead, continues the stream exactly.
TEST_P(RunAheadStream, RestoreMidBlockContinuesTheStream)
{
    const WorkloadProfile profile = specProfile("art");
    RunAheadStreams first;
    InstSource &source = first.add(profile, 1, 3);
    SynthWorkload ref(profile, 1, 3);
    ASSERT_TRUE(drawSame(source, ref, 2 * K + 100));
    const auto mid = bytesOf(source);
    ASSERT_EQ(mid, bytesOf(ref));
    std::vector<SynthInst> expected;
    for (unsigned i = 0; i < 3 * K; ++i)
        expected.push_back(ref.next());

    RunAheadStreams fresh;
    InstSource &restored = fresh.add(profile, 1, 3);
    Deserializer d1(mid);
    restored.restore(d1);
    for (unsigned i = 0; i < expected.size(); ++i)
        ASSERT_TRUE(sameInst(restored.next(), expected[i])) << i;
    expectFill(fresh);

    // Rewind the original after it ran on past the snapshot.
    for (unsigned i = 0; i < 4 * K; ++i)
        source.next();
    Deserializer d2(mid);
    source.restore(d2);
    EXPECT_FALSE(first.producing());
    EXPECT_EQ(bytesOf(source), mid);
    for (unsigned i = 0; i < expected.size(); ++i)
        ASSERT_TRUE(sameInst(source.next(), expected[i])) << i;
    expectFill(first);
}

// A whole system on run-ahead streams checkpoints the bytes of one
// whose cores call SynthWorkloads directly.
TEST_P(RunAheadStream, SystemCheckpointEqualsDirectSources)
{
    const SystemConfig config = SystemConfig::baseline(L3Scheme::Adaptive);
    const std::vector<WorkloadProfile> apps = {
        specProfile("mcf"), computeProfile(), specProfile("swim"),
        pchaseProfile()};
    const std::uint64_t seed = 4242;
    CmpSystem ahead(config, apps, seed);
    std::vector<std::unique_ptr<InstSource>> sources;
    for (unsigned c = 0; c < apps.size(); ++c) {
        sources.push_back(std::make_unique<SynthWorkload>(
            apps[c], static_cast<CoreId>(c), seed + c * 0x9e3779b9ull));
    }
    CmpSystem direct(config, std::move(sources));
    for (const Cycle window : {Cycle{0}, Cycle{1}, Cycle{7000},
                               Cycle{30000}}) {
        ahead.run(window);
        direct.run(window);
        Serializer a, b;
        ahead.checkpoint(a);
        direct.checkpoint(b);
        ASSERT_EQ(a.bytes(), b.bytes()) << "after " << window;
    }

    // And a restore mid-run lands both on the same trajectory.
    Serializer image;
    direct.checkpoint(image);
    ahead.run(20000);
    Deserializer d(image.bytes());
    ahead.restore(d);
    ahead.run(15000);
    direct.run(15000);
    Serializer a, b;
    ahead.checkpoint(a);
    direct.checkpoint(b);
    EXPECT_EQ(a.bytes(), b.bytes());
}

INSTANTIATE_TEST_SUITE_P(Fills, RunAheadStream,
                         ::testing::Values(Fill::Thread, Fill::Inline),
                         fillName);

// A restore decides again whether a producer runs. A stream that was
// not restored keeps the blocks filled ahead of it and goes on
// through them under the other fill, and so does the restored one.
TEST(RunAheadSwitch, FillChangesAtARestoreKeepTheStreams)
{
    const WorkloadProfile profile = specProfile("twolf");
    RunAheadStreams streams;
    InstSource &a = streams.add(profile, 0, 8);
    InstSource &b = streams.add(profile, 1, 9);
    SynthWorkload refA(profile, 0, 8), refB(profile, 1, 9);
    for (const bool producer : {true, false, true}) {
        SCOPED_TRACE(producer ? "producer" : "no producer");
        std::unique_ptr<NoFreeCpu> saturate;
        if (!producer)
            saturate = std::make_unique<NoFreeCpu>();
        const auto image = bytesOf(refA);
        Deserializer d(image);
        a.restore(d);
        ASSERT_TRUE(drawSame(a, refA, 3 * K + 9));
        EXPECT_EQ(streams.producing(), producer);
        ASSERT_TRUE(drawSame(b, refB, 6 * K + 1));
        EXPECT_EQ(bytesOf(a), bytesOf(refA));
        EXPECT_EQ(bytesOf(b), bytesOf(refB));
    }
}

TEST(CpuBudget, HelperNeedsAFreeCpu)
{
    const int cpus = static_cast<int>(cpu_budget::hostCpus());
    const int base = cpu_budget::simulatingThreads() +
                     cpu_budget::liveHelpers();
    ASSERT_LT(base, cpus);
    cpu_budget::addSimulating(cpus - base - 1);
    EXPECT_TRUE(cpu_budget::tryClaimHelper());
    EXPECT_FALSE(cpu_budget::tryClaimHelper());
    cpu_budget::releaseHelper();
    cpu_budget::addSimulating(1);
    EXPECT_FALSE(cpu_budget::tryClaimHelper());
    cpu_budget::addSimulating(base - cpus);
    EXPECT_EQ(cpu_budget::simulatingThreads() + cpu_budget::liveHelpers(),
              base);
}

TEST(CpuBudget, ThreadsCountOnceWhileTheySimulate)
{
    const int base = cpu_budget::simulatingThreads();
    {
        const cpu_budget::SimulatingThread outer;
        EXPECT_EQ(cpu_budget::simulatingThreads(), base + 1);
        {
            const cpu_budget::SimulatingThread inner;
            EXPECT_EQ(cpu_budget::simulatingThreads(), base + 1);
            const cpu_budget::Idle idle;
            EXPECT_EQ(cpu_budget::simulatingThreads(), base);
        }
        EXPECT_EQ(cpu_budget::simulatingThreads(), base + 1);
    }
    EXPECT_EQ(cpu_budget::simulatingThreads(), base);

    // A pool's workers count from its construction to their
    // retirement, and a system run inside one adds nothing.
    std::vector<int> seen(3, -1);
    std::atomic<std::size_t> next{0};
    WorkerPool(
        3,
        [&]() -> std::optional<std::size_t> {
            const std::size_t i = next.fetch_add(1);
            if (i >= seen.size())
                return std::nullopt;
            return i;
        },
        [&](std::size_t i, int) {
            CmpSystem system(SystemConfig::baseline(L3Scheme::Private),
                             {specProfile("gzip"), specProfile("mcf"),
                              specProfile("art"), specProfile("eon")},
                             i);
            system.run(100);
            seen[i] = cpu_budget::simulatingThreads();
        })
        .join();
    for (const int count : seen) {
        EXPECT_GE(count, base + 1);
        EXPECT_LE(count, base + 3);
    }
    EXPECT_EQ(cpu_budget::simulatingThreads(), base);
}

} // namespace
} // namespace nuca
