/**
 * @file
 * SnapshotWriter: checkpoint files written on a background thread
 * while the run goes on. The files must be the bytes a synchronous
 * save writes, runMix's results must not move, a preempted run's
 * snapshot must be complete when JobPreempted reaches the caller,
 * and no write or temporary may outlive the run that started it.
 * These tests carry the "parallel" label, so the TSan build runs
 * them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/profiler.hh"
#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "sim/robustness.hh"
#include "sim/trace_event.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

namespace fs = std::filesystem;

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** runMix under a private checkpoint directory, which it removes. */
class SnapshotWriterTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "snapshot_writer_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
        spec_.apps = {"art", "mcf", "gzip", "ammp"};
        spec_.seed = 77;
        window_.warmupCycles = 20000;
        window_.measureCycles = 30000;
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** The sweep daemon's policy shape: a cache and a period. */
    RunPolicy
    periodic() const
    {
        RunPolicy policy;
        policy.ckpt.dir = dir_;
        policy.ckpt.period = 8000;
        return policy;
    }

    std::string
    runFile() const
    {
        return runPath(periodic().ckpt,
                       runKey(config_, spec_.apps, spec_.seed,
                              window_.warmupCycles,
                              window_.measureCycles));
    }

    /** Every file in the cache directory that is a temporary. */
    std::vector<std::string>
    temporaries() const
    {
        std::vector<std::string> found;
        std::error_code ec;
        for (fs::directory_iterator it(dir_, ec), end;
             !ec && it != end; it.increment(ec)) {
            const std::string name = it->path().filename().string();
            if (name.find(".tmp.") != std::string::npos)
                found.push_back(name);
        }
        return found;
    }

    std::string dir_;
    SystemConfig config_ = SystemConfig::baseline(L3Scheme::Adaptive);
    ExperimentSpec spec_;
    SimWindow window_;
};

TEST_F(SnapshotWriterTest, FilesMatchSynchronousSaves)
{
    fs::create_directories(dir_);
    CmpSystem system(config_,
                     {specProfile("art"), specProfile("mcf"),
                      specProfile("gzip"), specProfile("ammp")},
                     5);
    const std::uint64_t hash = configHash(config_);
    SnapshotWriter writer;
    // Three distinct paths, then the last one overwritten: each save
    // is checked against a reference written synchronously from the
    // same state.
    const std::vector<std::string> names = {"a", "b", "c", "c"};
    std::vector<std::string> expected;
    for (const std::string &name : names) {
        system.run(4000);
        writer.save(system, dir_ + "/" + name + ".ckpt", hash);
        Serializer reference;
        system.checkpoint(reference);
        const std::string refPath = dir_ + "/" + name + ".ref";
        writeCheckpointFile(refPath, hash, reference.bytes());
        expected.push_back(fileBytes(refPath));
    }
    writer.wait();
    EXPECT_EQ(SnapshotWriter::writesInFlight(), 0u);
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i + 1 < names.size() && names[i] == names[i + 1])
            continue; // overwritten by the next save
        EXPECT_EQ(fileBytes(dir_ + "/" + names[i] + ".ckpt"),
                  expected[i])
            << names[i];
    }

    // saveCheckpoint is the same path, joined before it returns.
    saveCheckpoint(system, dir_ + "/sync.ckpt", hash);
    EXPECT_EQ(fileBytes(dir_ + "/sync.ckpt"), expected.back());
    EXPECT_TRUE(temporaries().empty());
}

TEST_F(SnapshotWriterTest, PeriodicRunMatchesUncachedRun)
{
    const MixResult plain = runMix(config_, spec_, window_);
    const MixResult cached =
        runMix(config_, spec_, window_, "", periodic());
    EXPECT_EQ(cached.ipc, plain.ipc);
    EXPECT_EQ(cached.l3AccessesPerKilocycle,
              plain.l3AccessesPerKilocycle);

    // Returned: nothing in flight, no temporary, the run snapshot
    // deleted and the warm-up artifact complete.
    EXPECT_EQ(SnapshotWriter::writesInFlight(), 0u);
    EXPECT_TRUE(temporaries().empty());
    EXPECT_FALSE(checkpointFileExists(runFile()));
    const std::string warm = warmupPath(
        periodic().ckpt, warmupKey(config_, spec_.apps, spec_.seed,
                                   window_.warmupCycles));
    EXPECT_NO_THROW(readCheckpointFile(warm, configHash(config_)));

    // A second run restores that artifact and still agrees.
    const MixResult warmRun =
        runMix(config_, spec_, window_, "", periodic());
    EXPECT_EQ(warmRun.ipc, plain.ipc);
}

TEST_F(SnapshotWriterTest, PreemptedSnapshotIsCompleteWhenCaught)
{
    const MixResult whole = runMix(config_, spec_, window_);

    std::atomic<bool> preempt{true};
    RunPolicy policy = periodic();
    policy.preempt = &preempt;
    EXPECT_THROW(runMix(config_, spec_, window_, "", policy),
                 JobPreempted);
    // Caught: the resume point is on disk in full.
    EXPECT_EQ(SnapshotWriter::writesInFlight(), 0u);
    EXPECT_TRUE(temporaries().empty());
    ASSERT_TRUE(checkpointFileExists(runFile()));
    EXPECT_NO_THROW(readCheckpointFile(runFile(), configHash(config_)));

    // Yield at every boundary, then finish: bit-identical.
    RunPolicy resume = policy;
    resume.resume = true;
    unsigned yields = 1;
    while (true) {
        try {
            const MixResult resumed =
                runMix(config_, spec_, window_, "", resume);
            EXPECT_EQ(resumed.ipc, whole.ipc);
            EXPECT_EQ(resumed.l3AccessesPerKilocycle,
                      whole.l3AccessesPerKilocycle);
            break;
        } catch (const JobPreempted &) {
            ASSERT_LT(++yields, 10u) << "the run never finished";
            EXPECT_EQ(SnapshotWriter::writesInFlight(), 0u);
            if (yields == 3)
                preempt = false; // let the last attempt run out
        }
    }
    EXPECT_EQ(yields, 3u);
    EXPECT_FALSE(checkpointFileExists(runFile()));
    EXPECT_TRUE(temporaries().empty());
}

TEST_F(SnapshotWriterTest, UnwritableDirectoryOnlyWarns)
{
    // A directory under a regular file cannot be created, even by
    // root, so every write fails.
    fs::create_directories(dir_);
    const std::string blocker = dir_ + "/blocker";
    std::ofstream(blocker) << "not a directory";
    RunPolicy policy = periodic();
    policy.ckpt.dir = blocker + "/cache";

    const MixResult plain = runMix(config_, spec_, window_);
    ::testing::internal::CaptureStderr();
    const MixResult cached = runMix(config_, spec_, window_, "", policy);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(cached.ipc, plain.ipc);
    EXPECT_EQ(cached.l3AccessesPerKilocycle,
              plain.l3AccessesPerKilocycle);
    EXPECT_NE(err.find("could not save checkpoint"), std::string::npos)
        << err;
    EXPECT_EQ(SnapshotWriter::writesInFlight(), 0u);
}

TEST_F(SnapshotWriterTest, NothingPendingAfterAThrow)
{
    // The cycle budget kills the run mid-measurement, one chunk
    // after a snapshot: unwinding joins that write, so the last
    // snapshot is whole and no temporary is left.
    RunPolicy killed = periodic();
    killed.robust.maxCycles = 40000;
    EXPECT_THROW(runMix(config_, spec_, window_, "", killed),
                 CycleBudgetExceeded);
    EXPECT_EQ(SnapshotWriter::writesInFlight(), 0u);
    EXPECT_TRUE(temporaries().empty());
    EXPECT_NO_THROW(readCheckpointFile(runFile(), configHash(config_)));
}

TEST_F(SnapshotWriterTest, WritesAreProfiledAndTraced)
{
    TraceEventLog &log = TraceEventLog::global();
    log.configure(dir_ + ".trace.json");
    prof::resetAll();
    prof::setEnabled(true);
    // The warm-up artifact plus run snapshots at 28000, 36000 and
    // 44000: four saves.
    runMix(config_, spec_, window_, "", periodic());
    prof::setEnabled(false);
    const prof::Snapshot snap = prof::snapshot();
    const json::Value doc = log.toJson();
    log.disable();

    EXPECT_EQ(snap.estCalls(prof::Phase::CheckpointSave), 4u);
    EXPECT_EQ(snap.estCalls(prof::Phase::CheckpointWrite), 4u);

    std::string error;
    EXPECT_TRUE(validateChromeTrace(doc, &error)) << error;
    const json::Value &events = doc.at("traceEvents");
    double track = -1;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        if (e.at("ph").asString() == "M" &&
            e.at("name").asString() == "thread_name" &&
            e.at("args").at("name").asString() == "ckpt writer")
            track = e.at("tid").asNumber();
    }
    ASSERT_GE(track, 0) << doc.dump();
    unsigned spans = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        if (e.at("name").asString() == "ckpt write") {
            EXPECT_EQ(e.at("tid").asNumber(), track);
            ++spans;
        }
    }
    EXPECT_EQ(spans, 4u);
}

} // namespace
} // namespace nuca
