/** @file Tests for the crash-safe JSONL results sidecar. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/sweep_store.hh"

namespace nuca {
namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

SweepRecord
okRecord(const std::string &label, double ipc0)
{
    SweepRecord record;
    record.label = label;
    record.result.ipc = {ipc0, ipc0 * 2};
    record.result.l3AccessesPerKilocycle = {7.5, 8.25};
    return record;
}

TEST(SweepStore, AppendLoadRoundTripsEveryField)
{
    const std::string path = tempPath("sweep_store_roundtrip.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        store.append(okRecord("adaptive.mix0", 1.25));
        SweepRecord failed;
        failed.label = "adaptive.mix1";
        failed.status = JobStatus::Stalled;
        failed.error = "no instruction retired in 5000 cycles";
        store.append(failed);
    }

    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);

    EXPECT_EQ(records[0].label, "adaptive.mix0");
    EXPECT_EQ(records[0].status, JobStatus::Ok);
    EXPECT_TRUE(records[0].error.empty());
    EXPECT_EQ(records[0].result.ipc,
              (std::vector<double>{1.25, 2.5}));
    EXPECT_EQ(records[0].result.l3AccessesPerKilocycle,
              (std::vector<double>{7.5, 8.25}));

    EXPECT_EQ(records[1].label, "adaptive.mix1");
    EXPECT_EQ(records[1].status, JobStatus::Stalled);
    EXPECT_EQ(records[1].error,
              "no instruction retired in 5000 cycles");
    EXPECT_TRUE(records[1].result.ipc.empty());
}

TEST(SweepStore, CrashStatusesRoundTrip)
{
    const std::string path = tempPath("sweep_store_crash.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord crashed;
        crashed.label = "adaptive.mix0";
        crashed.status = JobStatus::Crashed;
        crashed.error = "isolated job killed by SIGSEGV";
        store.append(crashed);
        SweepRecord timed;
        timed.label = "adaptive.mix1";
        timed.status = JobStatus::TimedOut;
        store.append(timed);
        SweepRecord quarantined;
        quarantined.label = "adaptive.mix2";
        quarantined.status = JobStatus::Quarantined;
        store.append(quarantined);
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].status, JobStatus::Crashed);
    EXPECT_NE(records[0].error.find("SIGSEGV"), std::string::npos);
    EXPECT_EQ(records[1].status, JobStatus::TimedOut);
    EXPECT_EQ(records[2].status, JobStatus::Quarantined);
}

TEST(SweepStore, UnknownStatusLoadsAsFailed)
{
    // A sidecar written by a newer build must still load — and an
    // unrecognized status must never be mistaken for a reusable ok.
    EXPECT_EQ(jobStatusFromString("exploded"), JobStatus::Failed);
    // Every status, Running included, round-trips through its name.
    for (int i = 0; i <= static_cast<int>(JobStatus::Cancelled); ++i) {
        const auto status = static_cast<JobStatus>(i);
        EXPECT_EQ(jobStatusFromString(to_string(status)), status)
            << to_string(status);
    }
}

TEST(SweepStore, ServiceStatusesRoundTrip)
{
    // The daemon's job lifecycle states persist through the same
    // sidecar codec as classic sweeps.
    const std::string path = tempPath("sweep_store_service.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord queued;
        queued.label = "job1:mix";
        queued.status = JobStatus::Queued;
        store.append(queued);
        SweepRecord preempted;
        preempted.label = "job1:mix";
        preempted.status = JobStatus::Preempted;
        preempted.error = "preempted at cycle 40000 of 400000";
        store.append(preempted);
        SweepRecord hit;
        hit.label = "job2:mix";
        hit.status = JobStatus::CacheHit;
        hit.result.ipc = {1.5, 0.5};
        store.append(hit);
        SweepRecord interrupted;
        interrupted.label = "job3:mix";
        interrupted.status = JobStatus::Interrupted;
        store.append(interrupted);
        SweepRecord cancelled;
        cancelled.label = "job4:mix";
        cancelled.status = JobStatus::Cancelled;
        store.append(cancelled);
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].status, JobStatus::Queued);
    EXPECT_EQ(records[1].status, JobStatus::Preempted);
    EXPECT_NE(records[1].error.find("preempted"),
              std::string::npos);
    EXPECT_EQ(records[2].status, JobStatus::CacheHit);
    EXPECT_EQ(records[2].result.ipc,
              (std::vector<double>{1.5, 0.5}));
    EXPECT_EQ(records[3].status, JobStatus::Interrupted);
    EXPECT_EQ(records[4].status, JobStatus::Cancelled);
    // None of the new states may ever be reused as an ok result.
    for (const auto &record : records)
        EXPECT_NE(record.status, JobStatus::Ok);
}

TEST(SweepStore, SchedulingTelemetryRoundTripsOnlyWhenTimed)
{
    const std::string path = tempPath("sweep_store_timed.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord classic = okRecord("adaptive.mix0", 1.0);
        store.append(classic); // timed defaults to false
        SweepRecord daemon = okRecord("job1:mix", 2.0);
        daemon.timed = true;
        daemon.queueMs = 1234;
        daemon.preempts = 3;
        store.append(daemon);
    }
    // Classic records carry no scheduling keys on disk (byte format
    // unchanged); daemon records round-trip theirs.
    const std::string raw = json::readFile(path);
    const std::size_t first_eol = raw.find('\n');
    EXPECT_EQ(raw.substr(0, first_eol).find("queue_ms"),
              std::string::npos);

    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].timed);
    EXPECT_TRUE(records[1].timed);
    EXPECT_EQ(records[1].queueMs, 1234u);
    EXPECT_EQ(records[1].preempts, 3u);
}

TEST(SweepStore, CurvePayloadRoundTripsAndStaysOptional)
{
    MixResult plain;
    plain.ipc = {1.0};
    EXPECT_EQ(mixResultToJson(plain).dump().find("curve"),
              std::string::npos);

    MixResult curved;
    curved.curve = {1048576.0, 524288.0, 262144.0};
    const auto back = mixResultFromJson(
        json::Value::parse(mixResultToJson(curved).dump()));
    EXPECT_EQ(back.curve, curved.curve);
}

TEST(SweepStore, MixResultCodecRoundTripsEveryBit)
{
    // The codec backs both the sidecar and the proc-pool pipe; a
    // double that fails to round-trip would silently break the
    // proc-isolated sweep's byte-identity guarantee.
    MixResult result;
    result.ipc = {1.0 / 3.0, 0.1, 1e-300, 12345.6789012345678,
                  2.0 / 7.0};
    result.l3AccessesPerKilocycle = {0.0, 1e300, 0.3333333333333333};
    const std::string wire = mixResultToJson(result).dump();
    const auto back =
        mixResultFromJson(json::Value::parse(wire));
    EXPECT_EQ(back.ipc, result.ipc);
    EXPECT_EQ(back.l3AccessesPerKilocycle,
              result.l3AccessesPerKilocycle);
    // And a second pass through text is byte-stable.
    EXPECT_EQ(mixResultToJson(back).dump(), wire);
}

TEST(SweepStore, SyncKnobIsReadPerStore)
{
    const std::string path = tempPath("sweep_store_sync.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path, /*sync=*/true);
        EXPECT_TRUE(store.synced());
        store.append(okRecord("sync.mix0", 1.0));
    }
    {
        SweepStore store(path);
        EXPECT_FALSE(store.synced());
        store.append(okRecord("sync.mix1", 2.0));
    }
    // Synced and unsynced appends write the same bytes; the knob
    // changes durability, never content.
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "sync.mix0");
    EXPECT_EQ(records[1].label, "sync.mix1");
}

TEST(SweepStore, ResumeStyleLoadSurvivesTornMidRecordWrite)
{
    // A record torn *mid-line* (killed between fwrite chunks, or a
    // partial flush) must not poison the records after it when a
    // later run appended past the tear.
    const std::string path = tempPath("sweep_store_midtorn.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        store.append(okRecord("a.mix0", 1.0));
    }
    {
        // The torn middle: half a record with no newline...
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"label\":\"a.mix1\",\"ipc\":[0.5,", f);
        std::fclose(f);
    }
    {
        // ...then the resumed run appends a complete record. The
        // torn bytes and the new record share one physical line.
        SweepStore store(path);
        store.append(okRecord("a.mix2", 3.0));
        store.append(okRecord("a.mix3", 4.0));
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    // The torn line (glued to a.mix2's record) is unparsable and
    // skipped; the first and last records survive.
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "a.mix0");
    EXPECT_EQ(records[1].label, "a.mix3");
}

TEST(SweepStore, LoadSkipsTornTrailingLine)
{
    const std::string path = tempPath("sweep_store_torn.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        store.append(okRecord("private.mix0", 0.5));
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    // Parsable but mistyped records (a hand edit, a foreign writer)
    // are skipped like torn ones instead of aborting the loader.
    std::fputs("{\"label\":1,\"status\":\"ok\"}\n", f);
    std::fputs("{\"label\":\"private.mix1\",\"status\":7}\n", f);
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"ipc\":[\"x\"]}\n",
               f);
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"queue_ms\":\"x\"}\n",
               f);
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"queue_ms\":1,\"preempts\":-1}\n",
               f);
    // Simulate a kill mid-append: a final line cut off mid-object.
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"o", f);
    std::fclose(f);

    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].label, "private.mix0");
}

TEST(SweepStore, LoadOfMissingFileIsEmpty)
{
    EXPECT_TRUE(
        SweepStore::load(tempPath("sweep_store_absent.jsonl"))
            .empty());
}

TEST(SweepStore, AppendIsOpenedForAppendAcrossRuns)
{
    const std::string path = tempPath("sweep_store_append.jsonl");
    std::remove(path.c_str());
    {
        SweepStore first(path);
        first.append(okRecord("a.mix0", 1.0));
    }
    {
        // A resumed run opens the same sidecar and must not clobber
        // the records of the killed run.
        SweepStore second(path);
        second.append(okRecord("a.mix1", 2.0));
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "a.mix0");
    EXPECT_EQ(records[1].label, "a.mix1");
}

TEST(SweepStore, ConcurrentAppendsAllSurviveIntact)
{
    const std::string path = tempPath("sweep_store_threads.jsonl");
    std::remove(path.c_str());
    constexpr unsigned perThread = 25;
    {
        SweepStore store(path);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < 4; ++t) {
            threads.emplace_back([&store, t]() {
                for (unsigned i = 0; i < perThread; ++i) {
                    store.append(okRecord(
                        "t" + std::to_string(t) + ".mix" +
                            std::to_string(i),
                        1.0));
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    const auto records = SweepStore::load(path);
    std::remove(path.c_str());
    // Every record parses (no interleaved lines) and none is lost.
    EXPECT_EQ(records.size(), 4u * perThread);
    for (const auto &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok);
}

TEST(WriteFileAtomic, ReplacesTargetAndLeavesNoTemp)
{
    const std::string path = tempPath("atomic_write.json");
    json::Value doc = json::Value::object();
    doc.set("v", 1);
    json::writeFileAtomic(path, doc);
    doc.set("v", 2);
    json::writeFileAtomic(path, doc);

    const auto parsed = json::Value::parse(json::readFile(path));
    EXPECT_EQ(parsed.at("v").asNumber(), 2.0);
    // The temporary staging file was renamed away.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    std::remove(path.c_str());
}

} // namespace
} // namespace nuca
