/** @file Tests for the crash-safe JSONL results sidecar. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/sweep_store.hh"
#include "support/mutation.hh"
#include "support/sweep_records.hh"

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
    record.result.l1dMissRatio = {0.03125, 0.5};
    record.result.l2dMissRatio = {0.25, 0.125};
    record.result.l3MissRatio = {0.75, 0.0};
    record.result.mispredictRate = {0.0625, 1.0 / 3.0};
    return record;
}

TEST(SweepStore, AppendLoadRoundTripsEveryField)
{
    const std::string path = tempPath("sweep_store_roundtrip.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord keyed = okRecord("adaptive.mix0", 1.25);
        keyed.key = 0xfedcba9876543210ull;
        store.append(keyed);
        SweepRecord failed;
        failed.label = "adaptive.mix1";
        failed.status = JobStatus::Stalled;
        failed.error = "no instruction retired in 5000 cycles";
        store.append(failed);
    }

    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);

    EXPECT_EQ(records[0].label, "adaptive.mix0");
    // The 64-bit key survives exactly (a JSON number would not).
    EXPECT_EQ(records[0].key, 0xfedcba9876543210ull);
    EXPECT_EQ(records[0].status, JobStatus::Ok);
    EXPECT_TRUE(records[0].error.empty());
    EXPECT_EQ(records[0].result.ipc,
              (std::vector<double>{1.25, 2.5}));
    EXPECT_EQ(records[0].result.l3AccessesPerKilocycle,
              (std::vector<double>{7.5, 8.25}));
    EXPECT_EQ(records[0].result.l1dMissRatio,
              (std::vector<double>{0.03125, 0.5}));
    EXPECT_EQ(records[0].result.l2dMissRatio,
              (std::vector<double>{0.25, 0.125}));
    EXPECT_EQ(records[0].result.l3MissRatio,
              (std::vector<double>{0.75, 0.0}));
    EXPECT_EQ(records[0].result.mispredictRate,
              (std::vector<double>{0.0625, 1.0 / 3.0}));

    EXPECT_EQ(records[1].label, "adaptive.mix1");
    EXPECT_FALSE(records[1].key.has_value());
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
    }
    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, JobStatus::Crashed);
    EXPECT_NE(records[0].error.find("SIGSEGV"), std::string::npos);
    EXPECT_EQ(records[1].status, JobStatus::TimedOut);
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

    // Older builds settled poison jobs "quarantined": such a sweep
    // sidecar or daemon journal line loads as a failure, which
    // resume never reuses.
    const std::string path = tempPath("sweep_store_quarantined.jsonl");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"label\":\"private.mix0\",\"key\":\"0123456789abcdef\","
               "\"status\":\"quarantined\"}\n"
               "{\"label\":\"job3:mix\",\"status\":\"quarantined\","
               "\"queue_ms\":5}\n",
               f);
    std::fclose(f);
    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    EXPECT_EQ(records[1].status, JobStatus::Failed);
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
        SweepRecord hit = okRecord("job2:mix", 1.5);
        hit.status = JobStatus::CacheHit;
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
    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].status, JobStatus::Queued);
    EXPECT_EQ(records[1].status, JobStatus::Preempted);
    EXPECT_NE(records[1].error.find("preempted"),
              std::string::npos);
    EXPECT_EQ(records[2].status, JobStatus::CacheHit);
    EXPECT_EQ(records[2].result.ipc,
              (std::vector<double>{1.5, 3.0}));
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

    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].timed);
    EXPECT_TRUE(records[1].timed);
    EXPECT_EQ(records[1].queueMs, 1234u);
    EXPECT_EQ(records[1].preempts, 3u);
}

TEST(SweepStore, CurvePayloadRoundTripsAndStaysOptional)
{
    const MixResult plain = okRecord("plain", 1.0).result;
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
    result.l3AccessesPerKilocycle = {0.0, 1e300, 0.3333333333333333,
                                     7.25, 1e-300};
    result.l1dMissRatio = {0.1, 0.2, 0.3, 1e-17, 1.0};
    result.l2dMissRatio = {2.0 / 3.0, 0.0, 1.0, 0.5, 0.9999999999999999};
    result.l3MissRatio = {0.0, 0.0, 0.7, 0.1 + 0.2, 1.0 / 7.0};
    result.mispredictRate = {0.05, 0.01, 0.0, 1e-300, 0.125};
    const std::string wire = mixResultToJson(result).dump();
    const auto back =
        mixResultFromJson(json::Value::parse(wire));
    EXPECT_EQ(back.ipc, result.ipc);
    EXPECT_EQ(back.l3AccessesPerKilocycle,
              result.l3AccessesPerKilocycle);
    EXPECT_EQ(back.l1dMissRatio, result.l1dMissRatio);
    EXPECT_EQ(back.l2dMissRatio, result.l2dMissRatio);
    EXPECT_EQ(back.l3MissRatio, result.l3MissRatio);
    EXPECT_EQ(back.mispredictRate, result.mispredictRate);
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
    const auto records = loadRecords(path);
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
        // ...then the resumed run appends complete records.
        SweepStore store(path);
        store.append(okRecord("a.mix2", 3.0));
        store.append(okRecord("a.mix3", 4.0));
    }
    const auto records = loadRecords(path);
    std::remove(path.c_str());
    // The torn line is unparsable and skipped; every complete record
    // before and after it survives.
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].label, "a.mix0");
    EXPECT_EQ(records[1].label, "a.mix2");
    EXPECT_EQ(records[2].label, "a.mix3");
}

TEST(SweepStore, AppendAfterTornTailKeepsTheNewRecord)
{
    // The daemon's journal is its result cache: the first result
    // settled after a crash restart must not be lost to the torn
    // line the crash left.
    const std::string path = tempPath("sweep_store_tail.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        store.append(okRecord("a", 1.0));
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"label\":\"b\",\"ipc\":[0.5,", f);
        std::fclose(f);
    }
    {
        SweepStore store(path);
        store.append(okRecord("c", 3.0));
    }
    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "a");
    EXPECT_EQ(records[1].label, "c");
    EXPECT_EQ(records[1].result.ipc, okRecord("c", 3.0).result.ipc);
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
    // A key must be a string of exactly 16 lowercase hex digits.
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"key\":81985529216486895}\n"
               "{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"key\":\"0123456789ABCDEF\"}\n",
               f);
    // A Mix payload from before the per-core miss ratios and
    // mispredict rates existed, or with one of them short, must be
    // re-simulated, not resumed as a row of zeros.
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"ipc\":[1.5,0.5],\"l3apk\":[7.5,8.25]}\n",
               f);
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"ipc\":[1.5,0.5],\"l3apk\":[7.5,8.25],"
               "\"l1d_miss\":[0.1,0.1],\"l2d_miss\":[0.1,0.1],"
               "\"l3_miss\":[0.1],\"mispredict\":[0.1,0.1]}\n",
               f);
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"ok\","
               "\"ipc\":[1.5,0.5],\"l3apk\":[7.5],"
               "\"l1d_miss\":[0.1,0.1],\"l2d_miss\":[0.1,0.1],"
               "\"l3_miss\":[0.1,0.1],\"mispredict\":[0.1,0.1]}\n",
               f);
    // Simulate a kill mid-append: a final line cut off mid-object.
    std::fputs("{\"label\":\"private.mix1\",\"status\":\"o", f);
    std::fclose(f);

    const auto records = loadRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].label, "private.mix0");
}

TEST(SweepStore, LoadOfMissingFileIsEmpty)
{
    EXPECT_TRUE(
        loadRecords(tempPath("sweep_store_absent.jsonl"))
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
    const auto records = loadRecords(path);
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
    const auto records = loadRecords(path);
    std::remove(path.c_str());
    // Every record parses (no interleaved lines) and none is lost.
    EXPECT_EQ(records.size(), 4u * perThread);
    for (const auto &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok);
}

/** Load @p bytes as a sidecar without throwing, and re-encode every
 *  record it yields into lines that all load back. */
void
expectLoadsSafely(const std::string &bytes, const std::string &what)
{
    const std::string path = tempPath("sweep_store_mutant.jsonl");
    const std::string again = tempPath("sweep_store_reencoded.jsonl");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    std::vector<SweepRecord> records;
    EXPECT_NO_THROW(records = loadRecords(path)) << what;
    std::remove(again.c_str());
    {
        SweepStore store(again);
        for (const auto &record : records)
            store.append(record);
    }
    // load() skips any line that does not parse as a typed record.
    EXPECT_EQ(loadRecords(again).size(), records.size()) << what;
    std::remove(path.c_str());
    std::remove(again.c_str());
}

TEST(SweepStoreMutation, EveryFlipAndTruncationLoadsSafely)
{
    // One keyed record, one daemon (timed) record and one miss-curve
    // record; the curve's 1e300 is one flipped digit from overflow.
    const std::string path = tempPath("sweep_store_mutation.jsonl");
    std::remove(path.c_str());
    {
        SweepStore store(path);
        SweepRecord keyed = okRecord("adaptive.mix0", 1.25);
        keyed.key = 0x0123456789abcdefull;
        store.append(keyed);
        SweepRecord daemon = okRecord("job1:mix", 0.5);
        daemon.status = JobStatus::Preempted;
        daemon.error = "preempted";
        daemon.timed = true;
        daemon.queueMs = 42;
        daemon.preempts = 1;
        store.append(daemon);
        SweepRecord curve;
        curve.label = "job2:curve";
        curve.result.curve = {1e300, 524288.0, 3.0};
        store.append(curve);
    }
    const std::string clean = json::readFile(path);
    std::remove(path.c_str());
    ASSERT_GT(clean.size(), 0u);

    forEachMutation(clean, expectLoadsSafely);
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
