/**
 * @file
 * End-to-end proof of the service contract (the PR's acceptance
 * criteria):
 *
 *  (a) a daemon-run sweep produces results byte-identical to the
 *      one-shot CLI path (direct runMix);
 *  (b) a job preempted mid-run and resumed finishes with a result
 *      identical to an uninterrupted run;
 *  (c) a repeated spec is served from the result cache without
 *      spawning a worker, by the same daemon or a restarted one.
 *
 * Most tests drive SweepDaemon::handle() directly (no socket); the
 * socket tests at the bottom run the full wire path through
 * SweepClient against an in-process daemon on a /tmp socket.
 */

#include "service/sweepd.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/profiler.hh"
#include "service/client.hh"
#include "sim/checkpoint.hh"
#include "sim/proc_pool.hh"
#include "sim/sweep_store.hh"
#include "sim/trace_event.hh"
#include "support/sweep_records.hh"
#include "workload/miss_curve.hh"
#include "workload/spec_profiles.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

JobSpec
quickMix(const std::string &scheme = "adaptive")
{
    JobSpec spec;
    spec.scheme = scheme;
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = 20070201;
    spec.warmupCycles = 20000;
    spec.measureCycles = 40000;
    return spec;
}

/** The one-shot CLI path: runMix with no checkpointing at all. */
MixResult
directRun(const JobSpec &spec)
{
    RunPolicy policy; // no ckpt dir, no resume, no preemption
    return runMix(spec.config(), {spec.apps, spec.seed},
                  {spec.warmupCycles, spec.measureCycles}, "",
                  policy);
}

class SweepdE2eTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The pid keeps concurrent test processes (one per test
        // under parallel ctest) out of each other's state dirs and
        // sockets; the name stays short enough for sun_path.
        state_ = (std::filesystem::temp_directory_path() /
                  ("nuca_sweepd_" +
                   std::to_string(::testing::UnitTest::GetInstance()
                                      ->random_seed()) +
                   "_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++)))
                     .string();
        std::filesystem::remove_all(state_);
    }

    void TearDown() override { std::filesystem::remove_all(state_); }

    DaemonOptions
    baseOptions()
    {
        DaemonOptions opts;
        opts.socketPath.clear(); // drive handle() directly
        opts.stateDir = state_;
        opts.workers = 1;
        opts.quantumMs = 0; // no automatic preemption: tests drive
                            // the preempt op deterministically
        opts.isolation.enabled = false;
        return opts;
    }

    static json::Value
    submit(SweepDaemon &daemon, const JobSpec &spec)
    {
        json::Value req = json::Value::object();
        req.set("op", "submit");
        req.set("spec", spec.toJson());
        return daemon.handle(req);
    }

    static json::Value
    idOp(SweepDaemon &daemon, const char *op, std::uint64_t id)
    {
        json::Value req = json::Value::object();
        req.set("op", op);
        req.set("id", id);
        return daemon.handle(req);
    }

    static JobStatus
    stateOf(const json::Value &resp)
    {
        return jobStatusFromString(resp.at("state").asString());
    }

    /** Poll the result op until the job reaches a terminal state. */
    static json::Value
    await(SweepDaemon &daemon, std::uint64_t id)
    {
        for (;;) {
            json::Value resp = idOp(daemon, "result", id);
            if (isTerminal(stateOf(resp)))
                return resp;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }

    std::string state_;
    static int counter_;
};

int SweepdE2eTest::counter_ = 0;

TEST_F(SweepdE2eTest, ProtocolRejectsGarbageWithoutDying)
{
    SweepDaemon daemon(baseOptions());

    EXPECT_FALSE(daemon.handle(json::Value(42.0)).at("ok").asBool());
    json::Value req = json::Value::object();
    req.set("op", "frobnicate");
    EXPECT_FALSE(daemon.handle(req).at("ok").asBool());

    req = json::Value::object();
    req.set("op", "submit"); // no spec
    EXPECT_FALSE(daemon.handle(req).at("ok").asBool());

    req.set("spec", json::Value::object()); // invalid spec
    const json::Value resp = daemon.handle(req);
    EXPECT_FALSE(resp.at("ok").asBool());
    EXPECT_NE(resp.at("error").asString().find("apps"),
              std::string::npos);

    EXPECT_FALSE(
        idOp(daemon, "result", 999).at("ok").asBool());
}

// Criterion (a): daemon result == one-shot CLI result, byte for
// byte. Criterion (c): the resubmitted spec is a cache hit that
// spawns no worker and returns the same bytes.
TEST_F(SweepdE2eTest, DaemonMatchesCliAndRepeatHitsCache)
{
    SweepDaemon daemon(baseOptions());
    daemon.start();

    const JobSpec spec = quickMix();
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    EXPECT_EQ(sub.at("state").asString(), "queued");
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());

    const json::Value first = await(daemon, id);
    ASSERT_TRUE(first.at("ok").asBool());
    EXPECT_EQ(first.at("state").asString(), "ok");
    EXPECT_EQ(daemon.executedJobs(), 1u);

    const std::string daemon_bytes = first.at("result").dump();
    const std::string cli_bytes =
        mixResultToJson(directRun(spec)).dump();
    EXPECT_EQ(daemon_bytes, cli_bytes); // (a)

    // Resubmit the identical spec: settled at submit time, no new
    // execution, identical bytes.
    const json::Value again = submit(daemon, spec);
    ASSERT_TRUE(again.at("ok").asBool());
    EXPECT_EQ(again.at("state").asString(), "cache_hit"); // (c)
    const auto id2 =
        static_cast<std::uint64_t>(again.at("id").asNumber());
    const json::Value cached = await(daemon, id2);
    EXPECT_EQ(cached.at("state").asString(), "cache_hit");
    EXPECT_EQ(cached.at("result").dump(), daemon_bytes);
    EXPECT_EQ(daemon.executedJobs(), 1u); // no worker ran

    // A different scheme is a different key: queued, not cache_hit.
    const json::Value other =
        submit(daemon, quickMix("private"));
    ASSERT_TRUE(other.at("ok").asBool());
    EXPECT_EQ(other.at("state").asString(), "queued");
    await(daemon,
          static_cast<std::uint64_t>(other.at("id").asNumber()));

    daemon.requestStop();
    daemon.join();
}

// Criterion (b): preempted at a snapshot, requeued, resumed — and
// the final result matches an uninterrupted run exactly.
TEST_F(SweepdE2eTest, PreemptedJobResumesBitIdentical)
{
    DaemonOptions opts = baseOptions();
    opts.preemptPeriod = 10000; // many snapshot boundaries
    SweepDaemon daemon(opts);
    daemon.start();

    JobSpec spec = quickMix();
    spec.measureCycles = 400000; // 40 boundaries
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());

    // Ask for preemption as soon as the worker picks the job up;
    // the run then yields at its next 10k-cycle boundary.
    for (;;) {
        const json::Value resp = idOp(daemon, "preempt", id);
        if (resp.at("ok").asBool())
            break;
        const json::Value poll = idOp(daemon, "result", id);
        const JobStatus state = stateOf(poll);
        if (state == JobStatus::Ok)
            break; // finished before we could preempt (unlikely)
        ASSERT_FALSE(isTerminal(state)) << poll.dump();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1));
    }

    const json::Value done = await(daemon, id);
    ASSERT_TRUE(done.at("ok").asBool());
    EXPECT_EQ(done.at("state").asString(), "ok");
    EXPECT_GE(done.at("preempts").asNumber(), 1.0);

    EXPECT_EQ(done.at("result").dump(),
              mixResultToJson(directRun(spec)).dump()); // (b)

    daemon.requestStop();
    daemon.join();

    // The journal recorded the preemption lifecycle with timing
    // telemetry (queued wait + preempt count) for trace_report.
    const auto records =
        loadRecords(state_ + "/jobs.jsonl");
    ASSERT_FALSE(records.empty());
    bool saw_preempted = false, saw_ok = false;
    for (const auto &record : records) {
        EXPECT_TRUE(record.timed);
        if (record.status == JobStatus::Preempted)
            saw_preempted = true;
        if (record.status == JobStatus::Ok) {
            saw_ok = true;
            EXPECT_GE(record.preempts, 1u);
        }
    }
    EXPECT_TRUE(saw_preempted);
    EXPECT_TRUE(saw_ok);
}

// The same preemption contract through the sandbox: the preempt
// request becomes SIGTERM, the runner snapshots and ships a
// "preempted" settlement, and the resumed runner is bit-identical.
TEST_F(SweepdE2eTest, SandboxedPreemptionAlsoResumesBitIdentical)
{
    DaemonOptions opts = baseOptions();
    opts.isolation.enabled = true;
    opts.preemptPeriod = 10000;
    SweepDaemon daemon(opts);
    daemon.start();

    JobSpec spec = quickMix("shared");
    spec.measureCycles = 400000;
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());

    for (;;) {
        const json::Value resp = idOp(daemon, "preempt", id);
        if (resp.at("ok").asBool())
            break;
        const json::Value poll = idOp(daemon, "result", id);
        const JobStatus state = stateOf(poll);
        if (state == JobStatus::Ok)
            break;
        ASSERT_FALSE(isTerminal(state)) << poll.dump();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1));
    }

    const json::Value done = await(daemon, id);
    ASSERT_TRUE(done.at("ok").asBool()) << done.dump();
    EXPECT_EQ(done.at("result").dump(),
              mixResultToJson(directRun(spec)).dump());

    daemon.requestStop();
    daemon.join();
}

TEST_F(SweepdE2eTest, MissCurveJobMatchesDirectReplay)
{
    SweepDaemon daemon(baseOptions());
    daemon.start();

    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"mcf"};
    spec.insts = 200000;
    const json::Value sub = submit(daemon, spec);
    ASSERT_TRUE(sub.at("ok").asBool());
    const json::Value done = await(
        daemon,
        static_cast<std::uint64_t>(sub.at("id").asNumber()));
    ASSERT_TRUE(done.at("ok").asBool());

    const MixResult result =
        mixResultFromJson(done.at("result"));
    const std::vector<Counter> direct =
        l3MissCurve(*findProfile("mcf"), spec.insts);
    ASSERT_EQ(result.curve.size(), direct.size());
    for (std::size_t w = 0; w < direct.size(); ++w)
        EXPECT_EQ(result.curve[w], static_cast<double>(direct[w]))
            << (w + 1) << " ways";

    // Repeat is a cache hit with the same curve.
    const json::Value again = submit(daemon, spec);
    EXPECT_EQ(again.at("state").asString(), "cache_hit");
    const auto againId =
        static_cast<std::uint64_t>(again.at("id").asNumber());
    EXPECT_EQ(await(daemon, againId).at("result").dump(),
              done.at("result").dump());

    daemon.requestStop();
    daemon.join();
}

// Daemon jobs settle through the sweeps' settleJob on a WorkerPool
// worker, so the profiler counts them and a Chrome trace shows each
// as a "job <id>" span on a "worker k" track, as for sweep jobs.
TEST_F(SweepdE2eTest, DaemonJobsAreProfiledAndTraced)
{
    TraceEventLog &log = TraceEventLog::global();
    log.configure(state_ + ".trace.json");
    prof::resetAll();
    prof::setEnabled(true);

    std::uint64_t id = 0;
    {
        SweepDaemon daemon(baseOptions());
        daemon.start();
        const json::Value sub = submit(daemon, quickMix());
        ASSERT_TRUE(sub.at("ok").asBool());
        id = static_cast<std::uint64_t>(sub.at("id").asNumber());
        EXPECT_EQ(await(daemon, id).at("state").asString(), "ok");
        daemon.requestStop();
        daemon.join();
    }
    prof::setEnabled(false);
    const prof::Snapshot snap = prof::snapshot();
    const json::Value doc = log.toJson();
    log.disable();

    EXPECT_EQ(snap.counters[static_cast<unsigned>(
                  prof::Counter::JobsFinished)],
              1u);

    const json::Value &events = doc.at("traceEvents");
    double worker_tid = -1;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        if (e.at("ph").asString() == "M" &&
            e.at("name").asString() == "thread_name" &&
            e.at("pid").asNumber() == TraceEventLog::kHostPid &&
            e.at("args").at("name").asString() == "worker 0")
            worker_tid = e.at("tid").asNumber();
    }
    ASSERT_GE(worker_tid, 0) << doc.dump();
    bool span = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        span |= e.at("ph").asString() == "B" &&
                e.at("name").asString() ==
                    "job " + std::to_string(id) &&
                e.at("tid").asNumber() == worker_tid;
    }
    EXPECT_TRUE(span) << doc.dump();
}

TEST_F(SweepdE2eTest, CancelQueuedJobSettlesImmediately)
{
    // No started workers: submitted jobs stay queued forever, so
    // cancel must settle them synchronously.
    SweepDaemon daemon(baseOptions());
    const json::Value sub = submit(daemon, quickMix());
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());
    const json::Value resp = idOp(daemon, "cancel", id);
    ASSERT_TRUE(resp.at("ok").asBool());
    EXPECT_EQ(resp.at("state").asString(), "cancelled");
    EXPECT_FALSE(idOp(daemon, "result", id).at("ok").asBool());
    // Cancelling again reports the terminal state as an error.
    EXPECT_FALSE(idOp(daemon, "cancel", id).at("ok").asBool());
}

// A malformed id is a protocol error answered {ok: false} by every
// id op — never an abort that loses the queue.
TEST_F(SweepdE2eTest, MalformedIdsAreRejectedWithoutAborting)
{
    SweepDaemon daemon(baseOptions()); // no workers: the job stays
    const auto id = static_cast<std::uint64_t>(
        submit(daemon, quickMix()).at("id").asNumber());

    for (const char *op : {"status", "result", "preempt", "cancel"}) {
        for (const json::Value &bad :
             {json::Value("x"), json::Value(-1.0), json::Value(1.5)}) {
            json::Value req = json::Value::object();
            req.set("op", op);
            req.set("id", bad);
            const json::Value resp = daemon.handle(req);
            EXPECT_FALSE(resp.at("ok").asBool())
                << op << " " << bad.dump();
            EXPECT_TRUE(resp.contains("error"))
                << op << " " << bad.dump();
        }
    }
    // The queued job is untouched.
    EXPECT_EQ(stateOf(idOp(daemon, "result", id)), JobStatus::Queued);
}

// A watchdog trip inside a daemon job settles `stalled` — the same
// status a classic sweep records — in the result op and the journal.
TEST_F(SweepdE2eTest, WatchdogStallSettlesStalled)
{
    DaemonOptions opts = baseOptions();
    opts.robust.fault.kind = FaultKind::ChannelStall;
    opts.robust.watchdogWindow = 3000;
    opts.robust.mshrAgeBound = 3000;
    SweepDaemon daemon(opts);
    daemon.start();

    const auto id = static_cast<std::uint64_t>(
        submit(daemon, quickMix()).at("id").asNumber());
    const json::Value done = await(daemon, id);
    EXPECT_EQ(done.at("state").asString(), "stalled");
    EXPECT_FALSE(done.at("ok").asBool());
    EXPECT_FALSE(done.at("error").asString().empty());

    daemon.requestStop();
    daemon.join();

    const auto records = loadRecords(state_ + "/jobs.jsonl");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Stalled);
}

// A job run under a planted simulator fault need not produce the
// spec's clean result (lru_corrupt goes undetected with the checker
// off and settles ok), so it is never cached: the same spec
// submitted again runs again instead of being served as cache_hit.
TEST_F(SweepdE2eTest, FaultInjectedResultIsNeverCached)
{
    DaemonOptions opts = baseOptions();
    opts.robust.fault.kind = FaultKind::LruCorrupt;
    SweepDaemon daemon(opts);
    daemon.start();

    const JobSpec spec = quickMix();
    const auto id = static_cast<std::uint64_t>(
        submit(daemon, spec).at("id").asNumber());
    EXPECT_EQ(await(daemon, id).at("state").asString(), "ok");

    const json::Value again = submit(daemon, spec);
    ASSERT_TRUE(again.at("ok").asBool());
    EXPECT_NE(again.at("state").asString(), "cache_hit");
    await(daemon, static_cast<std::uint64_t>(again.at("id").asNumber()));
    EXPECT_EQ(daemon.executedJobs(), 2u);

    daemon.requestStop();
    daemon.join();
}

TEST_F(SweepdE2eTest, FairShareSpreadsWorkersAcrossTenants)
{
    // One worker, automatic preemption on: tenant "hog"'s long job
    // must yield to tenant "newcomer"'s short one mid-run.
    DaemonOptions opts = baseOptions();
    opts.quantumMs = 50;
    opts.preemptPeriod = 10000;
    SweepDaemon daemon(opts);
    daemon.start();

    JobSpec hog = quickMix();
    hog.tenant = "hog";
    hog.measureCycles = 2000000;
    const auto hog_id = static_cast<std::uint64_t>(
        submit(daemon, hog).at("id").asNumber());

    // Give the hog a head start so it is running when the newcomer
    // arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    JobSpec quick = quickMix("private");
    quick.tenant = "newcomer";
    const auto quick_id = static_cast<std::uint64_t>(
        submit(daemon, quick).at("id").asNumber());

    // The newcomer finishes long before an unpreempted hog could.
    const json::Value quick_done = await(daemon, quick_id);
    EXPECT_EQ(quick_done.at("state").asString(), "ok");

    const json::Value hog_done = await(daemon, hog_id);
    EXPECT_EQ(hog_done.at("state").asString(), "ok");
    EXPECT_GE(hog_done.at("preempts").asNumber(), 1.0);

    daemon.requestStop();
    daemon.join();
}

// The journal is the result cache: a second daemon on the same state
// directory serves what the first one settled, byte for byte, and
// runs nothing. Records without a key (a planted fault's) and mix
// payloads from before the per-core miss ratios are never served.
TEST_F(SweepdE2eTest, RestartServesJournaledResults)
{
    JobSpec curve;
    curve.kind = JobKind::MissCurve;
    curve.apps = {"mcf"};
    curve.insts = 200000;
    const std::vector<JobSpec> specs = {quickMix(), curve};

    std::vector<std::string> firstBytes;
    {
        SweepDaemon a(baseOptions());
        a.start();
        for (const JobSpec &spec : specs) {
            const json::Value done = await(
                a, static_cast<std::uint64_t>(
                       submit(a, spec).at("id").asNumber()));
            ASSERT_EQ(done.at("state").asString(), "ok");
            firstBytes.push_back(done.at("result").dump());
        }
        a.requestStop();
        a.join();
    }

    // Two records the next daemon must not serve: one without a key,
    // and one whose mix payload lacks l1d_miss and the other per-core
    // fractions.
    const JobSpec outdated = quickMix("shared");
    {
        std::FILE *f =
            std::fopen((state_ + "/jobs.jsonl").c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"label\":\"job9:x\",\"status\":\"ok\","
                   "\"ipc\":[1,1,1,1],\"l3apk\":[1,1,1,1],"
                   "\"l1d_miss\":[0,0,0,0],\"l2d_miss\":[0,0,0,0],"
                   "\"l3_miss\":[0,0,0,0],\"mispredict\":[0,0,0,0]}\n",
                   f);
        std::fputs(("{\"label\":\"job10:x\",\"key\":\"" +
                    hex16(outdated.resultKey()) +
                    "\",\"status\":\"ok\",\"ipc\":[1,1,1,1],"
                    "\"l3apk\":[1,1,1,1]}\n")
                       .c_str(),
                   f);
        std::fclose(f);
    }

    SweepDaemon b(baseOptions()); // no workers: nothing can run
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const json::Value sub = submit(b, specs[i]);
        ASSERT_EQ(sub.at("state").asString(), "cache_hit") << i;
        const auto id =
            static_cast<std::uint64_t>(sub.at("id").asNumber());
        const json::Value hit = idOp(b, "result", id);
        EXPECT_EQ(hit.at("result").dump(), firstBytes[i]) << i;
    }
    EXPECT_EQ(submit(b, outdated).at("state").asString(), "queued");
    EXPECT_EQ(b.executedJobs(), 0u);
    // Only the two ok records with a key and a current payload are
    // indexed.
    json::Value stats = json::Value::object();
    stats.set("op", "stats");
    EXPECT_EQ(b.handle(stats).at("cache_entries").asNumber(), 2.0);
}

// Every hit is journaled, but only the key's ok record carries the
// payload, so k hits of one key add k small lines; a restarted
// daemon still serves the key from that one record.
TEST_F(SweepdE2eTest, CacheHitsJournalNoPayload)
{
    const JobSpec spec = quickMix();
    constexpr int hits = 3;
    std::string bytes;
    {
        SweepDaemon daemon(baseOptions());
        daemon.start();
        const json::Value done = await(
            daemon, static_cast<std::uint64_t>(
                        submit(daemon, spec).at("id").asNumber()));
        ASSERT_EQ(done.at("state").asString(), "ok");
        bytes = done.at("result").dump();
        for (int k = 0; k < hits; ++k)
            ASSERT_EQ(submit(daemon, spec).at("state").asString(),
                      "cache_hit");
        daemon.requestStop();
        daemon.join();
    }

    const MixResult result =
        mixResultFromJson(json::Value::parse(bytes));
    ASSERT_FALSE(result.ipc.empty());
    std::size_t carrying = 0, cacheHits = 0;
    const auto records = loadRecords(state_ + "/jobs.jsonl");
    for (const SweepRecord &record : records) {
        EXPECT_EQ(record.key, spec.resultKey());
        carrying += record.result.ipc == result.ipc ? 1 : 0;
        cacheHits += record.status == JobStatus::CacheHit ? 1 : 0;
    }
    EXPECT_EQ(records.size(), 1u + hits);
    EXPECT_EQ(cacheHits, static_cast<std::size_t>(hits));
    EXPECT_EQ(carrying, 1u);

    SweepDaemon restarted(baseOptions()); // no workers
    const json::Value sub = submit(restarted, spec);
    ASSERT_EQ(sub.at("state").asString(), "cache_hit");
    EXPECT_EQ(idOp(restarted, "result",
                   static_cast<std::uint64_t>(sub.at("id").asNumber()))
                  .at("result")
                  .dump(),
              bytes);
}

TEST_F(SweepdE2eTest, SocketRoundTripThroughSweepClient)
{
    DaemonOptions opts = baseOptions();
    opts.socketPath = state_ + "/sock";
    if (opts.socketPath.size() >= 100)
        GTEST_SKIP() << "tmp path too long for sun_path";
    SweepDaemon daemon(opts);
    daemon.start();

    const SweepClient client(opts.socketPath);
    ASSERT_TRUE(client.ping(5));

    const JobSpec spec = quickMix();
    const json::Value sub = client.submit(spec);
    const auto id =
        static_cast<std::uint64_t>(sub.at("id").asNumber());
    const json::Value done = client.waitResult(id, 60000);
    EXPECT_EQ(done.at("state").asString(), "ok");
    EXPECT_EQ(done.at("result").dump(),
              mixResultToJson(directRun(spec)).dump());

    // Same wire, warm cache.
    const json::Value again = client.submit(spec);
    EXPECT_EQ(again.at("state").asString(), "cache_hit");

    const json::Value stats = client.stats();
    EXPECT_TRUE(stats.at("ok").asBool());
    EXPECT_EQ(stats.at("executed").asNumber(), 1.0);
    EXPECT_GE(stats.at("cache_entries").asNumber(), 1.0);

    EXPECT_TRUE(client.shutdown().at("ok").asBool());
    daemon.join();
}

TEST_F(SweepdE2eTest, OverlongRequestLineIsRefused)
{
    DaemonOptions opts = baseOptions();
    opts.socketPath = state_ + "/sock";
    if (opts.socketPath.size() >= 100)
        GTEST_SKIP() << "tmp path too long for sun_path";
    SweepDaemon daemon(opts);
    daemon.start();
    const SweepClient client(opts.socketPath);
    ASSERT_TRUE(client.ping(5));

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  opts.socketPath.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // 2 MiB with no newline. The daemon hangs up part way, so the
    // later writes fail with EPIPE instead of raising SIGPIPE.
    const auto oldPipe = std::signal(SIGPIPE, SIG_IGN);
    const std::string junk(64 << 10, 'x');
    for (int i = 0; i < 32; ++i) {
        if (::write(fd, junk.data(), junk.size()) <= 0)
            break;
    }
    std::signal(SIGPIPE, oldPipe);

    std::string line;
    char c;
    while (::read(fd, &c, 1) == 1 && c != '\n')
        line.push_back(c);
    ::close(fd);
    const auto resp = json::Value::tryParse(line);
    ASSERT_TRUE(resp.has_value()) << line;
    EXPECT_FALSE(resp->at("ok").asBool());
    EXPECT_NE(resp->at("error").asString().find("exceeds"),
              std::string::npos);

    // The daemon serves the next connection as usual.
    EXPECT_TRUE(client.ping());
    EXPECT_TRUE(client.shutdown().at("ok").asBool());
    daemon.join();
}

} // namespace
