/**
 * @file
 * TraceEventLog unit tests: event collection, the bounded-log drop
 * counter, JSON serialization, file round-trips, and the Chrome
 * trace-event validator the exported-trace ctests rely on, including
 * its byte-mutation sweep.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/json_writer.hh"
#include "sim/trace_event.hh"
#include "support/mutation.hh"

namespace nuca {
namespace {

json::Value
event(const char *ph, int pid, int tid, double ts, const char *name)
{
    json::Value ev = json::Value::object();
    if (name != nullptr)
        ev.set("name", name);
    ev.set("ph", ph);
    ev.set("pid", pid);
    ev.set("tid", tid);
    ev.set("ts", ts);
    return ev;
}

json::Value
wrap(json::Value events)
{
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    return doc;
}

TEST(TraceEventLog, CollectsAndSerializesAllEventKinds)
{
    TraceEventLog log;
    log.configure("unused.trace.json");
    ASSERT_TRUE(log.enabled());

    const int tid = log.newThread(TraceEventLog::kHostPid, "worker");
    EXPECT_GE(tid, 1);
    const int writer =
        log.newThread(TraceEventLog::kHostPid, "ckpt writer");
    EXPECT_NE(writer, tid);

    log.begin(TraceEventLog::kHostPid, tid, "job", 1.0);
    log.instant(TraceEventLog::kHostPid, tid, "job 0 failed", 3.0);
    log.end(TraceEventLog::kHostPid, tid, "job", 5.0);
    log.complete(TraceEventLog::kHostPid, writer, "ckpt write", 2.0,
                 4.0, json::Value::object().set("bytes", 64));
    EXPECT_EQ(log.events(), 4u);
    EXPECT_EQ(log.dropped(), 0u);

    std::string error;
    EXPECT_TRUE(validateChromeTrace(log.toJson(), &error)) << error;
}

TEST(TraceEventLog, DisabledCollectsNothing)
{
    TraceEventLog log;
    log.instant(1, 0, "before-configure", 1.0);
    EXPECT_EQ(log.events(), 0u);

    log.configure("unused.trace.json");
    log.disable();
    log.instant(1, 0, "after-disable", 2.0);
    EXPECT_EQ(log.events(), 0u);
}

TEST(TraceEventLog, BoundedLogCountsDrops)
{
    TraceEventLog log;
    log.configure("unused.trace.json", /*max_events=*/2);
    for (int i = 0; i < 5; ++i)
        log.instant(1, 0, "e", static_cast<double>(i));
    EXPECT_EQ(log.events(), 2u);
    EXPECT_EQ(log.dropped(), 3u);
    const json::Value doc = log.toJson();
    ASSERT_TRUE(doc.contains("droppedEvents"));
    EXPECT_EQ(doc.at("droppedEvents").asNumber(), 3.0);
}

TEST(TraceEventLog, FullLogStillClosesItsSpans)
{
    // Spans that straddle the cap: the Es of kept Bs are kept past
    // it, and a B dropped at the cap takes its E with it.
    constexpr int host = TraceEventLog::kHostPid;
    TraceEventLog log;
    log.configure("unused.trace.json", /*max_events=*/4);
    const int tid = log.newThread(host, "worker");
    log.begin(host, tid, "outer", 1.0);
    log.begin(host, tid, "inner", 2.0);
    log.instant(host, 0, "a", 3.0);
    log.begin(host, 0, "other", 4.0); // the log is full from here
    log.begin(host, tid, "late", 5.0);
    log.instant(host, 0, "b", 6.0);
    log.end(host, tid, "late", 7.0);
    log.end(host, tid, "inner", 8.0);
    log.end(host, 0, "other", 9.0);
    log.end(host, tid, "outer", 10.0);
    EXPECT_EQ(log.events(), 7u);
    EXPECT_EQ(log.dropped(), 3u);
    EXPECT_LE(log.events(), 2u * 4u);

    std::string error;
    EXPECT_TRUE(validateChromeTrace(log.toJson(), &error)) << error;
}

TEST(TraceEventLog, SpanEmitsMatchedPair)
{
    TraceEventLog log;
    log.configure("unused.trace.json");
    {
        TraceEventLog::Span span(log, TraceEventLog::kHostPid, 0,
                                 "scoped");
    }
    EXPECT_EQ(log.events(), 2u);
    std::string error;
    EXPECT_TRUE(validateChromeTrace(log.toJson(), &error)) << error;
}

TEST(TraceEventLog, WritesParseableFile)
{
    const std::string path =
        ::testing::TempDir() + "/trace_event_test.trace.json";
    TraceEventLog log;
    log.configure(path);
    log.complete(TraceEventLog::kHostPid, 0, "span", 10.0, 5.0);
    EXPECT_TRUE(log.writeIfPending());
    // writeIfPending is once per configure().
    EXPECT_FALSE(log.writeIfPending());

    const auto doc = json::Value::tryParse(json::readFile(path));
    ASSERT_TRUE(doc.has_value());
    std::string error;
    EXPECT_TRUE(validateChromeTrace(*doc, &error)) << error;
    std::remove(path.c_str());
}

TEST(ValidateChromeTrace, AcceptsBareArray)
{
    json::Value events = json::Value::array();
    events.append(event("i", 1, 0, 1.0, "tick"));
    std::string error;
    EXPECT_TRUE(validateChromeTrace(events, &error)) << error;
}

TEST(ValidateChromeTrace, RejectsMissingTraceEvents)
{
    std::string error;
    EXPECT_FALSE(
        validateChromeTrace(json::Value::object(), &error));
    EXPECT_NE(error.find("traceEvents"), std::string::npos);
}

TEST(ValidateChromeTrace, RejectsBackwardsTimePerTrack)
{
    json::Value events = json::Value::array();
    events.append(event("i", 1, 0, 10.0, "a"));
    events.append(event("i", 1, 0, 5.0, "b")); // same track, earlier
    std::string error;
    EXPECT_FALSE(validateChromeTrace(wrap(std::move(events)),
                                     &error));
    EXPECT_NE(error.find("backwards"), std::string::npos);
}

TEST(ValidateChromeTrace, AllowsBackwardsTimeAcrossTracks)
{
    // Different (pid, tid) tracks are different clock domains; only
    // within a track must time be monotonic.
    json::Value events = json::Value::array();
    events.append(event("i", 1, 0, 10.0, "host"));
    events.append(event("i", 2, 0, 5.0, "sim"));
    std::string error;
    EXPECT_TRUE(validateChromeTrace(wrap(std::move(events)), &error))
        << error;
}

TEST(ValidateChromeTrace, RejectsUnmatchedBeginEnd)
{
    {
        json::Value events = json::Value::array();
        events.append(event("B", 1, 0, 1.0, "open"));
        std::string error;
        EXPECT_FALSE(validateChromeTrace(wrap(std::move(events)),
                                         &error));
        EXPECT_NE(error.find("unclosed"), std::string::npos);
    }
    {
        json::Value events = json::Value::array();
        events.append(event("E", 1, 0, 1.0, "close"));
        std::string error;
        EXPECT_FALSE(validateChromeTrace(wrap(std::move(events)),
                                         &error));
        EXPECT_NE(error.find("without matching"), std::string::npos);
    }
    {
        json::Value events = json::Value::array();
        events.append(event("B", 1, 0, 1.0, "outer"));
        events.append(event("E", 1, 0, 2.0, "wrong-name"));
        std::string error;
        EXPECT_FALSE(validateChromeTrace(wrap(std::move(events)),
                                         &error));
        EXPECT_NE(error.find("does not match"), std::string::npos);
    }
}

TEST(ValidateChromeTrace, RejectsBadPhases)
{
    json::Value events = json::Value::array();
    events.append(event("Z", 1, 0, 1.0, "weird"));
    std::string error;
    EXPECT_FALSE(validateChromeTrace(wrap(std::move(events)),
                                     &error));
    EXPECT_NE(error.find("unsupported ph"), std::string::npos);
}

TEST(ValidateChromeTrace, AcceptsCounterEvents)
{
    json::Value events = json::Value::array();
    json::Value ipc = event("C", 2, 0, 100.0, "ipc");
    ipc.set("args", json::Value::object().set("core0", 0.5));
    events.append(std::move(ipc));
    events.append(event("C", 2, 0, 200.0, "ipc"));
    std::string error;
    EXPECT_TRUE(validateChromeTrace(wrap(std::move(events)), &error))
        << error;
}

TEST(ValidateChromeTrace, RefusesIdsThatAreNotIntsInRange)
{
    const char *const docs[] = {
        R"({"traceEvents":[{"ph":"i","pid":"x","tid":0,"ts":1,"name":"a"}]})",
        R"({"traceEvents":[{"ph":"i","pid":1e300,"tid":0,"ts":1,"name":"a"}]})",
        R"({"traceEvents":[{"ph":"i","pid":-3e9,"tid":0,"ts":1,"name":"a"}]})",
        R"({"traceEvents":[{"ph":"i","pid":1.5,"tid":0,"ts":1,"name":"a"}]})",
        R"({"traceEvents":[{"ph":"i","pid":1,"tid":[0],"ts":1,"name":"a"}]})",
        R"({"traceEvents":[{"ph":"M","pid":1,"tid":true,"name":"a"}]})",
    };
    for (const char *text : docs) {
        const auto doc = json::Value::tryParse(text);
        ASSERT_TRUE(doc.has_value()) << text;
        std::string error;
        EXPECT_FALSE(validateChromeTrace(*doc, &error)) << text;
        EXPECT_NE(error.find("integers in int range"),
                  std::string::npos)
            << text << ": " << error;
    }
}

TEST(ChromeTraceMutation, EveryMutantValidatesOrIsRefused)
{
    // Host spans, instants and a complete event on pid 1, counters
    // and an instant on a simulated system's pid 2, and the metadata
    // naming both.
    const std::string clean =
        R"({"displayTimeUnit":"ms","traceEvents":[)"
        R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"host"}},)"
        R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker 0"}},)"
        R"({"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"sim:a"}},)"
        R"({"name":"job 0","ph":"B","pid":1,"tid":1,"ts":1.5},)"
        R"({"name":"ckpt write","ph":"X","pid":1,"tid":1,"ts":2,"dur":3,"args":{"bytes":64}},)"
        R"({"name":"job 0 crashed","ph":"i","pid":1,"tid":1,"ts":6,"s":"t"},)"
        R"({"name":"job 0","ph":"E","pid":1,"tid":1,"ts":7},)"
        R"({"name":"ipc","ph":"C","pid":2,"tid":0,"ts":100,"args":{"core0":0.5}},)"
        R"({"name":"repartition","ph":"i","pid":2,"tid":0,"ts":2000,"s":"t","args":{"gainer":1}})"
        R"(]})";
    {
        const auto doc = json::Value::tryParse(clean);
        ASSERT_TRUE(doc.has_value());
        std::string error;
        ASSERT_TRUE(validateChromeTrace(*doc, &error)) << error;
    }

    std::size_t validated = 0;
    std::size_t refused = 0;
    forEachMutation(clean, [&](const std::string &mutant,
                               const std::string &what) {
        const auto doc = json::Value::tryParse(mutant);
        if (!doc) {
            ++refused;
            return;
        }
        std::string error;
        if (validateChromeTrace(*doc, &error)) {
            ++validated;
        } else {
            ++refused;
            EXPECT_FALSE(error.empty()) << what;
        }
    });
    EXPECT_GT(validated, 0u);
    EXPECT_GT(refused, 0u);
}

TEST(ValidateChromeTrace, RejectsCompleteWithoutDuration)
{
    json::Value events = json::Value::array();
    events.append(event("X", 1, 0, 1.0, "span"));
    std::string error;
    EXPECT_FALSE(validateChromeTrace(wrap(std::move(events)),
                                     &error));
    EXPECT_NE(error.find("dur"), std::string::npos);
}

} // namespace
} // namespace nuca
