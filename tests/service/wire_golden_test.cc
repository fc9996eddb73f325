/**
 * @file
 * Golden bytes of every place a result payload leaves the process: a
 * sweep sidecar / daemon journal line, the daemon's submit and result
 * response lines, and the sandbox's settlement line, for a 4-core mix
 * payload and a miss-curve payload; and the request line a sandboxed
 * job's runner reads.
 *
 * Any change to how a payload is encoded must leave these strings
 * alone: caches, journals and clients written by one build are read
 * by the next.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/job_runner.hh"
#include "service/job_spec.hh"
#include "service/sweepd.hh"
#include "sim/proc_pool.hh"
#include "sim/robustness.hh"
#include "sim/sweep_store.hh"
#include "support/job_request.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

/** A 4-core payload whose doubles exercise every number form the
 *  writer has: integers, round-trip fractions, exponents. */
MixResult
mixPayload()
{
    MixResult r;
    r.ipc = {0.1 + 0.2, 1.0 / 3.0, 0.9999999999999999, 2.0};
    r.l3AccessesPerKilocycle = {12.000000000000002, 0.0,
                                123456789012345.0, 1e-9};
    r.l1dMissRatio = {0.1, 0.7, 1.0 / 7.0, 1e15};
    r.l2dMissRatio = {0.5, 0.1 + 0.7, 1.0, 1e20};
    r.l3MissRatio = {0.0, 0.9, 0.3333333333333333, 1e-12};
    r.mispredictRate = {0.05, 0.01, 0.125, 2.0 / 3.0};
    return r;
}

MixResult
curvePayload()
{
    MixResult r;
    r.curve = {1048576.0, 524288.5, 0.1, 0.0};
    return r;
}

JobSpec
mixSpec()
{
    JobSpec spec;
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = 42;
    spec.warmupCycles = 20000;
    spec.measureCycles = 40000;
    spec.tenant = "alice";
    spec.priority = 3;
    return spec;
}

JobSpec
curveSpec()
{
    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"mcf"};
    spec.insts = 1000;
    return spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(WireGolden, SidecarLines)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("nuca_wire_golden_" + std::to_string(::getpid()) + ".jsonl"))
            .string();
    std::filesystem::remove(path);
    {
        SweepStore store(path);
        SweepRecord sweep;
        sweep.label = "adaptive.mix0";
        sweep.key = 0x0123456789abcdefULL;
        sweep.result = mixPayload();
        store.append(sweep);

        SweepRecord timed;
        timed.label = "job7:mcf \"curve\"";
        timed.key = 0xffULL;
        timed.status = JobStatus::CacheHit;
        timed.result = curvePayload();
        timed.timed = true;
        timed.queueMs = 12;
        timed.preempts = 2;
        store.append(timed);

        SweepRecord failed;
        failed.label = "shared.mix3";
        failed.status = JobStatus::Crashed;
        failed.error = "killed by\tSIGSEGV\n";
        failed.timed = true;
        store.append(failed);
    }
    EXPECT_EQ(
        slurp(path),
        R"({"label":"adaptive.mix0","key":"0123456789abcdef","status":"ok","ipc":[0.30000000000000004,0.33333333333333331,0.99999999999999989,2],"l3apk":[12.000000000000002,0,123456789012345,1.0000000000000001e-09],"l1d_miss":[0.10000000000000001,0.69999999999999996,0.14285714285714285,1000000000000000],"l2d_miss":[0.5,0.79999999999999993,1,1e+20],"l3_miss":[0,0.90000000000000002,0.33333333333333331,9.9999999999999998e-13],"mispredict":[0.050000000000000003,0.01,0.125,0.66666666666666663]}
{"label":"job7:mcf \"curve\"","key":"00000000000000ff","status":"cache_hit","ipc":[],"l3apk":[],"curve":[1048576,524288.5,0.10000000000000001,0],"queue_ms":12,"preempts":2}
{"label":"shared.mix3","status":"crashed","error":"killed by\tSIGSEGV\n","ipc":[],"l3apk":[],"queue_ms":0,"preempts":0}
)");
    std::filesystem::remove(path);
}

/** Send @p line on @p fd and read one response line back. */
std::string
roundTrip(int fd, const std::string &line)
{
    const std::string out = line + "\n";
    EXPECT_EQ(::write(fd, out.data(), out.size()),
              static_cast<ssize_t>(out.size()));
    std::string response;
    char c;
    while (::read(fd, &c, 1) == 1) {
        response.push_back(c);
        if (c == '\n')
            break;
    }
    return response;
}

TEST(WireGolden, DaemonResponseAndJournalLines)
{
    const std::string state =
        (std::filesystem::temp_directory_path() /
         ("nuca_wire_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(state);
    DaemonOptions opts;
    opts.stateDir = state;
    opts.socketPath = state + "/sock";
    if (opts.socketPath.size() >= 100)
        GTEST_SKIP() << "tmp path too long for sun_path";
    opts.workers = 1;
    opts.quantumMs = 0;
    opts.isolation.enabled = false;

    const JobSpec mix = mixSpec();
    const JobSpec curve = curveSpec();
    {
        // An earlier daemon's journal on this state directory: its ok
        // records are what the submits below are served from.
        std::filesystem::create_directories(state);
        SweepStore seed(state + "/jobs.jsonl");
        SweepRecord record;
        record.timed = true;
        record.label = "job1:" + mix.displayLabel();
        record.key = mix.resultKey();
        record.result = mixPayload();
        seed.append(record);
        record.label = "job2:" + curve.displayLabel();
        record.key = curve.resultKey();
        record.result = curvePayload();
        seed.append(record);
    }

    SweepDaemon daemon(opts);
    daemon.start();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  opts.socketPath.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    EXPECT_EQ(
        roundTrip(fd, R"({"op":"submit","spec":)" + mix.toJson().dump() +
                         "}"),
        R"({"ok":true,"id":1,"state":"cache_hit","key":"0b56de954ac55736","label":"mix:adaptive.baseline mcf+gzip+ammp+art#42"})"
        "\n");
    EXPECT_EQ(
        roundTrip(fd, R"({"op":"result","id":1})"),
        R"({"state":"cache_hit","preempts":0,"queue_ms":0,"ok":true,"result":{"ipc":[0.30000000000000004,0.33333333333333331,0.99999999999999989,2],"l3apk":[12.000000000000002,0,123456789012345,1.0000000000000001e-09],"l1d_miss":[0.10000000000000001,0.69999999999999996,0.14285714285714285,1000000000000000],"l2d_miss":[0.5,0.79999999999999993,1,1e+20],"l3_miss":[0,0.90000000000000002,0.33333333333333331,9.9999999999999998e-13],"mispredict":[0.050000000000000003,0.01,0.125,0.66666666666666663]}})"
        "\n");
    EXPECT_EQ(
        roundTrip(fd, R"({"op":"submit","spec":)" +
                         curve.toJson().dump() + "}"),
        R"({"ok":true,"id":2,"state":"cache_hit","key":"076996bacbf674c3","label":"miss_curve:adaptive.baseline mcf#0"})"
        "\n");
    EXPECT_EQ(
        roundTrip(fd, R"({"op":"result","id":2})"),
        R"({"state":"cache_hit","preempts":0,"queue_ms":0,"ok":true,"result":{"ipc":[],"l3apk":[],"curve":[1048576,524288.5,0.10000000000000001,0]}})"
        "\n");
    EXPECT_EQ(roundTrip(fd, R"({"op":"shutdown"})"),
              "{\"ok\":true,\"stopping\":true}\n");
    ::close(fd);
    daemon.join();

    EXPECT_EQ(
        slurp(state + "/jobs.jsonl"),
        R"({"label":"job1:mix:adaptive.baseline mcf+gzip+ammp+art#42","key":"0b56de954ac55736","status":"ok","ipc":[0.30000000000000004,0.33333333333333331,0.99999999999999989,2],"l3apk":[12.000000000000002,0,123456789012345,1.0000000000000001e-09],"l1d_miss":[0.10000000000000001,0.69999999999999996,0.14285714285714285,1000000000000000],"l2d_miss":[0.5,0.79999999999999993,1,1e+20],"l3_miss":[0,0.90000000000000002,0.33333333333333331,9.9999999999999998e-13],"mispredict":[0.050000000000000003,0.01,0.125,0.66666666666666663],"queue_ms":0,"preempts":0}
{"label":"job2:miss_curve:adaptive.baseline mcf#0","key":"076996bacbf674c3","status":"ok","ipc":[],"l3apk":[],"curve":[1048576,524288.5,0.10000000000000001,0],"queue_ms":0,"preempts":0}
{"label":"job1:mix:adaptive.baseline mcf+gzip+ammp+art#42","key":"0b56de954ac55736","status":"cache_hit","ipc":[],"l3apk":[],"queue_ms":0,"preempts":0}
{"label":"job2:miss_curve:adaptive.baseline mcf#0","key":"076996bacbf674c3","status":"cache_hit","ipc":[],"l3apk":[],"queue_ms":0,"preempts":0}
)");
    std::filesystem::remove_all(state);
}

/** The settlement line a job runner writes for @p job. */
std::string
pipeLine(const std::function<MixResult()> &job)
{
    return settlementLine(job);
}

TEST(WireGolden, SandboxPipeLines)
{
    EXPECT_EQ(
        pipeLine([] { return mixPayload(); }),
        R"({"ipc":[0.30000000000000004,0.33333333333333331,0.99999999999999989,2],"l3apk":[12.000000000000002,0,123456789012345,1.0000000000000001e-09],"l1d_miss":[0.10000000000000001,0.69999999999999996,0.14285714285714285,1000000000000000],"l2d_miss":[0.5,0.79999999999999993,1,1e+20],"l3_miss":[0,0.90000000000000002,0.33333333333333331,9.9999999999999998e-13],"mispredict":[0.050000000000000003,0.01,0.125,0.66666666666666663],"status":"ok"})"
        "\n");
    EXPECT_EQ(
        pipeLine([] { return curvePayload(); }),
        R"({"ipc":[],"l3apk":[],"curve":[1048576,524288.5,0.10000000000000001,0],"status":"ok"})"
        "\n");
    EXPECT_EQ(pipeLine([]() -> MixResult {
                  throw SimulationStalled("no \"progress\"");
              }),
              R"({"status":"stalled","error":"no \"progress\""})"
              "\n");

    // And the parent decodes a line that crossed a real settlement
    // pipe back to the payload: a shell child echoes it there.
    for (const MixResult &payload : {mixPayload(), curvePayload()}) {
        const MixResult back =
            runSandboxed(ProcIsolation{}, {"/bin/sh", "-c", "cat >&3"},
                         pipeLine([&] { return payload; }));
        EXPECT_EQ(mixResultToJson(back).dump(),
                  mixResultToJson(payload).dump());
    }
}

TEST(WireGolden, JobRequestLine)
{
    EXPECT_EQ(
        encodeJobRequest(sampleJobRequest()),
        R"({"spec":{"kind":"mix","base":"baseline","scheme":"shared","overrides":{"epoch_misses":250},"apps":["mcf","gzip","ammp","art"],"seed":"42","warmup_cycles":20000,"measure_cycles":40000,"tenant":"default","priority":0,"label":"shared.mix2"},"ckpt":{"dir":"state/ckpt","period":10000,"max_mb":64},"resume":true,"robust":{"check":true,"check_period":50000,"watchdog":true,"watchdog_window":500000,"mshr_age_bound":500000,"max_cycles":90000000,"fault":{"kind":"segv","arg":2}},"trace":{"path":"out/trace.jsonl","period":300000,"heatmap":true},"fault_target":{"job":2,"label":"shared.mix2"},"mem_mb":4096,"cpu_s":60,"preemptible":true,"simulating":3})"
        "\n");
}

} // namespace
