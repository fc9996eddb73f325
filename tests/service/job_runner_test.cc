/**
 * @file
 * The job runner a sandboxed attempt spawns (service/job_runner.hh):
 * the in-process path, the crashes the sandbox exists to contain
 * (a segfault, memory exhaustion), a preempt that races the spawn,
 * the CPU budget a runner inherits, and the request decoder under
 * every single-byte flip and truncation of a request line.
 */

#include "service/job_runner.hh"

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "base/cpu_budget.hh"
#include "sim/robustness.hh"
#include "support/job_request.hh"
#include "support/mutation.hh"

namespace nuca {
namespace service {
namespace {

JobSpec
quickMix()
{
    JobSpec spec;
    spec.scheme = "private";
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = 20070201;
    spec.warmupCycles = 2000;
    spec.measureCycles = 8000;
    return spec;
}

ProcIsolation
sandbox()
{
    ProcIsolation iso;
    iso.enabled = true;
    return iso;
}

/** A request for @p spec that job fault @p fault strikes. */
JobRequest
faulted(const JobSpec &spec, FaultKind fault)
{
    JobRequest request{spec, {}, FaultTarget{0, "faulted"}};
    request.policy.robust.fault.kind = fault;
    return request;
}

/** A directory under the temp dir, removed with the object. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                (name + "_" + std::to_string(::getpid())))
                   .string())
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

TEST(ProcPoolSandbox, DisabledIsolationRunsInline)
{
    // Without isolation the job runs on this thread, and a throw_job
    // fault aimed at it throws here.
    const JobRequest request{quickMix(), {}, {}};
    const RunPolicy none;
    EXPECT_EQ(runJobAttempt(ProcIsolation{}, request).ipc,
              runJob(quickMix(), none).ipc);
    EXPECT_THROW(runJobAttempt(ProcIsolation{},
                               faulted(quickMix(), FaultKind::ThrowJob)),
                 SimulationError);
}

TEST(ProcPoolSandbox, SegfaultBecomesJobCrashed)
{
    try {
        runJobAttempt(sandbox(), faulted(quickMix(), FaultKind::SegvJob));
        FAIL() << "expected JobCrashed";
    } catch (const JobCrashed &e) {
        EXPECT_NE(std::string(e.what()).find("SIGSEGV"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProcPoolSandbox, MemoryLimitTurnsOomIntoJobCrashed)
{
    ProcIsolation iso = sandbox();
    iso.memMb = 256;
    // The oom fault allocates until RLIMIT_AS makes new throw;
    // bad_alloc escaping its noexcept frame aborts the runner.
    EXPECT_THROW(
        runJobAttempt(iso, faulted(quickMix(), FaultKind::OomJob)),
        JobCrashed);
}

TEST(JobRunner, RequestAtTheDaemonsLineLimitRuns)
{
    // A daemon accepts a submit line of up to 1 MiB, so a spec's label
    // may be nearly that long; its runner must still get the request.
    JobRequest request{quickMix(), {}, {}};
    request.spec.label.assign(std::size_t(1) << 20, 'x');
    EXPECT_EQ(runJobAttempt(sandbox(), request).ipc,
              runJob(quickMix(), RunPolicy{}).ipc);
}

TEST(ProcPoolSandbox, PreemptRacingTheSpawnStillYields)
{
    // Raised before the spawn: the parent signals the runner the
    // moment it exists, before the runner has installed its SIGTERM
    // handler. The signal must wait for the handler, not kill it.
    const ScratchDir ckpt("nuca_runner_preempt");
    ProcIsolation iso = sandbox();
    iso.preemptible = true;
    JobRequest request{quickMix(), {}, {}};
    request.spec.measureCycles = 40000;
    request.policy.ckpt.dir = ckpt.path;
    request.policy.ckpt.period = 5000;
    ProcJobHandle handle;
    handle.preempt.store(true);
    EXPECT_THROW(runJobAttempt(iso, request, &handle), JobPreempted);
}

/** Threads of process @p pid now; 0 once it is gone. */
int
threadsOf(long long pid)
{
    DIR *tasks =
        ::opendir(("/proc/" + std::to_string(pid) + "/task").c_str());
    if (tasks == nullptr)
        return 0;
    int count = 0;
    while (const dirent *entry = ::readdir(tasks))
        count += entry->d_name[0] != '.' ? 1 : 0;
    ::closedir(tasks);
    return count;
}

/**
 * The most threads a sandboxed runner of a mix showed while it ran,
 * with @p simulating threads counted in this process at the spawn.
 */
int
peakRunnerThreads(int simulating)
{
    const int before = cpu_budget::simulatingThreads();
    cpu_budget::addSimulating(simulating - before);
    JobRequest request{quickMix(), {}, {}};
    request.spec.measureCycles = 3000000;
    ProcJobHandle handle;
    std::atomic<bool> done{false};
    std::thread attempt([&] {
        EXPECT_NO_THROW(runJobAttempt(sandbox(), request, &handle));
        done.store(true);
    });
    int peak = 0;
    while (!done.load()) {
        if (const long long pid = handle.pid.load())
            peak = std::max(peak, threadsOf(pid));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    attempt.join();
    cpu_budget::addSimulating(before - simulating);
    return peak;
}

TEST(JobRunner, InheritsTheParentsSimulatingThreads)
{
    // A runner counts its parent's simulating threads: with one per
    // CPU, as in a sweep with a worker per CPU, its system starts no
    // run-ahead producer; with none, it starts one.
    const int cpus = static_cast<int>(cpu_budget::hostCpus());
    if (cpus < 2)
        GTEST_SKIP() << "one CPU: no runner starts a producer";
    const int busy = peakRunnerThreads(cpus);
    const int idle = peakRunnerThreads(0);
    EXPECT_EQ(idle, busy + 1) << "runner threads: " << busy
                              << " with " << cpus
                              << " simulating, " << idle
                              << " with none";
}

TEST(JobRunner, UndecodableRequestSettlesFailed)
{
    for (const std::string &line :
         {std::string(), std::string("not json\n"),
          std::string("{\"spec\":{\"apps\":[\"nosuchapp\"]}}\n")}) {
        try {
            runSandboxed(sandbox(), {"/proc/self/exe", runJobFlag}, line);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const JobCrashed &e) {
            ADD_FAILURE() << line << ": crashed: " << e.what();
        } catch (const SimulationError &e) {
            EXPECT_NE(std::string(e.what()), "") << line;
        }
    }
}

TEST(JobRequestCodec, RoundTripsEveryMember)
{
    const JobRequest sample = sampleJobRequest();
    const std::string line = encodeJobRequest(sample);
    const JobRequest back = decodeJobRequest(line);
    EXPECT_EQ(encodeJobRequest(back), line);
    EXPECT_EQ(back.spec.toJson().dump(), sample.spec.toJson().dump());
    EXPECT_EQ(back.policy.ckpt.dir, "state/ckpt");
    EXPECT_EQ(back.policy.robust.fault.kind, FaultKind::SegvJob);
    EXPECT_EQ(back.policy.telemetry.samplePeriod, 300000u);
    ASSERT_TRUE(back.faultTarget);
    EXPECT_EQ(back.faultTarget->label, "shared.mix2");
    EXPECT_EQ(back.simulating, 3);

    // Only the spec is required; the rest defaults.
    const JobRequest minimal = decodeJobRequest(
        "{\"spec\":" + quickMix().toJson().dump() + "}");
    EXPECT_FALSE(minimal.faultTarget);
    EXPECT_EQ(minimal.policy.robust.fault.kind, FaultKind::None);
    EXPECT_EQ(minimal.simulating, 0);
}

TEST(JobRequestCodec, RefusesWhatWouldWedgeTheRun)
{
    const std::string spec = quickMix().toJson().dump();
    for (const std::string members :
         {",\"trace\":{\"period\":0}",
          ",\"robust\":{\"check\":true,\"check_period\":0}",
          ",\"robust\":{\"watchdog_window\":0}",
          ",\"robust\":{\"fault\":{\"kind\":\"nosuchfault\"}}",
          ",\"simulating\":4294967296", ",\"mem_mb\":-1",
          ",\"unknown\":1", ",\"ckpt\":{\"dir\":7}"}) {
        EXPECT_THROW(decodeJobRequest("{\"spec\":" + spec + members + "}"),
                     SpecError)
            << members;
    }
    EXPECT_THROW(decodeJobRequest("{\"resume\":true}"), SpecError);
}

TEST(JobRequestMutation, EveryMutantDecodesCanonicallyOrSettlesFailed)
{
    const std::string clean = encodeJobRequest(sampleJobRequest());
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t spawned = 0;
    forEachMutation(clean, [&](const std::string &mutant,
                               const std::string &what) {
        try {
            const std::string again =
                encodeJobRequest(decodeJobRequest(mutant));
            EXPECT_EQ(encodeJobRequest(decodeJobRequest(again)), again)
                << what;
            ++accepted;
            return;
        } catch (const SpecError &e) {
            EXPECT_NE(std::string(e.what()), "") << what;
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": decoder threw " << e.what();
            return;
        }
        // Every 64th refused mutant also goes through a real runner,
        // which must settle "failed" within its deadline: not crash,
        // not hang.
        if (rejected++ % 64 != 0)
            return;
        ++spawned;
        ProcIsolation iso = sandbox();
        iso.timeoutS = 30;
        try {
            runSandboxed(iso, {"/proc/self/exe", runJobFlag}, mutant);
            ADD_FAILURE() << what << ": the runner accepted it";
        } catch (const JobCrashed &e) {
            ADD_FAILURE() << what << ": " << e.what();
        } catch (const JobTimedOut &e) {
            ADD_FAILURE() << what << ": " << e.what();
        } catch (const SimulationError &e) {
            EXPECT_NE(std::string(e.what()), "") << what;
        }
    });
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, accepted);
    EXPECT_GT(spawned, 10u);
}

} // namespace
} // namespace service
} // namespace nuca
