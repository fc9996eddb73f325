/**
 * @file
 * Sweep-supervisor coverage at the bench-harness level: the
 * throw_job fault injection, the REPRO_FAIL policies, the crash-safe
 * results sidecar, and resume-after-kill. Every test restores the
 * environment it touches — the knobs are process-global.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hh"
#include "sim/checkpoint.hh"
#include "sim/robustness.hh"
#include "sim/sweep_store.hh"
#include "support/sweep_records.hh"

namespace nuca {
namespace bench {
namespace {

std::vector<std::pair<std::string, SystemConfig>>
smallConfigs()
{
    return {{"private", SystemConfig::baseline(L3Scheme::Private)},
            {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}};
}

const SimWindow kWindow{2000, 8000};

std::vector<ExperimentSpec>
smallMixes()
{
    return makeMixes({"mcf", "gzip", "ammp", "art"}, 3, 4, 20070202);
}

/** runKey of sweep cell (@p scheme, @p mix) run over @p window. */
std::uint64_t
cellKey(std::size_t scheme, std::size_t mix, const SimWindow &window)
{
    const ExperimentSpec spec = smallMixes()[mix];
    return runKey(smallConfigs()[scheme].second, spec.apps, spec.seed,
                  window.warmupCycles, window.measureCycles);
}

void
clearKnobs()
{
    ::unsetenv("REPRO_JSON");
    ::unsetenv("REPRO_FAIL");
    ::unsetenv("REPRO_FAULT");
    ::unsetenv("REPRO_RESUME");
    ::unsetenv("REPRO_ISOLATE");
    ::unsetenv("REPRO_JOB_MEM_MB");
    ::unsetenv("REPRO_JOB_CPU_S");
    ::unsetenv("REPRO_JOB_TIMEOUT_S");
    ::unsetenv("REPRO_JOB_GRACE_MS");
    ::unsetenv("REPRO_SYNC");
}

class SweepSupervisor : public ::testing::Test
{
  protected:
    void SetUp() override { clearKnobs(); }
    void TearDown() override { clearKnobs(); }
};

TEST_F(SweepSupervisor, SkipPolicyCompletesWithBitIdenticalSiblings)
{
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const auto reference = runAllSerial(configs, mixes, kWindow);

    // Sweep job 2 = (scheme 0, mix 2) throws; under skip the sweep
    // still completes and every other cell matches the fault-free
    // serial reference bit for bit.
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "throw_job:2", 1);
    const auto results = runAll(configs, mixes, kWindow, 2);

    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t s = 0; s < results.size(); ++s) {
        ASSERT_EQ(results[s].mixes.size(),
                  reference[s].mixes.size());
        for (std::size_t m = 0; m < results[s].mixes.size(); ++m) {
            if (s == 0 && m == 2) {
                EXPECT_FALSE(results[s].okAt(m));
                EXPECT_EQ(results[s].statuses[m], JobStatus::Failed);
                EXPECT_NE(results[s].errors[m].find(
                              "fault injection"),
                          std::string::npos);
                EXPECT_TRUE(results[s].mixes[m].ipc.empty());
            } else {
                EXPECT_TRUE(results[s].okAt(m));
                EXPECT_EQ(results[s].mixes[m].ipc,
                          reference[s].mixes[m].ipc)
                    << results[s].label << " mix " << m;
            }
        }
    }
}

TEST_F(SweepSupervisor, AbortPolicyThrowsButKeepsSidecar)
{
    const std::string path =
        testing::TempDir() + "sweep_abort_results.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());

    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_FAULT", "throw_job:0", 1);
    EXPECT_THROW(
        runAll(smallConfigs(), smallMixes(), kWindow, 1),
        SimulationError);

    // The failed job reached the sidecar before the rethrow, so a
    // post-mortem (or a resume) can see what happened.
    const auto records = loadRecords(sidecar);
    ASSERT_GE(records.size(), 1u);
    EXPECT_EQ(records[0].label, "private.mix0");
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST_F(SweepSupervisor, FailedRecordsCarryStatusInFinalJson)
{
    const std::string path =
        testing::TempDir() + "sweep_skip_results.json";
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "throw_job:1", 1);
    runAll(smallConfigs(), smallMixes(), kWindow, 2);

    const auto doc = json::Value::parse(json::readFile(path));
    const auto &records = doc.at("results");
    ASSERT_EQ(records.size(), 6u); // 2 schemes x 3 mixes
    for (std::size_t r = 0; r < records.size(); ++r) {
        if (r == 1) {
            EXPECT_EQ(records.at(r).at("status").asString(),
                      "failed");
            EXPECT_NE(records.at(r)
                          .at("error")
                          .asString()
                          .find("fault injection"),
                      std::string::npos);
        } else {
            // Healthy records carry no status key at all, keeping
            // the fault-free document format unchanged.
            EXPECT_FALSE(records.at(r).contains("status"));
        }
    }
    // A partially failed sweep keeps its sidecar for resume.
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    EXPECT_FALSE(loadRecords(sidecar).empty());
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST_F(SweepSupervisor, CleanSweepRemovesSidecar)
{
    const std::string path =
        testing::TempDir() + "sweep_clean_results.json";
    ::setenv("REPRO_JSON", path.c_str(), 1);
    runAll(smallConfigs(), smallMixes(), kWindow, 2);
    std::FILE *f = std::fopen(
        SweepStore::sidecarPathFor(path).c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
    std::remove(path.c_str());
}

TEST_F(SweepSupervisor, KillAndResumeReproducesTheCleanSweep)
{
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();

    // Reference: one uninterrupted sweep.
    const std::string cleanPath =
        testing::TempDir() + "sweep_resume_clean.json";
    ::setenv("REPRO_JSON", cleanPath.c_str(), 1);
    runAll(configs, mixes, kWindow, 2);

    // "Killed" run: job 4 fails under skip, leaving a sidecar with
    // five ok records and one failure.
    const std::string path =
        testing::TempDir() + "sweep_resume_results.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "throw_job:4", 1);
    runAll(configs, mixes, kWindow, 2);
    const auto beforeResume = loadRecords(sidecar);
    ASSERT_EQ(beforeResume.size(), 6u);

    // Resume without the fault: only the failed job re-runs, and the
    // final document is byte-identical to the uninterrupted sweep's.
    ::unsetenv("REPRO_FAULT");
    ::setenv("REPRO_RESUME", "1", 1);
    runAll(configs, mixes, kWindow, 2);

    EXPECT_EQ(json::readFile(path), json::readFile(cleanPath));

    // The resumed run appended exactly the one re-run job before the
    // clean finish removed the sidecar — no completed job was
    // re-simulated (the sidecar would show its label twice).
    std::FILE *f = std::fopen(sidecar.c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);

    std::remove(path.c_str());
    std::remove(cleanPath.c_str());
}

TEST_F(SweepSupervisor, ResumeReusesSidecarResultsVerbatim)
{
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const std::string path =
        testing::TempDir() + "sweep_reuse_results.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());

    // Plant a sidecar record with sentinel values no simulation
    // would produce, under the job's own content key. If the resumed
    // sweep reports them, it provably reused the sidecar instead of
    // re-simulating the job.
    {
        SweepStore store(sidecar);
        SweepRecord fake;
        fake.label = "private.mix0";
        fake.key = cellKey(0, 0, kWindow);
        fake.result.ipc = {123.0, 456.0, 789.0, 1011.0};
        fake.result.l3AccessesPerKilocycle = {1.0, 2.0, 3.0, 4.0};
        fake.result.l1dMissRatio = fake.result.l2dMissRatio =
            fake.result.l3MissRatio = fake.result.mispredictRate =
                {0.5, 0.5, 0.5, 0.5};
        store.append(fake);
    }
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_RESUME", "1", 1);
    const auto results = runAll(configs, mixes, kWindow, 2);

    EXPECT_EQ(results[0].mixes[0].ipc,
              (std::vector<double>{123.0, 456.0, 789.0, 1011.0}));
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST_F(SweepSupervisor, ResumeResimulatesRecordsOfAnotherRun)
{
    // A label alone does not identify a result: a record simulated
    // over another window, or one with no key at all, must be
    // re-simulated rather than reused.
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const auto reference = runAllSerial(configs, mixes, kWindow);
    const std::string path =
        testing::TempDir() + "sweep_stale_results.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    {
        SweepStore store(sidecar);
        SweepRecord stale;
        stale.label = "private.mix0";
        stale.key = cellKey(0, 0, {kWindow.warmupCycles,
                                   4 * kWindow.measureCycles});
        stale.result.ipc = {123.0, 456.0, 789.0, 1011.0};
        stale.result.l3AccessesPerKilocycle = stale.result.l1dMissRatio =
            stale.result.l2dMissRatio = stale.result.l3MissRatio =
                stale.result.mispredictRate = {0.5, 0.5, 0.5, 0.5};
        store.append(stale);
        SweepRecord keyless = stale;
        keyless.label = "private.mix1";
        keyless.key.reset();
        store.append(keyless);
    }
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_RESUME", "1", 1);
    const auto results = runAll(configs, mixes, kWindow, 2);

    EXPECT_EQ(results[0].mixes[0].ipc, reference[0].mixes[0].ipc);
    EXPECT_EQ(results[0].mixes[1].ipc, reference[0].mixes[1].ipc);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST_F(SweepSupervisor, ProcIsolatedCleanSweepIsByteIdentical)
{
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();

    const std::string inprocPath =
        testing::TempDir() + "sweep_inproc_results.json";
    ::setenv("REPRO_JSON", inprocPath.c_str(), 1);
    runAll(configs, mixes, kWindow, 2);

    const std::string procPath =
        testing::TempDir() + "sweep_proc_results.json";
    ::setenv("REPRO_JSON", procPath.c_str(), 1);
    ::setenv("REPRO_ISOLATE", "proc", 1);
    runAll(configs, mixes, kWindow, 2);

    // The acceptance bar for the sandbox: a fault-free proc-isolated
    // sweep writes the very same bytes as the in-process pool.
    EXPECT_EQ(json::readFile(procPath), json::readFile(inprocPath));
    std::remove(inprocPath.c_str());
    std::remove(procPath.c_str());
}

TEST_F(SweepSupervisor, ProcSegvFaultRecordsCrashAndSiblingsSurvive)
{
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const auto reference = runAllSerial(configs, mixes, kWindow);

    const std::string path =
        testing::TempDir() + "sweep_segv_results.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_ISOLATE", "proc", 1);
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "segv:2", 1);
    const auto results = runAll(configs, mixes, kWindow, 2);

    // Sweep job 2 = (scheme 0, mix 2) died of SIGSEGV in its child
    // process; the sweep itself completed and classified it.
    EXPECT_EQ(results[0].statuses[2], JobStatus::Crashed);
    EXPECT_NE(results[0].errors[2].find("SIGSEGV"),
              std::string::npos)
        << results[0].errors[2];

    // Every sibling matches the fault-free serial reference bit for
    // bit — the crash never contaminated the rest of the sweep.
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < results[s].mixes.size(); ++m) {
            if (s == 0 && m == 2)
                continue;
            EXPECT_TRUE(results[s].okAt(m));
            EXPECT_EQ(results[s].mixes[m].ipc,
                      reference[s].mixes[m].ipc)
                << results[s].label << " mix " << m;
        }
    }

    // The sidecar kept the crash for post-mortem and resume.
    bool sawCrash = false;
    for (const auto &record : loadRecords(sidecar))
        sawCrash |= record.status == JobStatus::Crashed;
    EXPECT_TRUE(sawCrash);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST_F(SweepSupervisor, ProcHangFaultTimesOut)
{
    ::setenv("REPRO_ISOLATE", "proc", 1);
    ::setenv("REPRO_JOB_TIMEOUT_S", "1", 1);
    ::setenv("REPRO_JOB_GRACE_MS", "200", 1);
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "hang:1", 1);
    const auto results =
        runAll(smallConfigs(), smallMixes(), kWindow, 2);

    // Sweep job 1 = (scheme 0, mix 1) slept forever; the parent's
    // wall-clock deadline reaped it and the sweep moved on.
    EXPECT_EQ(results[0].statuses[1], JobStatus::TimedOut);
    EXPECT_NE(results[0].errors[1].find("wall-clock"),
              std::string::npos)
        << results[0].errors[1];
    EXPECT_TRUE(results[1].okAt(1));
}

TEST_F(SweepSupervisor, ProcCrashRecoversWithResume)
{
    // A crashed job is recovered by rerunning with REPRO_RESUME=1
    // once its cause is gone: the five ok records are reused, the
    // crashed one re-simulated, and the document equals a clean
    // sweep's.
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const std::string cleanPath =
        testing::TempDir() + "sweep_crash_clean.json";
    ::setenv("REPRO_JSON", cleanPath.c_str(), 1);
    runAll(configs, mixes, kWindow, 2);

    const std::string path =
        testing::TempDir() + "sweep_crash_results.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_ISOLATE", "proc", 1);
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "segv:0", 1);
    const auto crashed = runAll(configs, mixes, kWindow, 2);
    EXPECT_EQ(crashed[0].statuses[0], JobStatus::Crashed);

    ::unsetenv("REPRO_FAULT");
    ::setenv("REPRO_RESUME", "1", 1);
    testing::internal::CaptureStderr();
    const auto resumed = runAll(configs, mixes, kWindow, 2);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("resume: reusing 5 of 6"), std::string::npos)
        << log;
    EXPECT_TRUE(resumed[0].okAt(0));
    EXPECT_EQ(json::readFile(path), json::readFile(cleanPath));
    std::FILE *f = std::fopen(sidecar.c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    if (f)
        std::fclose(f);
    std::remove(path.c_str());
    std::remove(cleanPath.c_str());
}

TEST_F(SweepSupervisor, CrashFaultWithoutProcIsolationIsFatal)
{
    // A segv/oom/hang fault without the sandbox would take down (or
    // wedge) the whole sweep process; the harness refuses up front.
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "segv:0", 1);
    EXPECT_EXIT(runAll(smallConfigs(), smallMixes(), kWindow, 1),
                ::testing::ExitedWithCode(1), "REPRO_ISOLATE");
}

TEST_F(SweepSupervisor, SigtermStopsTheSweepGracefully)
{
    // The sigterm fault raises SIGTERM inside job 0 — exactly what a
    // Ctrl-C / kill during a sweep looks like. The supervisor must
    // finish the in-flight job, flush its record, mark the untried
    // remainder interrupted (not failed), and return without
    // throwing or leaving a torn sidecar.
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const auto reference = runAllSerial(configs, mixes, kWindow);

    const std::string path =
        testing::TempDir() + "interrupt_sweep.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());

    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_FAULT", "sigterm:0", 1);
    const auto results = runAll(configs, mixes, kWindow, 1);
    ::unsetenv("REPRO_JSON");
    ::unsetenv("REPRO_FAULT");

    EXPECT_TRUE(sweepInterruptRequested());
    clearSweepInterrupt();

    // Job 0 ran to completion (the signal interrupts the *sweep*,
    // not the in-flight simulation) and matches the clean reference
    // bit for bit; everything after it was never attempted.
    ASSERT_EQ(results.size(), configs.size());
    EXPECT_TRUE(results[0].okAt(0));
    EXPECT_EQ(results[0].mixes[0].ipc, reference[0].mixes[0].ipc);
    std::size_t interrupted = 0;
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            if (s == 0 && m == 0)
                continue;
            EXPECT_EQ(results[s].statuses[m],
                      JobStatus::Interrupted)
                << "scheme " << s << " mix " << m;
            EXPECT_TRUE(results[s].mixes[m].ipc.empty());
            ++interrupted;
        }
    }
    EXPECT_EQ(interrupted, configs.size() * mixes.size() - 1);

    // The sidecar accounts for every job — one ok record plus one
    // interrupted record each for the rest, no torn lines — so a
    // REPRO_RESUME=1 rerun knows exactly where to continue.
    const auto records = loadRecords(sidecar);
    ASSERT_EQ(records.size(), configs.size() * mixes.size());
    std::size_t ok_records = 0, interrupted_records = 0;
    for (const auto &record : records) {
        if (record.status == JobStatus::Ok)
            ++ok_records;
        if (record.status == JobStatus::Interrupted)
            ++interrupted_records;
    }
    EXPECT_EQ(ok_records, 1u);
    EXPECT_EQ(interrupted_records,
              configs.size() * mixes.size() - 1);

    // An interrupted sweep resumes: the rerun reuses the ok record
    // and simulates only the interrupted remainder, landing on the
    // clean sweep's results exactly.
    ::setenv("REPRO_JSON", path.c_str(), 1);
    ::setenv("REPRO_RESUME", "1", 1);
    const auto resumed = runAll(configs, mixes, kWindow, 1);
    ::unsetenv("REPRO_RESUME");
    ::unsetenv("REPRO_JSON");
    for (std::size_t s = 0; s < resumed.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            EXPECT_TRUE(resumed[s].okAt(m));
            EXPECT_EQ(resumed[s].mixes[m].ipc,
                      reference[s].mixes[m].ipc)
                << "scheme " << s << " mix " << m;
        }
    }
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST_F(SweepSupervisor, ProcIsolatedSigtermStopsTheSweepGracefully)
{
    // The sigterm fault aims at the sweep, so under REPRO_ISOLATE=proc
    // too the sweep takes the signal, not job 0's runner: job 0
    // finishes and the rest is recorded interrupted.
    const auto configs = smallConfigs();
    const auto mixes = smallMixes();
    const auto reference = runAllSerial(configs, mixes, kWindow);

    ::setenv("REPRO_ISOLATE", "proc", 1);
    ::setenv("REPRO_FAULT", "sigterm:0", 1);
    const auto results = runAll(configs, mixes, kWindow, 1);

    EXPECT_TRUE(sweepInterruptRequested());
    clearSweepInterrupt();
    ASSERT_EQ(results.size(), configs.size());
    EXPECT_TRUE(results[0].okAt(0));
    EXPECT_EQ(results[0].mixes[0].ipc, reference[0].mixes[0].ipc);
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            if (s != 0 || m != 0) {
                EXPECT_EQ(results[s].statuses[m],
                          JobStatus::Interrupted)
                    << "scheme " << s << " mix " << m;
            }
        }
    }
}

} // namespace
} // namespace bench
} // namespace nuca
