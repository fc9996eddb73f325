/**
 * @file
 * nuca_sweepd: the simulation service daemon. Listens on a
 * Unix-domain socket for line-delimited JSON requests (submit /
 * status / result / preempt / cancel / drain / stats / shutdown) and
 * runs submitted experiments on a bounded worker pool with
 * preemptive fair-share scheduling and a cross-run result cache.
 * See docs/SERVICE.md.
 *
 *   --socket PATH    socket to listen on (default <state>/sock)
 *   --state DIR      state directory: jobs.jsonl (the journal, which
 *                    is also the result cache) and ckpt/ snapshots
 *   --workers N      worker pool size
 *   --period CYCLES  snapshot/preemption period
 *   --quantum-ms MS  fair-share quantum (0 = no automatic preemption)
 *   --no-isolate     run jobs in the daemon's process instead of a
 *                    spawned sandbox runner per attempt
 *
 * Jobs run under the REPRO_* robustness, telemetry and sandbox-limit
 * settings of the daemon's environment (src/sim/env_config.hh).
 *
 * SIGINT/SIGTERM stop the daemon gracefully: running jobs yield at
 * their next snapshot and stay resumable on disk.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "service/job_runner.hh"
#include "service/sweepd.hh"
#include "sim/env_config.hh"
#include "sim/robustness.hh"

int
main(int argc, char **argv)
{
    using namespace nuca;
    using namespace nuca::service;

    // Each sandboxed attempt runs in a copy of this program.
    if (spawnedAsRunner(argc, argv))
        return runJobMain();

    DaemonOptions opts;
    // Isolation is --no-isolate's call; REPRO_JOB_* set the limits.
    opts.isolation = isolationFromEnv();
    opts.isolation.enabled = true;
    opts.robust = robustnessFromEnv();
    opts.telemetry = telemetryFromEnv();
    opts.ckptMaxMb = checkpointFromEnv().maxMb;
    opts.sync = envOr("REPRO_SYNC", 0) != 0;
    profilerFromEnv();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto count = [&](std::uint64_t max = ~0ull) {
            return flagCount("nuca_sweepd", arg, value(), max);
        };
        if (arg == "--socket") {
            opts.socketPath = value();
        } else if (arg == "--state") {
            opts.stateDir = value();
        } else if (arg == "--workers") {
            opts.workers = std::max(
                static_cast<unsigned>(count(UINT_MAX)), 1u);
        } else if (arg == "--period") {
            opts.preemptPeriod = count();
        } else if (arg == "--quantum-ms") {
            opts.quantumMs = count();
        } else if (arg == "--no-isolate") {
            opts.isolation.enabled = false;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return 2;
        }
    }
    if (opts.socketPath.empty())
        opts.socketPath = opts.stateDir + "/sock";

    try {
        SweepDaemon daemon(opts);
        daemon.start();
        std::printf("nuca_sweepd listening on %s (state %s, %u "
                    "workers, period %llu, quantum %llu ms, "
                    "isolation %s)\n",
                    opts.socketPath.c_str(), opts.stateDir.c_str(),
                    opts.workers,
                    static_cast<unsigned long long>(
                        opts.preemptPeriod),
                    static_cast<unsigned long long>(opts.quantumMs),
                    opts.isolation.enabled ? "proc" : "off");
        std::fflush(stdout);

        installSweepInterruptHandlers();
        while (!daemon.stopRequested() &&
               !sweepInterruptRequested()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
        restoreSweepInterruptHandlers();
        daemon.requestStop();
        daemon.join();
        std::printf("nuca_sweepd stopped\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nuca_sweepd: %s\n", e.what());
        return 1;
    }
}
