/**
 * @file
 * How one job attempt crosses into a sandboxed process: the request
 * line a parent hands its runner, the runner that executes it, and
 * runJobAttempt, which the sweep supervisor and the daemon both call
 * to run an attempt in-process or sandboxed.
 *
 * The runner is the running program itself: a main that finds
 * runJobFlag as its only argument calls runJobMain before anything
 * else (nuca_sweepd, nuca_figures, and the test binaries that
 * sandbox). runJobAttempt spawns `/proc/self/exe --run-job` through
 * runSandboxed (sim/proc_pool.hh), whose header states the sandbox
 * contract.
 *
 * The request is one JSON line with the members
 *
 *   spec           JobSpec::toJson
 *   ckpt           {dir, period, max_mb}
 *   resume         bool
 *   robust         {check, check_period, watchdog, watchdog_window,
 *                   mshr_age_bound, max_cycles, fault: {kind, arg}}
 *   trace          {path, period, heatmap}
 *   fault_target   {job, label}, present only for a sweep job that a
 *                  job fault (injectJobFault) may strike
 *   mem_mb, cpu_s  the runner's rlimits (ProcIsolation)
 *   preemptible    SIGTERM asks the job to yield (ProcIsolation)
 *   simulating     the parent's cpu_budget::simulatingThreads()
 *
 * in that order; every member but spec may be absent and then takes
 * its default. The RunPolicy's one pointer, `preempt`, does not
 * cross: the runner points it at its own SIGTERM flag. A runner
 * keeps no Chrome trace-event log; its job's simulated time is in
 * the JSONL trace file the `trace` member names.
 */

#ifndef NUCA_SERVICE_JOB_RUNNER_HH
#define NUCA_SERVICE_JOB_RUNNER_HH

#include <cstdint>
#include <optional>
#include <string>

#include "service/job_spec.hh"
#include "sim/experiment.hh"
#include "sim/proc_pool.hh"

namespace nuca {
namespace service {

/** The one argument that makes a program a job runner. */
constexpr const char *runJobFlag = "--run-job";

/** Which sweep job a job fault may strike, and its label. */
struct FaultTarget
{
    std::uint64_t job = 0;
    std::string label;
};

/** One job attempt as a runner receives it. */
struct JobRequest
{
    JobSpec spec;
    /** The run's policy; only its value members cross. */
    RunPolicy policy;
    /** Set for a sweep job: injectJobFault(policy.robust.fault,
     *  job, label) runs before the job. */
    std::optional<FaultTarget> faultTarget;

    // Set by runJobAttempt when it spawns the runner.
    std::uint64_t memMb = 0;
    std::uint64_t cpuS = 0;
    bool preemptible = false;
    int simulating = 0;
};

/** The request line, newline included. */
std::string encodeJobRequest(const JobRequest &request);

/**
 * Parse and validate a request line (a trailing newline and
 * whitespace allowed). @throws SpecError naming what is wrong; a
 * request it returns re-encodes to the canonical line.
 */
JobRequest decodeJobRequest(const std::string &line);

/**
 * Run one attempt of @p request's job: in this process when
 * @p iso.enabled is false, otherwise in a spawned runner under
 * @p iso. @p handle, when given, carries preemption either way.
 * @throws std::logic_error for a sandboxed attempt before main has
 * called spawnedAsRunner: that program is no runner to spawn.
 */
MixResult runJobAttempt(const ProcIsolation &iso,
                        const JobRequest &request,
                        ProcJobHandle *handle = nullptr);

/**
 * True when @p argv makes this process a job runner. Calling it also
 * marks the running program as one, which runJobAttempt needs before
 * it spawns a copy: main calls it first thing.
 */
bool spawnedAsRunner(int argc, char **argv);

/**
 * The runner: read the request from stdin, apply its limits and
 * signal dispositions, run the job, and write its settlement line to
 * settlementFd. A request that does not decode settles "failed" with
 * the decoder's message. @return the process's exit status: 0, 124
 * when a limit cannot be applied, 123 when the settlement cannot be
 * written.
 */
int runJobMain();

} // namespace service
} // namespace nuca

#endif // NUCA_SERVICE_JOB_RUNNER_HH
