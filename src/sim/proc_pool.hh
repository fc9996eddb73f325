/**
 * @file
 * Process isolation for sweep jobs (REPRO_ISOLATE=proc, and
 * nuca_sweepd by default): each job attempt runs in a freshly spawned
 * program, so a job that segfaults, exhausts memory, or wedges takes
 * down only its own process. The parent classifies the death and the
 * sweep supervisor (REPRO_FAIL) decides what to do about it.
 *
 * The sandbox contract:
 *
 *  - runSandboxed spawns the argv it is given with posix_spawn. The
 *    job runner (service/job_runner.hh) is the running program
 *    itself, `/proc/self/exe --run-job`, so the child is a fresh
 *    process that shares no thread, lock or heap with its parent.
 *
 *  - One request line goes to the child's stdin and one settlement
 *    line comes back on its fd 3 (settlementFd). The request's stdin
 *    is a memory file (memfd_create) written before the child
 *    starts, so a request of any size arrives whole; the settlement
 *    comes back over a pipe. Both are close-on-exec, so no sibling's
 *    child inherits them. The child's stdout and stderr are the
 *    parent's: nothing a job prints can corrupt its settlement.
 *
 *  - The settlement is one JSON line written with settlementLine and
 *    read back by the one-pass payload codec the results sidecar
 *    uses; doubles round-trip exactly, so a clean proc-isolated sweep
 *    produces byte-identical REPRO_JSON to the in-process pool. A job
 *    that throws ships to_string(classifyFailure(...)) and its
 *    message, and the parent rebuilds it with rethrowAs, so every
 *    executor classifies it exactly as if no sandbox existed.
 *
 *  - The child starts with SIGTERM and SIGINT blocked. The runner
 *    unblocks them once it has chosen their dispositions, so a
 *    preempt sent the moment the child exists waits for the runner's
 *    handler instead of killing it.
 *
 *  - The runner applies the setrlimit caps itself: REPRO_JOB_MEM_MB
 *    bounds the address space (RLIMIT_AS) and REPRO_JOB_CPU_S the
 *    CPU seconds (RLIMIT_CPU; the kernel delivers SIGXCPU at the soft
 *    limit, SIGKILL one second later).
 *
 *  - The parent enforces a wall-clock deadline (REPRO_JOB_TIMEOUT_S):
 *    past it the child gets SIGTERM, then REPRO_JOB_GRACE_MS of
 *    grace to die cleanly, then SIGKILL. A deadline catches what
 *    RLIMIT_CPU cannot — a job wedged in a sleep loop burns no CPU.
 *
 *  - Abnormal ends become typed exceptions: JobTimedOut for the
 *    deadline or SIGXCPU, JobCrashed for everything else (a request
 *    file, pipe or spawn that failed, a signal, a nonzero exit, or
 *    an empty, unparsable or mistyped settlement).
 */

#ifndef NUCA_SIM_PROC_POOL_HH
#define NUCA_SIM_PROC_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace nuca {

/** The REPRO_ISOLATE process-sandbox knobs. */
struct ProcIsolation
{
    /** Run each job in a spawned runner (REPRO_ISOLATE=proc). */
    bool enabled = false;
    /** Runner address-space cap in MiB; 0 = unlimited
     *  (REPRO_JOB_MEM_MB). */
    std::uint64_t memMb = 0;
    /** Runner CPU-seconds cap; 0 = unlimited (REPRO_JOB_CPU_S). */
    std::uint64_t cpuS = 0;
    /** Wall-clock deadline in seconds enforced by the parent; 0 =
     *  none (REPRO_JOB_TIMEOUT_S). */
    std::uint64_t timeoutS = 0;
    /** SIGTERM-to-SIGKILL escalation grace in milliseconds
     *  (REPRO_JOB_GRACE_MS). */
    std::uint64_t graceMs = 2000;
    /**
     * The runner treats SIGTERM as a preemption request instead of
     * dying: a flag goes up, the running job saves a snapshot at its
     * next checkpoint boundary, and the runner ships a "preempted"
     * settlement. Set only by the service daemon (never from the
     * env) — the deadline escalation's SIGTERM semantics for
     * ordinary sweeps are unchanged, and the parent's timed-out
     * classification still wins when the deadline caused the signal.
     */
    bool preemptible = false;
};

/**
 * A live handle on one (possibly proc-isolated) job, shared between
 * the worker executing it and the scheduler that may preempt it.
 * requestPreempt() raises the flag — polled by runMix at snapshot
 * boundaries for in-process jobs — and SIGTERMs the sandbox child
 * when one is running, so a sandboxed job yields at its next
 * boundary too.
 */
struct ProcJobHandle
{
    std::atomic<bool> preempt{false};
    /** The sandbox child's pid while one is alive; 0 otherwise. */
    std::atomic<long long> pid{0};

    void requestPreempt();
};

/** The descriptor a sandbox child writes its settlement line to. */
constexpr int settlementFd = 3;

/**
 * Spawn @p argv (argv[0] is the program's path; @pre not empty)
 * under @p iso's deadline, give it @p request on its stdin, and
 * settle the line it writes to settlementFd: its result, or its
 * shipped failure rethrown with the original type and message.
 * Abnormal ends throw JobCrashed / JobTimedOut, and a preemptible
 * runner that yielded rethrows JobPreempted. @p iso.enabled is not
 * consulted: the caller chose the sandbox.
 *
 * @p handle, when provided, is kept current with the child's pid so
 * a scheduler can requestPreempt() mid-run.
 */
MixResult runSandboxed(const ProcIsolation &iso,
                       const std::vector<std::string> &argv,
                       const std::string &request,
                       ProcJobHandle *handle = nullptr);

/**
 * Run @p job here and return the settlement line a sandbox child
 * writes for it, newline included: the result's payload members
 * followed by "status":"ok", or the classified status and message of
 * what it threw.
 */
std::string settlementLine(const std::function<MixResult()> &job);

/** Human-readable signal description ("SIGSEGV (segmentation
 *  fault)"); used in JobCrashed messages and tested directly. */
std::string describeSignal(int sig);

} // namespace nuca

#endif // NUCA_SIM_PROC_POOL_HH
