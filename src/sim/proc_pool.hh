/**
 * @file
 * Opt-in process isolation for sweep jobs (REPRO_ISOLATE=proc): each
 * job runs in a forked child with optional resource limits, so a job
 * that segfaults, exhausts memory, or wedges takes down only its own
 * process — the parent classifies the death and the sweep supervisor
 * (REPRO_FAIL) decides what to do about it.
 *
 * The sandbox contract:
 *
 *  - The child applies setrlimit caps before running the job:
 *    REPRO_JOB_MEM_MB bounds the address space (RLIMIT_AS) and
 *    REPRO_JOB_CPU_S bounds CPU seconds (RLIMIT_CPU; the kernel
 *    delivers SIGXCPU at the soft limit, SIGKILL one second later).
 *
 *  - The parent enforces a wall-clock deadline (REPRO_JOB_TIMEOUT_S):
 *    past it the child gets SIGTERM, then REPRO_JOB_GRACE_MS of
 *    grace to die cleanly, then SIGKILL. A deadline catches what
 *    RLIMIT_CPU cannot — a job wedged in a sleep loop burns no CPU.
 *
 *  - Results cross a pipe as one JSON line built by the same
 *    mixResultToJson codec the results sidecar uses; doubles
 *    round-trip exactly, so a clean proc-isolated sweep produces
 *    byte-identical REPRO_JSON to the in-process pool. A job that
 *    throws in the child ships to_string(classifyFailure(...)) the
 *    same way and the parent rebuilds it with rethrowAs, so every
 *    executor classifies it exactly as if no sandbox existed.
 *
 *  - Abnormal deaths become typed exceptions: JobTimedOut for the
 *    deadline or SIGXCPU, JobCrashed for everything else (signal,
 *    nonzero exit, or an empty, unparsable or mistyped result).
 *
 * On platforms without fork the layer degrades gracefully: the knob
 * warns once and jobs run in-process, exactly as without it.
 */

#ifndef NUCA_SIM_PROC_POOL_HH
#define NUCA_SIM_PROC_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/experiment.hh"

namespace nuca {

/** The REPRO_ISOLATE process-sandbox knobs. */
struct ProcIsolation
{
    /** Fork a child per job (REPRO_ISOLATE=proc). */
    bool enabled = false;
    /** Child address-space cap in MiB; 0 = unlimited
     *  (REPRO_JOB_MEM_MB). */
    std::uint64_t memMb = 0;
    /** Child CPU-seconds cap; 0 = unlimited (REPRO_JOB_CPU_S). */
    std::uint64_t cpuS = 0;
    /** Wall-clock deadline in seconds enforced by the parent; 0 =
     *  none (REPRO_JOB_TIMEOUT_S). */
    std::uint64_t timeoutS = 0;
    /** SIGTERM-to-SIGKILL escalation grace in milliseconds
     *  (REPRO_JOB_GRACE_MS). */
    std::uint64_t graceMs = 2000;
    /**
     * Child treats SIGTERM as a preemption request instead of dying:
     * a flag goes up, the running job saves a snapshot at its next
     * checkpoint boundary, and the child ships a "preempted"
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
 * when one is running, so a blocked child yields at its next
 * boundary too.
 */
struct ProcJobHandle
{
    std::atomic<bool> preempt{false};
    /** The sandbox child's pid while one is alive; 0 otherwise. */
    std::atomic<long long> pid{0};

    void requestPreempt();
};

/** True when this platform can fork a sandbox child at all. */
bool procIsolationSupported();

/**
 * Run @p body to completion in a forked child under @p iso's limits
 * and return its result. Clean child failures (body threw) rethrow
 * in the parent with their original type and message; abnormal
 * deaths throw JobCrashed / JobTimedOut, and a preemptible child
 * that yielded rethrows JobPreempted. With isolation disabled (or
 * unsupported) this is exactly `return body()`.
 *
 * @p handle, when provided, is kept current with the child's pid so
 * a scheduler can requestPreempt() mid-run; it applies equally to
 * the non-isolated path (the flag is polled in-process).
 */
MixResult runMixSandboxed(const ProcIsolation &iso,
                          const std::function<MixResult()> &body,
                          ProcJobHandle *handle = nullptr);

/**
 * True inside a preemptible sandbox child once SIGTERM arrived.
 * Polled by runMix at snapshot boundaries alongside the explicit
 * RunPolicy flag; always false in an ordinary process.
 */
bool procPreemptSignalled();

/** Human-readable signal description ("SIGSEGV (segmentation
 *  fault)"); used in JobCrashed messages and tested directly. */
std::string describeSignal(int sig);

} // namespace nuca

#endif // NUCA_SIM_PROC_POOL_HH
