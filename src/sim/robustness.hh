/**
 * @file
 * Robustness layer configuration: failure taxonomy, recovery policy,
 * forward-progress watchdog bounds, periodic invariant checking, and
 * deliberate fault injection.
 *
 * A long sweep dies in one of three ways: a job throws (bad config,
 * simulator bug), a job wedges (leaked MSHR, stalled memory channel —
 * the simulation loop spins forever), or a job silently corrupts
 * state and reports wrong numbers. The pieces here give each failure
 * mode a detector and a recovery path:
 *
 *  - SimulationStalled / CycleBudgetExceeded turn "hangs forever"
 *    into a catchable error carrying a diagnostic snapshot;
 *  - SweepPolicy (REPRO_FAIL=abort|skip|retry:N) decides what the
 *    sweep supervisor does with a failed job;
 *  - RobustnessConfig wires the CmpSystem watchdog (zero-retirement
 *    window, MSHR age bound, cycle budget) and the REPRO_CHECK
 *    periodic invariant pass;
 *  - FaultSpec (REPRO_FAULT=<kind>[:arg]) injects one deliberate
 *    defect so tests can prove end-to-end that the checker, the
 *    watchdog, and the supervisor each catch what they claim to.
 *
 * Everything here is observational when idle: with the default
 * config, simulated results are bit-identical to a build without
 * the robustness layer. The REPRO_* names beside each knob are the
 * variables the harnesses parse into it (sim/env_config.hh).
 */

#ifndef NUCA_SIM_ROBUSTNESS_HH
#define NUCA_SIM_ROBUSTNESS_HH

#include <cstddef>
#include <stdexcept>
#include <string>

#include "base/types.hh"

namespace nuca {

/** Base of all recoverable simulation failures the sweep supervisor
 *  classifies (a plain std::exception still counts as "failed"). */
class SimulationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The forward-progress watchdog found a wedged simulation: a window
 * of cycles with zero retired instructions across all cores, or an
 * MSHR entry older than the age bound. The message carries the
 * per-core pipeline/MSHR/channel snapshot taken at detection time.
 */
class SimulationStalled : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

/** The REPRO_MAX_CYCLES budget was exhausted before run() finished. */
class CycleBudgetExceeded : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

/**
 * A process-isolated job (REPRO_ISOLATE=proc) died abnormally: the
 * child exited nonzero or was killed by a signal (segfault, abort,
 * OOM kill). The message carries the decoded exit disposition.
 */
class JobCrashed : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

/**
 * A process-isolated job blew its deadline: either the parent's
 * wall-clock REPRO_JOB_TIMEOUT_S (SIGTERM -> grace -> SIGKILL
 * escalation) or the child's RLIMIT_CPU budget (SIGXCPU).
 */
class JobTimedOut : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

/**
 * A job was preempted at a checkpoint boundary: the scheduler asked
 * it to yield, it saved a mid-run snapshot, and it unwound instead of
 * finishing. Not a failure — the job is requeued and a later attempt
 * restores the snapshot and continues where it left off.
 */
class JobPreempted : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

/** What the sweep supervisor does with a job that fails. */
enum class FailPolicy
{
    Abort, ///< stop claiming jobs, rethrow after the pool drains
    Skip,  ///< record a "failed" result and keep sweeping
    Retry, ///< re-run the job up to `retries` times, then skip
};

/** The REPRO_FAIL recovery policy. */
struct SweepPolicy
{
    FailPolicy onFail = FailPolicy::Abort;
    /** Re-runs granted per job under FailPolicy::Retry. */
    unsigned retries = 0;
    /**
     * Base delay before the first re-run (REPRO_RETRY_BACKOFF_MS);
     * doubles per attempt with deterministic seeded jitter. 0
     * disables the backoff entirely.
     */
    unsigned backoffMs = 100;
    /**
     * Poison-job quarantine threshold (REPRO_QUARANTINE): under
     * FailPolicy::Retry, a job whose attempts *crash* (child death or
     * timeout, not a clean in-process failure) this many times is
     * recorded Quarantined and the sweep moves on, however many
     * retries remain — one crashing job must not burn the pool's
     * whole retry budget. 0 disables quarantine.
     */
    unsigned maxCrashes = 2;
};

/** Kinds of deliberate defects the injector can plant. */
enum class FaultKind
{
    None,         ///< REPRO_FAULT unset
    LruCorrupt,   ///< scramble an L3 set's LRU stamps (checker's prey)
    MshrLeak,     ///< reserve an L2D MSHR entry that never completes
    ChannelStall, ///< wedge the memory channel (watchdog's prey)
    ThrowJob,     ///< throw from sweep job `arg` (supervisor's prey)
    SegvJob,      ///< segfault in sweep job `arg` (proc pool's prey)
    OomJob,       ///< exhaust memory in job `arg` (RLIMIT_AS's prey)
    HangJob,      ///< hang sweep job `arg` (the deadline's prey)
    SigtermJob,   ///< raise SIGTERM in job `arg` (graceful stop's prey)
};

/**
 * One parsed REPRO_FAULT specification. The simulator-level kinds
 * (lru_corrupt, mshr_leak, channel_stall) take an optional ":cycle"
 * at which the defect is planted (default 0: the first robustness
 * check after run() starts); the job-level kinds (throw_job, segv,
 * oom, hang) take a mandatory ":K" job index and are interpreted by
 * the bench sweep, not the simulator.
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::None;
    /** Injection cycle, or the target job index for job faults. */
    std::uint64_t arg = 0;

    bool enabled() const { return kind != FaultKind::None; }
    /** True for the kinds CmpSystem plants inside the simulator. */
    bool isSimFault() const
    {
        return kind == FaultKind::LruCorrupt ||
               kind == FaultKind::MshrLeak ||
               kind == FaultKind::ChannelStall;
    }
    /** True for the kinds aimed at one sweep job (arg = job index). */
    bool isJobFault() const
    {
        return kind == FaultKind::ThrowJob ||
               kind == FaultKind::SigtermJob || isCrashFault();
    }
    /**
     * True for the kinds that take down their whole process — they
     * need REPRO_ISOLATE=proc so only a forked child dies.
     */
    bool isCrashFault() const
    {
        return kind == FaultKind::SegvJob ||
               kind == FaultKind::OomJob ||
               kind == FaultKind::HangJob;
    }
};

/**
 * Plant @p fault in sweep job @p job (no-op unless the spec is a job
 * fault naming exactly that index). ThrowJob throws SimulationError;
 * segv/oom/hang never return — they kill or wedge the calling
 * process, so the sweep must only invoke this inside a forked child
 * (REPRO_ISOLATE=proc).
 */
void injectJobFault(const FaultSpec &fault, std::size_t job,
                    const std::string &label);

/** Printable fault-kind name (for messages and records). */
const char *to_string(FaultKind kind);

/** Inverse of to_string; FaultKind::None for an unknown name. */
FaultKind faultKindFromString(const std::string &name);

/** The CmpSystem-level robustness knobs. */
struct RobustnessConfig
{
    /** Periodic structural-invariant pass (REPRO_CHECK=1). */
    bool checkEnabled = false;
    /** Cycles between invariant passes (REPRO_CHECK_PERIOD). */
    Cycle checkPeriod = 100000;

    /** Watchdog master switch (REPRO_WATCHDOG=0 disables). */
    bool watchdogEnabled = true;
    /**
     * Cycles with zero retired instructions across all cores before
     * the run is declared stalled (REPRO_WATCHDOG_WINDOW).
     */
    Cycle watchdogWindow = 1000000;
    /**
     * Maximum age of an L2D MSHR entry before the run is declared
     * stalled (the environment sets it to the window).
     */
    Cycle mshrAgeBound = 1000000;

    /** Total-cycle budget per system; 0 = unlimited
     *  (REPRO_MAX_CYCLES). */
    Cycle maxCycles = 0;

    /** The deliberate defect to plant, if any (REPRO_FAULT). */
    FaultSpec fault;
};

/**
 * Graceful sweep shutdown. installSweepInterruptHandlers() arms
 * SIGINT/SIGTERM handlers that raise a flag instead of killing the
 * process: the worker pool stops claiming jobs at the next boundary,
 * in-flight jobs finish, and the supervisor records everything
 * unattempted as Interrupted — the JSONL sidecar stays whole and a
 * REPRO_RESUME=1 rerun picks up exactly where the sweep stopped.
 * A second signal while the flag is already up _exit(128+sig)s, so
 * an impatient operator can still kill a long in-flight job.
 * Handlers are process-global; restore puts the previous
 * dispositions back (the flag itself persists until cleared).
 */
void installSweepInterruptHandlers();
void restoreSweepInterruptHandlers();

/** True once a SIGINT/SIGTERM arrived under the installed handlers. */
bool sweepInterruptRequested();

/** The signal number that raised the flag (0 when none). */
int sweepInterruptSignal();

/** Lower the flag (tests; a supervisor deciding to carry on). */
void clearSweepInterrupt();

} // namespace nuca

#endif // NUCA_SIM_ROBUSTNESS_HH
