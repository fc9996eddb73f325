/**
 * @file
 * The one door between the process environment and the simulator:
 * library code reads no environment. The bench/, tools/ and
 * examples/ mains call these parsers once and hand the typed structs
 * down. Every variable, its parser, and who reads it ("runAll" is
 * bench::runAll, which every sweep figure goes through; fig08's
 * anecdote runs share its RunPolicy variables):
 *
 *   variable                    parser                read by
 *   REPRO_WARMUP_CYCLES         windowFromEnv         bench mains,
 *   REPRO_MEASURE_CYCLES        windowFromEnv           nuca_subctl
 *   REPRO_MIXES                 bench::mixCountFromEnv  (the same)
 *   REPRO_FIG3_INSTS            envOr                 fig03, nuca_subctl
 *   REPRO_JOBS                  jobsFromEnv           bench mains,
 *                                                       scheme_shootout
 *   REPRO_JSON                  envString             runAll
 *   REPRO_RESUME                runPolicyFromEnv      runAll
 *   REPRO_FAIL                  sweepPolicyFromEnv    runAll
 *   REPRO_RETRY_BACKOFF_MS      sweepPolicyFromEnv    runAll
 *   REPRO_QUARANTINE            sweepPolicyFromEnv    runAll
 *   REPRO_ISOLATE               isolationFromEnv      runAll
 *   REPRO_JOB_MEM_MB            isolationFromEnv      runAll, nuca_sweepd
 *   REPRO_JOB_CPU_S             isolationFromEnv      runAll, nuca_sweepd
 *   REPRO_JOB_TIMEOUT_S         isolationFromEnv      runAll, nuca_sweepd
 *   REPRO_JOB_GRACE_MS          isolationFromEnv      runAll, nuca_sweepd
 *   REPRO_SYNC                  envOr                 runAll, nuca_sweepd
 *   REPRO_CKPT_DIR              checkpointFromEnv     runAll, fig05
 *   REPRO_CKPT_PERIOD           checkpointFromEnv     runAll
 *   REPRO_CKPT_MAX_MB           checkpointFromEnv     runAll, nuca_sweepd
 *   REPRO_FAULT                 faultFromEnv          runAll, nuca_sweepd
 *   REPRO_CHECK                 robustnessFromEnv     runAll, fig05,
 *   REPRO_CHECK_PERIOD          robustnessFromEnv       nuca_sim and
 *   REPRO_WATCHDOG              robustnessFromEnv       nuca_sweepd
 *   REPRO_WATCHDOG_WINDOW       robustnessFromEnv       read each of
 *   REPRO_MAX_CYCLES            robustnessFromEnv       these five
 *   REPRO_TRACE                 telemetryFromEnv      runAll, fig03,
 *   REPRO_TRACE_PERIOD          telemetryFromEnv        fig05, nuca_sim,
 *   REPRO_HEATMAP               telemetryFromEnv        scheme_shootout
 *   REPRO_PERFETTO              traceEventsFromEnv      and nuca_sweepd
 *                                                       read these four;
 *                                                       perf_bench reads
 *                                                       REPRO_PERFETTO
 *   REPRO_PROFILE               profilerFromEnv       runAll, nuca_sim,
 *   REPRO_PROFILE_OUT           profilerFromEnv         scheme_shootout,
 *                                                       perf_bench,
 *                                                       nuca_sweepd
 *   REPRO_BENCH_CYCLES          envOr                 perf_bench
 *   REPRO_BENCH_SPEC_CYCLES     envOr                 perf_bench
 *   REPRO_BENCH_COMPUTE_CYCLES  envOr                 perf_bench
 *   REPRO_BENCH_OUT             envString             perf_bench
 *   SWEEPD_WAIT_MS              envOr                 nuca_subctl
 *
 * Numbers are strict counts (parseCount); a malformed one is fatal.
 * Switches are on when nonzero (REPRO_PROFILE: set and not "0").
 */

#ifndef NUCA_SIM_ENV_CONFIG_HH
#define NUCA_SIM_ENV_CONFIG_HH

#include "base/parse_count.hh"
#include "sim/experiment.hh"
#include "sim/proc_pool.hh"

namespace nuca {

class TraceEventLog;

/** Variable @p name parsed as a count, @p def when unset or empty;
 *  a malformed value is fatal. */
std::uint64_t envOr(const char *name, std::uint64_t def);

/** Variable @p name, or empty when unset. */
std::string envString(const char *name);

// The parsers of the table above. Malformed values are fatal.
SimWindow windowFromEnv(Cycle warmup_default = 200000,
                        Cycle measure_default = 1000000);
/** REPRO_JOBS, or hardware_concurrency() (at least 1) when 0/unset. */
unsigned jobsFromEnv();
CheckpointConfig checkpointFromEnv();
SweepPolicy sweepPolicyFromEnv();
FaultSpec faultFromEnv();
/** Includes faultFromEnv; the MSHR age bound follows the window. */
RobustnessConfig robustnessFromEnv();
/** REPRO_ISOLATE=proc where fork is unavailable warns and disables. */
ProcIsolation isolationFromEnv();
/** `events` is traceEventsFromEnv(). */
TelemetryConfig telemetryFromEnv();
/** checkpoint, resume, robustness and telemetry together. */
RunPolicy runPolicyFromEnv();

/**
 * The process-wide Chrome trace log, configured on first call and
 * written at exit; nullptr when REPRO_PERFETTO is unset.
 */
TraceEventLog *traceEventsFromEnv();

/** Arm the host self-profiler (idempotent); it reports at exit. */
void profilerFromEnv();

} // namespace nuca

#endif // NUCA_SIM_ENV_CONFIG_HH
