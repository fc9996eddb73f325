/**
 * @file
 * The one door between the process environment and the simulator:
 * library code reads no environment. The bench/, tools/ and
 * examples/ mains call these parsers once and hand the typed structs
 * down. Every variable, its parser, and who reads it ("runSweep" is
 * bench::runSweep, the sweep supervisor every sweep figure and
 * bench::runAll go through; "figureEnv" is bench::figureEnvFromEnv,
 * read once by each figure's main and by nuca_subctl figures):
 *
 *   variable                    parser                read by
 *   REPRO_WARMUP_CYCLES         windowFromEnv         figureEnv
 *   REPRO_MEASURE_CYCLES        windowFromEnv           (the same)
 *   REPRO_MIXES                 envOr                 figureEnv
 *   REPRO_FIG3_INSTS            envOr                 figureEnv
 *   REPRO_JOBS                  jobsFromEnv           runSweep,
 *                                                       printHeader,
 *                                                       scheme_shootout
 *   REPRO_JSON                  envString             runSweep
 *   REPRO_RESUME                runPolicyFromEnv      runSweep
 *   REPRO_FAIL                  sweepPolicyFromEnv    runSweep
 *   REPRO_ISOLATE               isolationFromEnv      runSweep
 *   REPRO_JOB_MEM_MB            isolationFromEnv      runSweep, nuca_sweepd
 *   REPRO_JOB_CPU_S             isolationFromEnv      runSweep, nuca_sweepd
 *   REPRO_JOB_TIMEOUT_S         isolationFromEnv      runSweep, nuca_sweepd
 *   REPRO_JOB_GRACE_MS          isolationFromEnv      runSweep, nuca_sweepd
 *   REPRO_SYNC                  envOr                 runSweep, nuca_sweepd
 *   REPRO_CKPT_DIR              checkpointFromEnv     runSweep
 *   REPRO_CKPT_PERIOD           checkpointFromEnv     runSweep
 *   REPRO_CKPT_MAX_MB           checkpointFromEnv     runSweep, nuca_sweepd
 *   REPRO_FAULT                 faultFromEnv          runSweep, nuca_sweepd
 *   REPRO_CHECK                 robustnessFromEnv     runSweep,
 *   REPRO_CHECK_PERIOD          robustnessFromEnv       nuca_sim and
 *   REPRO_WATCHDOG              robustnessFromEnv       nuca_sweepd
 *   REPRO_WATCHDOG_WINDOW       robustnessFromEnv       read each of
 *   REPRO_MAX_CYCLES            robustnessFromEnv       these five
 *   REPRO_TRACE                 telemetryFromEnv      runSweep,
 *   REPRO_TRACE_PERIOD          telemetryFromEnv        nuca_sim,
 *   REPRO_HEATMAP               telemetryFromEnv        scheme_shootout
 *   REPRO_PERFETTO              telemetryFromEnv        and nuca_sweepd
 *                                                       read these four
 *   REPRO_PROFILE               profilerFromEnv       runSweep, nuca_sim,
 *   REPRO_PROFILE_OUT           profilerFromEnv         scheme_shootout,
 *                                                       nuca_sweepd
 *   SWEEPD_WAIT_MS              envOr                 nuca_subctl
 *
 * Numbers are strict counts (parseCount); a malformed one is fatal.
 * Switches are on when nonzero (REPRO_PROFILE: set and not "0").
 */

#ifndef NUCA_SIM_ENV_CONFIG_HH
#define NUCA_SIM_ENV_CONFIG_HH

#include "base/parse_count.hh"
#include "sim/experiment.hh"
#include "sim/json_writer.hh"
#include "sim/proc_pool.hh"

namespace nuca {

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
ProcIsolation isolationFromEnv();
/** Also configures the process-wide Chrome trace log (host time,
 *  written at exit) when REPRO_PERFETTO is set. */
TelemetryConfig telemetryFromEnv();
/** checkpoint, resume, robustness and telemetry together. */
RunPolicy runPolicyFromEnv();

/** Arm the host self-profiler (idempotent): it prints its text
 *  report at exit, and writes profilerReportJson() to
 *  REPRO_PROFILE_OUT when that is set. */
void profilerFromEnv();

/** The profiler's totals as JSON: version, enabled, a phases array
 *  ({name, parent, est_ns, calls_est, timed_calls, sample_shift}
 *  for each phase entered) and a counters map. */
json::Value profilerReportJson();

} // namespace nuca

#endif // NUCA_SIM_ENV_CONFIG_HH
