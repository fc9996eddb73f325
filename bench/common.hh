/**
 * @file
 * Shared infrastructure for the figure-reproduction harnesses: the
 * sweep supervisor that runs a list of job specs, and the
 * aggregation of per-experiment and per-application results the way
 * the paper's figures report them.
 *
 * Sweeps fan out over a worker pool (REPRO_JOBS threads, default
 * hardware_concurrency) and are bit-identical to the serial loop for
 * any pool size: every job builds its own CmpSystem from its
 * explicit seed, and results are collected by submission index.
 * REPRO_JSON=<path> additionally writes the sweep results as
 * machine-readable JSON.
 */

#ifndef NUCA_BENCH_COMMON_HH
#define NUCA_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "sim/env_config.hh"
#include "sim/experiment.hh"
#include "sim/json_writer.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "service/job_spec.hh"

namespace nuca {
namespace bench {

/**
 * Mix-drawing seed shared by every sweep harness (the paper's
 * submission date). All single-config-axis experiments draw from the
 * same mix population so their figures are comparable; changing this
 * value invalidates any cached warmup checkpoints keyed on the mixes.
 */
constexpr std::uint64_t paperMixSeed = 20070201;

/** Results of every mix under one configuration. */
struct SchemeResults
{
    std::string label;
    std::vector<MixResult> mixes;
    /**
     * Per-mix job status, parallel to `mixes`; empty means every job
     * was ok (runAllSerial never populates it). A non-ok cell keeps
     * a default MixResult and its error text in `errors`.
     */
    std::vector<JobStatus> statuses;
    std::vector<std::string> errors;

    /** True when mix @p m produced a usable result. */
    bool okAt(std::size_t m) const
    {
        return statuses.empty() || statuses[m] == JobStatus::Ok;
    }

    /** Append one settled job as the next mix. */
    void add(JobOutcome<MixResult> outcome);
};

/** One job of a sweep, and the label its results-document record
 *  and its reporter group carry ("private" for "private.mix3"). */
struct SweepJob
{
    std::string group;
    service::JobSpec spec;
};

/**
 * The sweep supervisor: run @p jobs through service::runJob on the
 * worker pool (printing thread-safe completed/total progress to
 * stderr, since full sweeps take minutes), returning one outcome per
 * job in list order. @p pool selects the pool size; 0 reads
 * REPRO_JOBS / the hardware.
 *
 * The sweep runs under the REPRO_FAIL supervisor policy: "abort"
 * (default) rethrows the first failure after in-flight jobs drain,
 * "skip" records the failure and keeps sweeping. REPRO_ISOLATE=proc
 * runs each job in a spawned sandbox runner (service/job_runner.hh).
 * With REPRO_JSON set, the
 * document (one record per job, plus @p window and @p mix_count) is
 * written there, every settled job is additionally appended to the
 * "<path>.partial" JSONL sidecar as it completes, and REPRO_RESUME=1
 * reuses the sidecar's ok results whose label and content key
 * (JobSpec::resultKey) both match instead of re-simulating them.
 * REPRO_FAULT=throw_job:K makes sweep job K throw (fault injection
 * for the supervisor). SIGINT/SIGTERM drain the pool and record the
 * unattempted jobs as interrupted.
 */
std::vector<JobOutcome<MixResult>>
runSweep(const std::vector<SweepJob> &jobs, const SimWindow &window,
         unsigned mix_count, unsigned pool = 0);

/** Consecutive jobs of one group, gathered into one SchemeResults
 *  per group in list order. */
std::vector<SchemeResults>
groupResults(const std::vector<SweepJob> &jobs,
             std::vector<JobOutcome<MixResult>> outcomes);

/**
 * The job list of @p mixes under each configuration: scheme-major
 * (the serial loop's order), labelled "<label>.mix<m>" in group
 * <label>, each config expressed as its scheme's baseline plus
 * overrides (service::specFor).
 */
std::vector<SweepJob>
sweepJobs(const std::vector<std::pair<std::string, SystemConfig>> &configs,
          const std::vector<ExperimentSpec> &mixes,
          const SimWindow &window);

/**
 * Run sweepJobs(configs, mixes, window) through runSweep and return
 * one SchemeResults per configuration. @p jobs selects the pool size
 * (0: REPRO_JOBS / the hardware).
 */
std::vector<SchemeResults>
runAll(const std::vector<std::pair<std::string, SystemConfig>> &configs,
       const std::vector<ExperimentSpec> &mixes,
       const SimWindow &window, unsigned jobs = 0);

/**
 * The pre-pool serial reference: one runMix after another on the
 * calling thread, no progress output. Kept as the oracle the
 * determinism regression tests compare the pool against.
 */
std::vector<SchemeResults>
runAllSerial(
    const std::vector<std::pair<std::string, SystemConfig>> &configs,
    const std::vector<ExperimentSpec> &mixes,
    const SimWindow &window);

/**
 * The machine-readable form of a sweep: one {label, mix, ipc[],
 * harmonic} record per (scheme, mix), plus the window/mix-count
 * metadata needed to compare runs across PRs.
 */
json::Value
resultsToJson(const std::vector<ExperimentSpec> &mixes,
              const std::vector<SchemeResults> &results,
              const SimWindow &window);

/** Harmonic-mean IPC of one mix. */
double mixHarmonic(const MixResult &result);

/**
 * Per-application aggregation (Figures 7, 8, 9, 10): for every
 * application, the mean over all of its occurrences (across mixes
 * and cores) of the per-core speedup versus the baseline scheme.
 */
std::map<std::string, double>
perAppSpeedup(const std::vector<ExperimentSpec> &mixes,
              const SchemeResults &scheme,
              const SchemeResults &baseline);

/** Mean of the per-app speedups (the figures' rightmost bar). */
double meanOfMap(const std::map<std::string, double> &values);

/** Print a header naming the experiment and the windows used. */
void printHeader(const std::string &what, const SimWindow &window,
                 unsigned mixes);

/**
 * An ASCII bar scaled so 1.0 is 20 characters, clamped to 60
 * characters; a clamped bar ends in '+' so an off-scale value stays
 * distinguishable from one that merely reaches 3.0.
 */
std::string bar(double value);

} // namespace bench
} // namespace nuca

#endif // NUCA_BENCH_COMMON_HH
