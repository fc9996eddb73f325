/**
 * @file
 * The multiprogrammed experiment methodology of Section 3: draw
 * random 4-application mixes from a benchmark pool, fast-forward
 * each application by a random amount (modeled by seeding the
 * generators), warm the caches, then measure per-core IPC under a
 * given system configuration.
 */

#ifndef NUCA_SIM_EXPERIMENT_HH
#define NUCA_SIM_EXPERIMENT_HH

#include <atomic>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/checkpoint.hh"
#include "sim/robustness.hh"
#include "sim/system_config.hh"
#include "sim/telemetry.hh"

namespace nuca {

/** One multiprogrammed mix: four application names plus a seed. */
struct ExperimentSpec
{
    std::vector<std::string> apps;
    std::uint64_t seed;
};

/** Per-core results of running one mix on one configuration. */
struct MixResult
{
    std::vector<double> ipc;
    std::vector<double> l3AccessesPerKilocycle;
    /** Fig 5's diagnostics, one fraction per core: the L1D, L2D and
     *  L3 data miss ratios and the branch misprediction rate. */
    std::vector<double> l1dMissRatio;
    std::vector<double> l2dMissRatio;
    std::vector<double> l3MissRatio;
    std::vector<double> mispredictRate;
    /**
     * Auxiliary per-way payload carried by miss-curve jobs run
     * through the service daemon; empty (and never serialized) for
     * ordinary mix experiments, so the classic REPRO_JSON byte
     * format is untouched.
     */
    std::vector<double> curve;
};

/** Simulation window lengths. */
struct SimWindow
{
    Cycle warmupCycles;
    Cycle measureCycles;
};

/**
 * Draw @p count random 4-app mixes (with replacement, like the
 * paper's random selection) from @p pool.
 */
std::vector<ExperimentSpec>
makeMixes(const std::vector<std::string> &pool, unsigned count,
          unsigned apps_per_mix, std::uint64_t seed);

/**
 * Everything about one run besides what it simulates: checkpointing,
 * resume, preemption, the robustness layer, and telemetry. Sweep
 * harnesses build one with runPolicyFromEnv (sim/env_config.hh); the
 * service daemon builds its own per job.
 */
struct RunPolicy
{
    /** Checkpoint cache + snapshot period for this run. */
    CheckpointConfig ckpt;
    /** Consume a matching mid-run snapshot when one exists. */
    bool resume = false;
    /**
     * When non-null, polled at every snapshot boundary: once true
     * the run saves a mid-run snapshot and throws JobPreempted. A
     * sandboxed job's runner points it at the flag its SIGTERM
     * handler raises.
     */
    const std::atomic<bool> *preempt = nullptr;
    /** Watchdog, invariant checker, cycle budget, planted fault. */
    RobustnessConfig robust;
    /** Sample trace and heatmaps. */
    TelemetryConfig telemetry;
};

/** Run one mix on one configuration under RunPolicy{}. */
MixResult runMix(const SystemConfig &config,
                 const ExperimentSpec &spec, const SimWindow &window);

/**
 * Run one mix under @p policy. With tracing on, the run is traced to
 * tracePathFor(policy.telemetry.tracePath, trace_label) — one file
 * per experiment, so parallel sweeps never share a writer; tracing
 * never changes the simulated results. Preemption (see
 * RunPolicy::preempt) throws JobPreempted after saving a mid-run
 * snapshot; a later call with the same policy restores it and
 * continues, producing a result bit-identical to an uninterrupted
 * run.
 */
MixResult runMix(const SystemConfig &config,
                 const ExperimentSpec &spec, const SimWindow &window,
                 const std::string &trace_label,
                 const RunPolicy &policy);

} // namespace nuca

#endif // NUCA_SIM_EXPERIMENT_HH
