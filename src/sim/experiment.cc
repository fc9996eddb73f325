#include "sim/experiment.hh"

#include <algorithm>
#include <memory>

#include "base/logging.hh"
#include "base/random.hh"
#include "serialize/checkpoint_io.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/proc_pool.hh"
#include "sim/robustness.hh"
#include "sim/telemetry.hh"
#include "workload/spec_profiles.hh"

namespace nuca {

std::vector<ExperimentSpec>
makeMixes(const std::vector<std::string> &pool, unsigned count,
          unsigned apps_per_mix, std::uint64_t seed)
{
    fatal_if(pool.empty(), "empty benchmark pool");
    Rng rng(seed);
    std::vector<ExperimentSpec> mixes;
    mixes.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        ExperimentSpec spec;
        spec.apps.reserve(apps_per_mix);
        for (unsigned a = 0; a < apps_per_mix; ++a)
            spec.apps.push_back(pool[rng.below(pool.size())]);
        // The per-mix seed models each application's random
        // fast-forward of 0.5-1.5 G instructions.
        spec.seed = rng.next();
        mixes.push_back(std::move(spec));
    }
    return mixes;
}

namespace {

/** True when the scheduler (explicit flag or the proc-pool child's
 *  SIGTERM) wants this run to yield at the next snapshot boundary. */
bool
preemptWanted(const RunPolicy &policy)
{
    return (policy.preempt != nullptr &&
            policy.preempt->load(std::memory_order_relaxed)) ||
           procPreemptSignalled();
}

} // namespace

MixResult
runMix(const SystemConfig &config, const ExperimentSpec &spec,
       const SimWindow &window)
{
    return runMix(config, spec, window, std::string(), RunPolicy{});
}

MixResult
runMix(const SystemConfig &config, const ExperimentSpec &spec,
       const SimWindow &window, const std::string &trace_label,
       const RunPolicy &policy)
{
    std::vector<WorkloadProfile> apps;
    apps.reserve(spec.apps.size());
    for (const auto &name : spec.apps)
        apps.push_back(specProfile(name));

    auto system =
        std::make_unique<CmpSystem>(config, apps, spec.seed);

    // Content-addressed checkpoint cache: restore a matching mid-run
    // snapshot (policy.resume after a killed sweep) or warmup
    // artifact instead of re-simulating it. With the directory unset
    // every branch below is dead and the run proceeds exactly as it
    // always has.
    const auto &ckpt = policy.ckpt;
    const std::uint64_t hash =
        ckpt.enabled() ? configHash(config) : 0;
    const std::string warmFile =
        ckpt.enabled()
            ? warmupPath(ckpt, warmupKey(config, spec.apps,
                                         spec.seed,
                                         window.warmupCycles))
            : std::string();
    const std::string runFile =
        ckpt.enabled()
            ? runPath(ckpt, runKey(config, spec.apps, spec.seed,
                                   window.warmupCycles,
                                   window.measureCycles))
            : std::string();

    // A payload that fails to decode mid-restore (format drift the
    // version check missed) leaves partial state behind; rebuild the
    // system so the from-scratch fallback starts clean.
    const auto restoreOrRebuild = [&](const std::string &path) {
        if (!checkpointFileExists(path))
            return false;
        if (tryRestoreCheckpoint(*system, path, hash))
            return true;
        system = std::make_unique<CmpSystem>(config, apps,
                                             spec.seed);
        return false;
    };

    bool restoredMid = false;
    bool restoredWarm = false;
    if (ckpt.enabled()) {
        if (policy.resume)
            restoredMid = restoreOrRebuild(runFile);
        if (!restoredMid)
            restoredWarm = restoreOrRebuild(warmFile);
    }

    // Installed after any restore, which re-anchors the robustness
    // schedule at the restored cycle anyway.
    system->setRobustness(policy.robust);
    const auto trace =
        attachTelemetry(*system, policy.telemetry, trace_label);

    if (!restoredMid) {
        if (!restoredWarm) {
            system->run(window.warmupCycles);
            if (ckpt.enabled()) {
                saveCheckpoint(*system, warmFile, hash);
                pruneCheckpointDir(ckpt);
            }
        }
        system->resetStats();
    }

    const Cycle end = window.warmupCycles + window.measureCycles;
    if (ckpt.enabled() && ckpt.period != 0) {
        // Measure in period-sized chunks, snapshotting between them
        // so a killed job restarts from its last chunk boundary. The
        // artifact only covers the measurement window: the warmup is
        // already backed by its own artifact above. A preemption
        // request is honored at the same boundaries — the snapshot
        // just written IS the resume point, so yielding here loses
        // no work and a resumed run stays bit-identical.
        while (system->now() < end) {
            const Cycle step =
                std::min<Cycle>(ckpt.period, end - system->now());
            system->run(step);
            if (system->now() >= end)
                break;
            saveCheckpoint(*system, runFile, hash);
            if (preemptWanted(policy)) {
                throw JobPreempted(
                    "preempted at cycle " +
                    std::to_string(system->now()) +
                    " of " + std::to_string(end) +
                    "; snapshot saved");
            }
        }
        removeCheckpoint(runFile);
        pruneCheckpointDir(ckpt);
    } else if (system->now() < end) {
        system->run(end - system->now());
    }

    MixResult result;
    result.ipc = system->ipcs();
    result.l3AccessesPerKilocycle.reserve(system->numCores());
    for (unsigned c = 0; c < system->numCores(); ++c) {
        result.l3AccessesPerKilocycle.push_back(
            system->l3AccessesPerKilocycle(static_cast<CoreId>(c)));
    }
    return result;
}

} // namespace nuca
