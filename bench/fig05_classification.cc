/**
 * @file
 * Figure 5: classification of the SPEC2000 applications by
 * last-level (L3) data-cache access intensity.
 *
 * Methodology: each application runs alone on core 0 of the
 * baseline private-L3 system, with compute-only spinners on the
 * other cores (an uncontended characterization run); core 0's
 * accesses per kilocycle are reported. Applications above the
 * 9 accesses/kilocycle threshold are LLC-intensive (paper
 * Section 4.1).
 *
 * The 24 characterization runs are independent (one CmpSystem each,
 * same fixed seed), so they fan out over the worker pool; rows are
 * printed afterwards in the profile-table order.
 *
 * The table also prints the diagnostics used to calibrate the
 * synthetic profiles: IPC, per-level miss ratios and the branch
 * misprediction rate.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "serialize/checkpoint_io.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "figures.hh"
#include "sim/env_config.hh"
#include "sim/parallel_runner.hh"
#include "sim/telemetry.hh"
#include "workload/spec_profiles.hh"

namespace {

using namespace nuca;

/** One application's characterization numbers. */
struct ClassRow
{
    double intensity = 0.0;
    double ipc = 0.0;
    double l1dMissPct = 0.0;
    double l2dMissPct = 0.0;
    double l3MissPct = 0.0;
    double mispredictPct = 0.0;
};

ClassRow
characterize(const WorkloadProfile &profile, const SimWindow &window,
             const RunPolicy &policy)
{
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Private);
    constexpr std::uint64_t seed = 12345;
    std::vector<WorkloadProfile> apps(4, idleProfile());
    apps[0] = profile;
    auto system = std::make_unique<CmpSystem>(config, apps, seed);

    // Characterization runs share the warmup cache with the sweep
    // benchmarks: the key covers the profile line-up, so a reused
    // artifact reproduces this exact warmup bit-for-bit.
    const CheckpointConfig &ckpt = policy.ckpt;
    std::vector<std::string> names;
    for (const auto &app : apps)
        names.push_back(app.name);
    const std::uint64_t hash =
        ckpt.enabled() ? configHash(config) : 0;
    const std::string warmFile =
        ckpt.enabled()
            ? warmupPath(ckpt, warmupKey(config, names, seed,
                                         window.warmupCycles))
            : std::string();
    bool restoredWarm = false;
    if (ckpt.enabled() && checkpointFileExists(warmFile)) {
        restoredWarm =
            tryRestoreCheckpoint(*system, warmFile, hash);
        if (!restoredWarm) {
            // A failed decode may leave partial state; start clean.
            system = std::make_unique<CmpSystem>(config, apps, seed);
        }
    }

    // One trace per characterization run when REPRO_TRACE is set.
    system->setRobustness(policy.robust);
    const auto trace = attachTelemetry(*system, policy.telemetry,
                                       "fig5." + profile.name);
    if (!restoredWarm) {
        system->run(window.warmupCycles);
        if (ckpt.enabled())
            saveCheckpoint(*system, warmFile, hash);
    }
    system->resetStats();
    system->run(window.measureCycles);

    auto &mem = system->memOf(0);
    auto &core = system->coreAt(0);
    const double l3_accesses =
        static_cast<double>(mem.l3DataAccesses());

    ClassRow row;
    row.intensity = system->l3AccessesPerKilocycle(0);
    row.ipc = system->ipcOf(0);
    row.l1dMissPct = 100.0 * mem.l1d().tags().missRatio();
    row.l2dMissPct = 100.0 * mem.l2d().tags().missRatio();
    row.l3MissPct =
        l3_accesses == 0.0
            ? 0.0
            : 100.0 * static_cast<double>(mem.l3DataMisses()) /
                  l3_accesses;
    row.mispredictPct =
        100.0 * core.predictor().mispredictRate();
    return row;
}

} // namespace

int
main()
{
    using namespace nuca;

    const SimWindow window =
        bench::figureEnvFromEnv({1000000, 2000000}, 0).window;
    const RunPolicy policy = runPolicyFromEnv();

    std::printf("Figure 5: L3 data accesses per 1000 cycles "
                "(threshold: 9)\n");
    std::printf("windows: warmup %llu, measure %llu cycles\n\n",
                static_cast<unsigned long long>(window.warmupCycles),
                static_cast<unsigned long long>(window.measureCycles));
    std::printf("%-10s %9s %6s %7s %7s %7s %7s %9s %s\n", "app",
                "l3acc/kc", "IPC", "L1D%", "L2D%", "L3miss%",
                "bpred%", "expected", "class");

    const auto &profiles = specProfiles();
    ProgressReporter progress("characterize", profiles.size());
    const auto rows = runParallel(
        profiles,
        [&](const WorkloadProfile &profile) {
            return characterize(profile, window, policy);
        },
        jobsFromEnv(), &progress);
    progress.finish();

    unsigned misclassified = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &profile = profiles[i];
        const auto &row = rows[i];
        const bool classified_intensive = row.intensity > 9.0;
        if (classified_intensive != profile.llcIntensive)
            ++misclassified;

        std::printf("%-10s %9.2f %6.3f %7.2f %7.2f %7.2f %7.2f %9s "
                    "%s%s\n",
                    profile.name.c_str(), row.intensity, row.ipc,
                    row.l1dMissPct, row.l2dMissPct, row.l3MissPct,
                    row.mispredictPct,
                    profile.llcIntensive ? "intensive" : "light",
                    classified_intensive ? "intensive" : "light",
                    classified_intensive == profile.llcIntensive
                        ? ""
                        : "  <-- MISCLASSIFIED");
    }

    std::printf("\nmisclassified: %u of %zu\n", misclassified,
                profiles.size());
    return 0;
}
