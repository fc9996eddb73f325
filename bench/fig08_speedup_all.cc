/**
 * @file
 * Figure 8: per-application speedup over private caches across the
 * whole SPEC2000 pool (both the LLC-intensive and the L2-resident
 * classes), plus the Section 4.3 anecdote: a mix of three ammp
 * instances and one wupwise, where the adaptive scheme deliberately
 * sacrifices wupwise to feed ammp and still wins on the harmonic
 * mean.
 */

#include <cstdio>

#include "common.hh"
#include "sim/parallel_runner.hh"
#include "workload/spec_profiles.hh"

int
main()
{
    using namespace nuca;
    using namespace nuca::bench;

    const SimWindow window = windowFromEnv(3000000, 3000000);
    const unsigned num_mixes = mixCountFromEnv(16);
    printHeader("Figure 8: per-application speedup vs private "
                "caches (all SPEC2000)",
                window, num_mixes);

    const auto mixes =
        makeMixes(allProfileNames(), num_mixes, 4, 20070202);
    const auto results = runAll(
        {{"private", SystemConfig::baseline(L3Scheme::Private)},
         {"shared", SystemConfig::baseline(L3Scheme::Shared)},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window);

    const auto shared = perAppSpeedup(mixes, results[1], results[0]);
    const auto adaptive =
        perAppSpeedup(mixes, results[2], results[0]);

    std::printf("%-10s %-10s %9s %10s\n", "app", "class", "shared",
                "adaptive");
    for (const auto &[app, s] : adaptive) {
        std::printf("%-10s %-10s %8.3fx %9.3fx  %s\n", app.c_str(),
                    specProfile(app).llcIntensive ? "intensive"
                                                  : "light",
                    shared.count(app) ? shared.at(app) : 0.0, s,
                    bar(s).c_str());
    }
    std::printf("%-10s %-10s %8.3fx %9.3fx\n", "mean", "",
                meanOfMap(shared), meanOfMap(adaptive));

    // ---- Section 4.3 anecdote: 3x ammp + wupwise ----------------
    std::printf("\nSection 4.3 anecdote: {ammp, ammp, ammp, "
                "wupwise}\n");
    ExperimentSpec anecdote{{"ammp", "ammp", "ammp", "wupwise"},
                            424242};
    const std::vector<L3Scheme> schemes = {L3Scheme::Private,
                                           L3Scheme::Adaptive};
    const RunPolicy policy = runPolicyFromEnv();
    const auto anecdote_runs = runParallel(
        schemes,
        [&](L3Scheme scheme) {
            return runMix(SystemConfig::baseline(scheme), anecdote,
                          window, "anecdote." + to_string(scheme),
                          policy);
        },
        jobsFromEnv());
    const auto &priv = anecdote_runs[0];
    const auto &adapt = anecdote_runs[1];
    std::printf("  %-9s %9s %9s\n", "core/app", "private",
                "adaptive");
    for (unsigned c = 0; c < 4; ++c) {
        std::printf("  %-9s %9.4f %9.4f\n",
                    anecdote.apps[c].c_str(), priv.ipc[c],
                    adapt.ipc[c]);
    }
    const double h_priv = harmonicMean(priv.ipc);
    const double h_adapt = harmonicMean(adapt.ipc);
    std::printf("  harmonic  %9.4f %9.4f  (%+.1f%%)\n", h_priv,
                h_adapt, 100.0 * (h_adapt / h_priv - 1.0));
    std::printf("  paper: wupwise 1.7974 -> 1.326, ammp 0.0319 -> "
                "~0.0322; harmonic mean slightly up — the scheme "
                "sacrifices the fast app for the slow one, which is "
                "the correct harmonic-mean decision.\n");
    return 0;
}
