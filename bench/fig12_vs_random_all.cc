/**
 * @file
 * Figure 12: the same adaptive vs random-replacement comparison on
 * mixes drawn from ALL benchmarks (both classes).
 *
 * Expected shape: the adaptive advantage shrinks compared to
 * Figure 11 — with many applications that barely use the L3, the
 * uncontrolled spilling scheme has idle capacity to spill into and
 * pollution matters less.
 */

#include <cstdio>

#include "common.hh"
#include "workload/spec_profiles.hh"

int
main()
{
    using namespace nuca;
    using namespace nuca::bench;

    const SimWindow window = windowFromEnv(3000000, 3000000);
    const unsigned num_mixes = mixCountFromEnv(16);
    printHeader("Figure 12: adaptive vs random-replacement (all "
                "benchmarks)",
                window, num_mixes);

    const auto mixes =
        makeMixes(allProfileNames(), num_mixes, 4, 20070202);
    const auto results = runAll(
        {{"random-repl",
          SystemConfig::baseline(L3Scheme::RandomReplacement)},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window);

    std::printf("%-4s %-38s %12s %9s %10s\n", "exp", "mix",
                "random-repl", "adaptive", "ratio");
    double num = 0, den = 0;
    std::size_t skipped = 0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        if (!results[0].okAt(m) || !results[1].okAt(m)) {
            ++skipped;
            continue;
        }
        std::string mixname;
        for (const auto &app : mixes[m].apps)
            mixname += (mixname.empty() ? "" : "+") + app;
        const double hr = mixHarmonic(results[0].mixes[m]);
        const double ha = mixHarmonic(results[1].mixes[m]);
        num += ha;
        den += hr;
        std::printf("%-4zu %-38s %12.4f %9.4f %9.3fx\n", m + 1,
                    mixname.c_str(), hr, ha,
                    hr == 0.0 ? 0.0 : ha / hr);
    }
    if (skipped != 0) {
        std::printf("note: %zu of %zu experiments skipped by the "
                    "failure policy and excluded above\n",
                    skipped, mixes.size());
    }
    std::printf("\nadaptive vs random replacement (all apps): "
                "harmonic %+0.1f%% (paper: \"not that superior\" "
                "here, unlike the intensive-only Figure 11)\n",
                den == 0.0 ? 0.0 : 100.0 * (num / den - 1.0));
    return 0;
}
