/**
 * @file
 * Ablation (design-choice study beyond the paper's figures): how
 * much of the scheme's win comes from *adapting* the quotas, versus
 * merely having private/shared partitions with lazy sharing of spare
 * capacity? Freezing the quotas at the initial 75/25 split isolates
 * the estimator-driven adaptation that is the paper's contribution.
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
    const unsigned num_mixes = mixCountFromEnv(8);
    printHeader("Ablation: adaptive quotas vs frozen 75/25 "
                "partitioning",
                window, num_mixes);

    auto frozen = SystemConfig::baseline(L3Scheme::Adaptive);
    frozen.adaptationEnabled = false;

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);
    const auto results = runAll(
        {{"private", SystemConfig::baseline(L3Scheme::Private)},
         {"frozen-75/25", frozen},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window);

    std::printf("%-14s %14s %12s\n", "config", "harmonic IPC",
                "vs private");
    std::vector<double> sums(results.size(), 0.0);
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m)
            sums[s] += mixHarmonic(results[s].mixes[m]);
    }
    for (std::size_t s = 0; s < results.size(); ++s) {
        std::printf("%-14s %14.4f %11.3fx\n",
                    results[s].label.c_str(),
                    sums[s] / static_cast<double>(mixes.size()),
                    sums[s] / sums[0]);
    }
    std::printf("\nthe gap between frozen-75/25 and adaptive is the "
                "contribution of the shadow-tag/LRU-hit controller "
                "itself; the gap between private and frozen-75/25 "
                "is the value of structured sharing alone.\n");
    return 0;
}
