/**
 * @file
 * Extension study: an L2 stride prefetcher under the partitioning
 * schemes. Prefetching inflates each core's L3/memory traffic; the
 * question is whether the quota mechanism contains prefetch-driven
 * pollution the way it contains demand-driven pollution.
 *
 * Expected: prefetching helps the stream-heavy applications under
 * every organization; under the adaptive scheme the prefetch traffic
 * of contained cores cannot crowd out protected partitions, so the
 * adaptive-over-private margin survives prefetching.
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
    const unsigned num_mixes = mixCountFromEnv(6);
    printHeader("Extension: L2 stride prefetching x partitioning",
                window, num_mixes);

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);

    std::vector<std::pair<std::string, SystemConfig>> configs;
    for (const bool prefetch : {false, true}) {
        for (const auto scheme :
             {L3Scheme::Private, L3Scheme::Adaptive}) {
            auto cfg = SystemConfig::baseline(scheme);
            cfg.coreMem.enablePrefetcher = prefetch;
            configs.emplace_back(to_string(scheme) +
                                     (prefetch ? "+pf" : ""),
                                 cfg);
        }
    }
    const auto results = runAll(configs, mixes, window);

    std::printf("%-14s %14s\n", "config", "harmonic IPC");
    std::vector<double> sums(results.size(), 0.0);
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m)
            sums[s] += mixHarmonic(results[s].mixes[m]);
        std::printf("%-14s %14.4f\n", results[s].label.c_str(),
                    sums[s] / static_cast<double>(mixes.size()));
    }
    std::printf("\nadaptive/private without prefetch: %.3fx, with: "
                "%.3fx\n",
                sums[1] / sums[0], sums[3] / sums[2]);
    return 0;
}
