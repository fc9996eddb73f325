/**
 * @file
 * Figure 10: the impact of technology scaling (Section 4.5). The
 * core clock shrinks 30% while wires do not, so in cycles: L2 9->11,
 * L3 14/19 -> 16/24, memory 258/260 -> 330/338.
 *
 * Expected shape: every scheme slows down, but the adaptive scheme
 * gains the most relative to private because it removes the most
 * main-memory accesses, and those become relatively more expensive.
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
    const unsigned num_mixes = mixCountFromEnv(12);
    printHeader("Figure 10: technology scaling (slower caches and "
                "memory relative to the core)",
                window, num_mixes);

    const auto mixes =
        makeMixes(llcIntensiveNames(), num_mixes, 4,
                  bench::paperMixSeed);

    const auto base = runAll(
        {{"private", SystemConfig::baseline(L3Scheme::Private)},
         {"shared", SystemConfig::baseline(L3Scheme::Shared)},
         {"adaptive", SystemConfig::baseline(L3Scheme::Adaptive)}},
        mixes, window);
    const auto scaled = runAll(
        {{"private*", SystemConfig::scaledTech(L3Scheme::Private)},
         {"shared*", SystemConfig::scaledTech(L3Scheme::Shared)},
         {"adaptive*", SystemConfig::scaledTech(L3Scheme::Adaptive)}},
        mixes, window);

    const auto gain = [&](const SchemeResults &scheme,
                          const SchemeResults &priv) {
        double num = 0, den = 0;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            num += mixHarmonic(scheme.mixes[m]);
            den += mixHarmonic(priv.mixes[m]);
        }
        return num / den;
    };

    std::printf("harmonic-mean speedup over the private scheme in "
                "the same technology:\n");
    std::printf("%-10s %12s %12s\n", "scheme", "today", "scaled");
    std::printf("%-10s %11.3fx %11.3fx\n", "shared",
                gain(base[1], base[0]), gain(scaled[1], scaled[0]));
    std::printf("%-10s %11.3fx %11.3fx\n", "adaptive",
                gain(base[2], base[0]), gain(scaled[2], scaled[0]));

    const double widening = gain(scaled[2], scaled[0]) -
                            gain(base[2], base[0]);
    std::printf("\nadaptive advantage change under scaling: "
                "%+0.1f%% points (paper: the new scheme has the "
                "highest gain as memory gets relatively slower)\n",
                100.0 * widening);

    std::printf("\nabsolute harmonic IPC (averaged over mixes):\n");
    std::printf("%-10s %9s %9s\n", "scheme", "today", "scaled");
    for (unsigned s = 0; s < 3; ++s) {
        double today = 0, later = 0;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            today += mixHarmonic(base[s].mixes[m]);
            later += mixHarmonic(scaled[s].mixes[m]);
        }
        std::printf("%-10s %9.4f %9.4f\n", base[s].label.c_str(),
                    today / static_cast<double>(mixes.size()),
                    later / static_cast<double>(mixes.size()));
    }
    return 0;
}
