/**
 * @file
 * Partition trace: watch the sharing engine at work. Runs a mix with
 * one cache-hungry application and prints, at regular intervals, the
 * per-core quotas, the estimator counters of the current epoch, and
 * the repartitioning activity — an ASCII version of the dynamics
 * behind paper Section 2.1.
 *
 * Usage: partition_trace [intervals] [cycles_per_interval]
 */

#include <climits>
#include <cstdio>
#include <vector>

#include "base/parse_count.hh"
#include "sim/cmp_system.hh"
#include "workload/spec_profiles.hh"

namespace {

/** A crude bar of one character per block of quota. */
std::string
quotaBar(unsigned quota)
{
    return std::string(quota, '#');
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nuca;

    const auto intervals = static_cast<unsigned>(
        argc > 1 ? flagCount("partition_trace", "intervals", argv[1],
                             UINT_MAX)
                 : 20);
    const Cycle step =
        argc > 2 ? flagCount("partition_trace", "cycles_per_interval",
                             argv[2])
                 : 350000;

    // art hoards capacity; wupwise and mesa barely need the L3; mcf
    // thrashes without profiting from more space.
    const std::vector<WorkloadProfile> apps = {
        specProfile("art"), specProfile("mcf"),
        specProfile("wupwise"), specProfile("mesa")};

    CmpSystem system(SystemConfig::baseline(L3Scheme::Adaptive),
                     apps, 99);
    auto &engine = system.adaptive()->engine();

    std::printf("adaptive NUCA partition trace: art (hungry) vs mcf "
                "(thrashing) vs wupwise/mesa (L2-resident)\n");
    std::printf("quota = max blocks per set and core (initial 4, "
                "re-evaluated every %llu misses)\n\n",
                static_cast<unsigned long long>(2000));
    std::printf("%-10s %-14s %-14s %-14s %-14s %6s\n", "cycle",
                "art", "mcf", "wupwise", "mesa", "moves");

    for (unsigned i = 0; i <= intervals; ++i) {
        std::printf("%-10llu",
                    static_cast<unsigned long long>(system.now()));
        for (unsigned c = 0; c < 4; ++c) {
            const unsigned q =
                engine.quota(static_cast<CoreId>(c));
            std::printf(" %2u %-10s", q,
                        quotaBar(q).c_str());
        }
        std::printf(" %6llu\n", static_cast<unsigned long long>(
                                    engine.repartitions()));
        if (i < intervals)
            system.run(step);
    }

    std::printf("\nepoch estimator snapshot (current epoch):\n");
    std::printf("%-10s %12s %12s\n", "core/app", "shadow hits",
                "LRU hits");
    for (unsigned c = 0; c < 4; ++c) {
        std::printf("%-10s %12llu %12llu\n", apps[c].name.c_str(),
                    static_cast<unsigned long long>(
                        engine.shadowHitsOf(static_cast<CoreId>(c))),
                    static_cast<unsigned long long>(
                        engine.lruHitsOf(static_cast<CoreId>(c))));
    }

    std::printf("\nper-core L3 traffic:\n");
    std::printf("%-10s %12s %12s %12s\n", "core/app", "local hits",
                "remote hits", "misses");
    for (unsigned c = 0; c < 4; ++c) {
        const auto core = static_cast<CoreId>(c);
        std::printf("%-10s %12llu %12llu %12llu\n",
                    apps[c].name.c_str(),
                    static_cast<unsigned long long>(
                        system.adaptive()->localHitsOf(core)),
                    static_cast<unsigned long long>(
                        system.adaptive()->remoteHitsOf(core)),
                    static_cast<unsigned long long>(
                        system.adaptive()->missesOf(core)));
    }

    system.adaptive()->checkInvariants();
    std::printf("\nall structural invariants hold.\n");
    return 0;
}
