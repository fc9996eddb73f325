/**
 * @file
 * Parallel-workload extension demo (the paper's Section 3 future
 * work): four threads of one program share a read-mostly table, with
 * write-invalidate coherence between the private L1/L2 hierarchies.
 *
 * Compares how the L3 organizations serve shared data: private
 * caches replicate the table four times (wasting capacity), while
 * the shared and adaptive organizations keep one copy — and the
 * adaptive scheme additionally walls off each thread's private
 * working set.
 *
 * Usage: parallel_sharing [sharedKB] [sharedFrac%] [cycles]
 * (sharedFrac% is a whole percentage, 0-100)
 */

#include <cstdio>
#include <vector>

#include "base/parse_count.hh"
#include "sim/cmp_system.hh"
#include "sim/metrics.hh"
#include "workload/synth_workload.hh"

int
main(int argc, char **argv)
{
    using namespace nuca;

    const std::uint64_t shared_kb =
        argc > 1 ? flagCount("parallel_sharing", "sharedKB", argv[1])
                 : 2048;
    const double shared_frac =
        argc > 2 ? static_cast<double>(flagCount(
                       "parallel_sharing", "sharedFrac%", argv[2], 100)) /
                       100.0
                 : 0.5;
    const Cycle cycles =
        argc > 3 ? flagCount("parallel_sharing", "cycles", argv[3])
                 : 1000000;

    WorkloadProfile thread;
    thread.name = "pthread";
    thread.loadFrac = 0.30;
    thread.storeFrac = 0.06;
    thread.branchFrac = 0.08;
    thread.meanDepDist = 16;
    thread.codeFootprintBytes = 8 * 1024;
    thread.regions = {{48 * 1024, 0.92, RegionPattern::Random},
                      {256 * 1024, 0.08, RegionPattern::Random}};
    thread.sharedFrac = shared_frac;
    thread.sharedRegions = {
        {shared_kb * 1024, 1.0, RegionPattern::Random}};

    const std::vector<WorkloadProfile> threads(4, thread);

    std::printf("4 threads, %llu KB shared read-mostly table, "
                "%.0f%% of references shared, %llu measured "
                "cycles\n\n",
                static_cast<unsigned long long>(shared_kb),
                100.0 * shared_frac,
                static_cast<unsigned long long>(cycles));
    std::printf("%-19s %9s %9s %12s %14s\n", "scheme", "harmonic",
                "average", "mem fetches", "invalidations");

    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        // Shared regions in the profiles give the system its
        // coherence hub.
        CmpSystem system(SystemConfig::baseline(scheme), threads, 17);
        system.run(cycles / 2);
        system.resetStats();
        const Counter fetches0 = system.memory().fetches();
        system.run(cycles);
        std::printf("%-19s %9.4f %9.4f %12llu %14llu\n",
                    to_string(scheme).c_str(),
                    harmonicMean(system.ipcs()),
                    arithmeticMean(system.ipcs()),
                    static_cast<unsigned long long>(
                        system.memory().fetches() - fetches0),
                    static_cast<unsigned long long>(
                        system.coherence()
                            ? system.coherence()->invalidations()
                            : 0));
    }

    std::printf("\nexpected: the single-copy organizations (shared, "
                "adaptive) fit the table and beat private's four "
                "replicas whenever the table exceeds one private "
                "cache.\n");
    return 0;
}
