/**
 * @file
 * Quickstart: build a four-core CMP with the adaptive shared/private
 * NUCA L3, run a short multiprogrammed mix, and print per-core IPC,
 * the final partitioning, and the full statistics dump.
 *
 * Usage: quickstart [cycles]
 */

#include <iostream>

#include "base/parse_count.hh"
#include "sim/cmp_system.hh"
#include "sim/metrics.hh"
#include "workload/spec_profiles.hh"

int
main(int argc, char **argv)
{
    using namespace nuca;

    const Cycle cycles =
        argc > 1 ? flagCount("quickstart", "cycles", argv[1]) : 500000;

    // A classic mix: one cache-hog (ammp), one streaming thrasher
    // (mcf), one moderate (gzip), one nearly L2-resident (wupwise).
    const std::vector<WorkloadProfile> apps = {
        specProfile("ammp"),
        specProfile("mcf"),
        specProfile("gzip"),
        specProfile("wupwise"),
    };

    SystemConfig config = SystemConfig::baseline(L3Scheme::Adaptive);
    CmpSystem system(config, apps, /*seed=*/42);

    std::cout << "warming up (" << cycles / 5 << " cycles)...\n";
    system.run(cycles / 5);
    system.resetStats();

    std::cout << "measuring (" << cycles << " cycles)...\n";
    system.run(cycles);

    std::cout << "\nper-core results\n";
    for (unsigned c = 0; c < system.numCores(); ++c) {
        const auto core = static_cast<CoreId>(c);
        std::cout << "  core " << c << " (" << apps[c].name
                  << "): IPC " << system.ipcOf(core)
                  << ", L3 data accesses/kcycle "
                  << system.l3AccessesPerKilocycle(core)
                  << ", quota "
                  << system.adaptive()->engine().quota(core)
                  << " blocks/set\n";
    }
    std::cout << "  harmonic mean IPC: "
              << harmonicMean(system.ipcs()) << "\n";

    std::cout << "\nfull statistics\n";
    system.statsRoot().dump(std::cout, "  ");
    return 0;
}
