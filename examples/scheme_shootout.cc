/**
 * @file
 * Scheme shootout: run one multiprogrammed mix on all four last-level
 * cache organizations and print a comparison table — per-core IPC,
 * harmonic/arithmetic means, and L3 behaviour.
 *
 * The four organizations are independent simulations of the same
 * mix, so they fan out over the worker pool (REPRO_JOBS threads) and
 * the table is printed in a fixed order afterwards — the output is
 * identical to the old serial loop's.
 *
 * Usage: scheme_shootout [app0 app1 app2 app3] [cycles]
 * Defaults: mcf gzip ammp art, 2000000 cycles.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "sim/env_config.hh"
#include "sim/cmp_system.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "sim/telemetry.hh"
#include "workload/spec_profiles.hh"

namespace {

using namespace nuca;

/** Everything one scheme's table row needs, simulated off-thread. */
struct SchemeRow
{
    std::vector<double> ipcs;
    Counter fetches = 0;
    std::vector<unsigned> quotas; // adaptive scheme only
};

SchemeRow
runScheme(L3Scheme scheme, const std::vector<WorkloadProfile> &apps,
          Cycle cycles, const TelemetryConfig &telemetry)
{
    CmpSystem system(SystemConfig::baseline(scheme), apps, 1);
    // REPRO_TRACE=<path> traces the adaptive run (the one with
    // repartition dynamics) to exactly <path>; only one of the four
    // parallel scheme runs writes, so the file never interleaves.
    const auto trace = scheme == L3Scheme::Adaptive
                           ? attachTelemetry(system, telemetry, "")
                           : nullptr;
    system.run(cycles / 2); // warm-up
    system.resetStats();
    const Counter fetches0 = system.memory().fetches();
    system.run(cycles);

    SchemeRow row;
    row.ipcs = system.ipcs();
    row.fetches = system.memory().fetches() - fetches0;
    if (scheme == L3Scheme::Adaptive) {
        for (unsigned c = 0; c < system.numCores(); ++c)
            row.quotas.push_back(system.adaptive()->engine().quota(
                static_cast<CoreId>(c)));
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nuca;
    profilerFromEnv();
    const TelemetryConfig telemetry = telemetryFromEnv();

    std::vector<std::string> names = {"mcf", "gzip", "ammp", "art"};
    Cycle cycles = 2000000;
    if (argc >= 5) {
        for (int i = 0; i < 4; ++i)
            names[static_cast<std::size_t>(i)] = argv[i + 1];
    }
    if (argc == 2)
        cycles = flagCount("scheme_shootout", "cycles", argv[1]);
    if (argc >= 6)
        cycles = flagCount("scheme_shootout", "cycles", argv[5]);

    std::vector<WorkloadProfile> apps;
    for (const auto &name : names)
        apps.push_back(specProfile(name));

    std::printf("mix: %s + %s + %s + %s, %llu measured cycles\n\n",
                names[0].c_str(), names[1].c_str(), names[2].c_str(),
                names[3].c_str(),
                static_cast<unsigned long long>(cycles));
    std::printf("%-19s %8s %8s %8s %8s %9s %9s %10s\n", "scheme",
                names[0].c_str(), names[1].c_str(), names[2].c_str(),
                names[3].c_str(), "harmonic", "average",
                "mem fetches");

    const std::vector<L3Scheme> schemes = {
        L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
        L3Scheme::RandomReplacement};
    const auto rows = runParallelOutcomes(
        schemes,
        [&](L3Scheme s) { return runScheme(s, apps, cycles, telemetry); },
        jobsFromEnv());
    for (const auto &outcome : rows) {
        if (outcome.exception)
            std::rethrow_exception(outcome.exception);
    }

    for (std::size_t s = 0; s < schemes.size(); ++s) {
        const auto &row = rows[s].value;
        std::printf("%-19s %8.4f %8.4f %8.4f %8.4f %9.4f %9.4f %10llu\n",
                    to_string(schemes[s]).c_str(), row.ipcs[0],
                    row.ipcs[1], row.ipcs[2], row.ipcs[3],
                    harmonicMean(row.ipcs), arithmeticMean(row.ipcs),
                    static_cast<unsigned long long>(row.fetches));

        if (!row.quotas.empty()) {
            std::printf("%-19s", "  final quotas:");
            for (std::size_t c = 0; c < row.quotas.size(); ++c) {
                std::printf(" %s=%u", names[c].c_str(),
                            row.quotas[c]);
            }
            std::printf(" blocks/set\n");
        }
    }
    return 0;
}
