/**
 * @file
 * Figure 3: number of last-level cache misses as a function of the
 * number of blocks (ways) per set, with the set count fixed at the
 * baseline's 4096.
 *
 * Methodology: each application's reference stream is filtered
 * through functional L1D/L2D caches (Table 1 geometry); the L2
 * misses probe sixteen standalone L3 tag arrays, one per
 * associativity, in the same pass. Timing is irrelevant to this
 * figure, so the replay is purely functional and fast.
 *
 * Expected shape (paper Section 2.1): mcf is the innermost curve —
 * flat after a single block per set; gzip needs about four blocks;
 * the cache-hungry applications (ammp-like) keep improving further
 * out.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "sim/env_config.hh"
#include "sim/parallel_runner.hh"
#include "sim/telemetry.hh"
#include "workload/miss_curve.hh"
#include "workload/spec_profiles.hh"

namespace {

using namespace nuca;

constexpr unsigned maxWays = 16;

/** L3 miss counts per associativity for one application: the shared
 *  l3MissCurve replay, with REPRO_TRACE telemetry hung off its
 *  sample hook. The replay is functional (no cycles), so the sample
 *  period is interpreted in instructions. */
std::vector<Counter>
missCurve(const WorkloadProfile &profile, std::uint64_t insts,
          const TelemetryConfig &telemetry)
{
    std::unique_ptr<TraceSink> trace;
    if (telemetry.enabled())
        trace = std::make_unique<JsonlTraceSink>(tracePathFor(
            telemetry.tracePath, "fig3." + profile.name));
    const std::uint64_t period = telemetry.samplePeriod;
    if (trace) {
        json::Value meta = json::Value::object();
        meta.set("type", "meta");
        meta.set("scheme", "fig3_replay");
        meta.set("app", profile.name);
        meta.set("period", period);
        trace->write(meta);
    }
    MissCurveSampleFn sample;
    if (trace) {
        sample = [&trace](std::uint64_t inst,
                          const std::vector<Counter> &per_way) {
            json::Value record = json::Value::object();
            record.set("type", "sample");
            record.set("inst", inst);
            json::Value misses = json::Value::array();
            for (const Counter m : per_way)
                misses.append(m);
            record.set("misses_per_way", std::move(misses));
            trace->write(record);
        };
    }

    MissCurveParams params;
    params.insts = insts;
    return l3MissCurve(profile, params, sample, period);
}

} // namespace

int
main()
{
    using namespace nuca;

    const std::uint64_t insts =
        envOr("REPRO_FIG3_INSTS", 20000000);
    const TelemetryConfig telemetry = telemetryFromEnv();
    const std::vector<std::string> apps = {"mcf", "gzip", "parser",
                                           "twolf", "ammp"};

    std::printf("Figure 3: L3 misses vs blocks per set (4096 sets "
                "fixed, %llu instructions per app)\n\n",
                static_cast<unsigned long long>(insts));
    std::printf("%-6s", "ways");
    for (const auto &app : apps)
        std::printf(" %10s", app.c_str());
    std::printf("\n");

    // Each replay is an independent functional simulation from its
    // own SynthWorkload seed, so the applications fan out over the
    // worker pool.
    ProgressReporter progress("replay", apps.size());
    const auto curves = runParallel(
        apps,
        [&](const std::string &app) {
            return missCurve(specProfile(app), insts, telemetry);
        },
        jobsFromEnv(), &progress);
    progress.finish();

    for (unsigned w = 0; w < maxWays; ++w) {
        std::printf("%-6u", w + 1);
        for (const auto &curve : curves)
            std::printf(" %10llu",
                        static_cast<unsigned long long>(curve[w]));
        std::printf("\n");
    }

    // The saturation points the paper highlights: the number of
    // ways beyond which fewer than 5% further misses are removed.
    std::printf("\nsaturation (ways where the curve flattens, <5%% "
                "further gain):\n");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        unsigned sat = maxWays;
        for (unsigned w = 0; w + 1 < maxWays; ++w) {
            const double cur =
                static_cast<double>(curves[a][w]);
            const double rest =
                static_cast<double>(curves[a][maxWays - 1]);
            if (cur - rest < 0.05 * static_cast<double>(
                                        curves[a][0] -
                                        curves[a][maxWays - 1] + 1)) {
                sat = w + 1;
                break;
            }
        }
        std::printf("  %-8s %2u blocks/set\n", apps[a].c_str(), sat);
    }
    return 0;
}
