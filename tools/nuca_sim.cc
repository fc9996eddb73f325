/**
 * @file
 * nuca_sim — the command-line front end of the simulator.
 *
 *   nuca_sim [options]
 *     --scheme private|shared|adaptive|random   L3 organization
 *     --apps a,b,c,d          one profile name per core (see --list)
 *     --config baseline|8mb|scaled|quad         system variant
 *     --warmup N              warm-up cycles  (default 1000000)
 *     --cycles N              measured cycles (default 3000000)
 *     --seed N                workload seed   (default 1)
 *     --trace-in f0,f1,f2,f3  replay trace files instead of profiles
 *     --dump-stats            print the full statistics tree
 *     --list                  list the available application profiles
 *
 *   Trace capture:
 *     nuca_sim --capture APP --insts N --out FILE [--seed N]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/cmp_system.hh"
#include "sim/env_config.hh"
#include "sim/metrics.hh"
#include "sim/telemetry.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"
#include "workload/profile_io.hh"
#include "workload/trace.hh"

namespace {

using namespace nuca;

std::vector<std::string>
splitCommas(const std::string &value)
{
    std::vector<std::string> out;
    std::istringstream is(value);
    std::string token;
    while (std::getline(is, token, ','))
        out.push_back(token);
    return out;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: nuca_sim [--scheme S] [--apps a,b,c,d] "
                 "[--config C] [--warmup N] [--cycles N] [--seed N] "
                 "[--trace-in f0,f1,f2,f3] [--dump-stats] [--list]\n"
                 "       nuca_sim --capture APP --insts N --out FILE "
                 "[--seed N]\n");
    std::exit(1);
}

L3Scheme
parseScheme(const std::string &name)
{
    if (name == "private")
        return L3Scheme::Private;
    if (name == "shared")
        return L3Scheme::Shared;
    if (name == "adaptive")
        return L3Scheme::Adaptive;
    if (name == "random" || name == "random-replacement")
        return L3Scheme::RandomReplacement;
    fatal("unknown scheme '", name, "'");
}

SystemConfig
parseConfig(const std::string &variant, L3Scheme scheme)
{
    if (variant == "baseline")
        return SystemConfig::baseline(scheme);
    if (variant == "8mb")
        return SystemConfig::large8MB(scheme);
    if (variant == "scaled")
        return SystemConfig::scaledTech(scheme);
    if (variant == "quad")
        return SystemConfig::quadSizePrivate();
    fatal("unknown config variant '", variant, "'");
}

int
captureTrace(const std::string &app, std::uint64_t insts,
             const std::string &out, std::uint64_t seed)
{
    SynthWorkload workload(specProfile(app), 0, seed);
    std::ofstream os(out);
    fatal_if(!os, "cannot open '", out, "' for writing");
    os << "# nuca_sim trace: app=" << app << " insts=" << insts
       << " seed=" << seed << "\n";
    writeTrace(os, workload, insts);
    std::printf("wrote %llu instructions of %s to %s\n",
                static_cast<unsigned long long>(insts), app.c_str(),
                out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nuca;

    std::string scheme_name = "adaptive";
    std::string apps_arg = "mcf,gzip,ammp,art";
    std::string config_arg = "baseline";
    std::string trace_in;
    std::string capture_app, capture_out;
    std::uint64_t warmup = 1000000, cycles = 3000000, seed = 1;
    std::uint64_t capture_insts = 1000000;
    bool dump_stats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        const auto count = [&] {
            return flagCount("nuca_sim", arg, value());
        };
        if (arg == "--scheme") {
            scheme_name = value();
        } else if (arg == "--apps") {
            apps_arg = value();
        } else if (arg == "--config") {
            config_arg = value();
        } else if (arg == "--warmup") {
            warmup = count();
        } else if (arg == "--cycles") {
            cycles = count();
        } else if (arg == "--seed") {
            seed = count();
        } else if (arg == "--trace-in") {
            trace_in = value();
        } else if (arg == "--capture") {
            capture_app = value();
        } else if (arg == "--insts") {
            capture_insts = count();
        } else if (arg == "--out") {
            capture_out = value();
        } else if (arg == "--dump-stats") {
            dump_stats = true;
        } else if (arg == "--list") {
            for (const auto &name : allProfileNames()) {
                std::printf("%-10s %s\n", name.c_str(),
                            specProfile(name).llcIntensive
                                ? "llc-intensive"
                                : "light");
            }
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
        }
    }

    if (!capture_app.empty()) {
        fatal_if(capture_out.empty(),
                 "--capture requires --out FILE");
        return captureTrace(capture_app, capture_insts, capture_out,
                            seed);
    }

    const L3Scheme scheme = parseScheme(scheme_name);
    const SystemConfig config = parseConfig(config_arg, scheme);

    std::vector<std::string> names;
    std::vector<WorkloadProfile> profiles;

    if (!trace_in.empty()) {
        names = splitCommas(trace_in);
        fatal_if(names.size() != config.numCores,
                 "--trace-in needs ", config.numCores, " files");
    } else {
        names = splitCommas(apps_arg);
        fatal_if(names.size() != config.numCores, "--apps needs ",
                 config.numCores, " profile names");
        for (const auto &name : names) {
            // Names with a path separator or extension are loaded
            // as profile files (see src/workload/profile_io.hh).
            if (name.find('/') != std::string::npos ||
                name.find('.') != std::string::npos) {
                profiles.push_back(loadProfileFile(name));
            } else {
                profiles.push_back(specProfile(name));
            }
        }
    }

    std::unique_ptr<CmpSystem> system_ptr;
    if (!trace_in.empty()) {
        std::vector<std::unique_ptr<InstSource>> sources;
        for (const auto &file : names) {
            std::ifstream is(file);
            fatal_if(!is, "cannot open trace '", file, "'");
            sources.push_back(
                std::make_unique<TraceReplaySource>(is));
        }
        system_ptr = std::make_unique<CmpSystem>(
            config, std::move(sources));
    } else {
        system_ptr =
            std::make_unique<CmpSystem>(config, profiles, seed);
    }
    CmpSystem &system = *system_ptr;
    // The REPRO_* robustness, profiling, telemetry and Perfetto
    // knobs work on the CLI front end too.
    system.setRobustness(robustnessFromEnv());
    profilerFromEnv();
    const auto trace = attachTelemetry(system, telemetryFromEnv(), "");
    std::fprintf(stderr, "warming %llu cycles...\n",
                 static_cast<unsigned long long>(warmup));
    system.run(warmup);
    system.resetStats();
    std::fprintf(stderr, "measuring %llu cycles...\n",
                 static_cast<unsigned long long>(cycles));
    system.run(cycles);

    std::printf("scheme=%s config=%s seed=%llu\n",
                to_string(scheme).c_str(), config_arg.c_str(),
                static_cast<unsigned long long>(seed));
    for (unsigned c = 0; c < system.numCores(); ++c) {
        const auto core = static_cast<CoreId>(c);
        std::printf("core%u %-10s ipc=%.4f l3acc/kc=%.2f", c,
                    names[c].c_str(), system.ipcOf(core),
                    system.l3AccessesPerKilocycle(core));
        if (system.adaptive()) {
            std::printf(" quota=%u",
                        system.adaptive()->engine().quota(core));
        }
        std::printf("\n");
    }
    std::printf("harmonic=%.4f average=%.4f\n",
                harmonicMean(system.ipcs()),
                arithmeticMean(system.ipcs()));

    if (dump_stats)
        system.statsRoot().dump(std::cout);
    return 0;
}
