/**
 * @file
 * nuca_subctl: command-line client for nuca_sweepd.
 *
 *   nuca_subctl [--socket PATH] <command> [args]
 *   (--socket defaults to .sweepd/sock, nuca_sweepd's default)
 *
 *   ping [--retry N]        liveness check (retry once a second)
 *   submit [spec flags]     submit one job, print its id
 *   status [id]             job table (or one job)
 *   result <id> [--wait]    print a job's result JSON
 *   preempt <id>            ask a running job to yield
 *   cancel <id>             cancel a job
 *   drain                   stop accepting new submits
 *   stats                   daemon counters and tenant service
 *   shutdown                stop the daemon
 *   figures <fig03|fig05|fig08|all>
 *                           drive the paper figures through the
 *                           daemon; rerunning hits the result cache
 *
 * Spec flags for submit: --kind mix|miss_curve, --base, --scheme,
 * --apps a,b,c,d, --seed, --warmup, --measure, --insts, --tenant,
 * --priority, --label.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "service/client.hh"
#include "sim/env_config.hh"
#include "sim/sweep_store.hh"
#include "workload/spec_profiles.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            if (start < text.size())
                parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

std::uint64_t
waitBudgetMs()
{
    return envOr("SWEEPD_WAIT_MS", 600000);
}

/** Submit one spec, counting result-cache hits as they happen. */
struct FigureSubmitter
{
    const SweepClient &client;
    std::uint64_t submitted = 0;
    std::uint64_t cacheHits = 0;

    std::uint64_t
    submit(const JobSpec &spec)
    {
        const json::Value resp = client.submit(spec);
        ++submitted;
        if (resp.at("state").asString() == "cache_hit")
            ++cacheHits;
        return static_cast<std::uint64_t>(
            resp.at("id").asNumber());
    }

    MixResult
    wait(std::uint64_t id)
    {
        const json::Value resp =
            client.waitResult(id, waitBudgetMs());
        return mixResultFromJson(resp.at("result"));
    }
};

void
figuresFig03(FigureSubmitter &figures)
{
    const std::uint64_t insts = envOr("REPRO_FIG3_INSTS", 20000000);
    const std::vector<std::string> apps = {"mcf", "gzip", "parser",
                                           "twolf", "ammp"};
    std::vector<std::uint64_t> ids;
    for (const std::string &app : apps) {
        JobSpec spec;
        spec.kind = JobKind::MissCurve;
        spec.apps = {app};
        spec.insts = insts;
        spec.tenant = "figures";
        ids.push_back(figures.submit(spec));
    }
    std::vector<MixResult> curves;
    for (const std::uint64_t id : ids)
        curves.push_back(figures.wait(id));

    std::printf("Figure 3 (via nuca_sweepd): L3 misses vs blocks "
                "per set, %llu instructions per app\n",
                static_cast<unsigned long long>(insts));
    std::printf("%-6s", "ways");
    for (const std::string &app : apps)
        std::printf(" %10s", app.c_str());
    std::printf("\n");
    for (std::size_t w = 0; w < 16; ++w) {
        std::printf("%-6zu", w + 1);
        for (const MixResult &curve : curves)
            std::printf(" %10.0f", w < curve.curve.size()
                                       ? curve.curve[w]
                                       : 0.0);
        std::printf("\n");
    }
}

void
figuresFig05(FigureSubmitter &figures)
{
    const SimWindow window = windowFromEnv(1000000, 2000000);
    const std::vector<std::string> apps = allProfileNames();
    std::vector<std::uint64_t> ids;
    for (const std::string &app : apps) {
        JobSpec spec;
        spec.scheme = "private";
        spec.apps = {app, "idle", "idle", "idle"};
        spec.seed = 12345;
        spec.warmupCycles = window.warmupCycles;
        spec.measureCycles = window.measureCycles;
        spec.tenant = "figures";
        ids.push_back(figures.submit(spec));
    }
    std::printf("\nFigure 5 (via nuca_sweepd): L3 access intensity "
                "(accesses per kilocycle, core 0)\n");
    std::printf("%-10s %10s %s\n", "app", "l3apk", "class");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const MixResult result = figures.wait(ids[a]);
        const double apk =
            result.l3AccessesPerKilocycle.empty()
                ? 0.0
                : result.l3AccessesPerKilocycle[0];
        std::printf("%-10s %10.2f %s\n", apps[a].c_str(), apk,
                    apk > 9.0 ? "intensive" : "light");
    }
}

void
figuresFig08(FigureSubmitter &figures)
{
    using namespace nuca::bench;
    const SimWindow window = windowFromEnv(3000000, 3000000);
    const unsigned num_mixes = mixCountFromEnv(16);
    const auto mixes =
        makeMixes(allProfileNames(), num_mixes, 4, 20070202);
    const std::vector<std::string> schemes = {"private", "shared",
                                              "adaptive"};

    std::vector<std::vector<std::uint64_t>> ids(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        for (const ExperimentSpec &mix : mixes) {
            JobSpec spec;
            spec.scheme = schemes[s];
            spec.apps = mix.apps;
            spec.seed = mix.seed;
            spec.warmupCycles = window.warmupCycles;
            spec.measureCycles = window.measureCycles;
            spec.tenant = "figures";
            ids[s].push_back(figures.submit(spec));
        }
    }
    std::vector<SchemeResults> results(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        results[s].label = schemes[s];
        for (const std::uint64_t id : ids[s])
            results[s].mixes.push_back(figures.wait(id));
    }

    const auto shared = perAppSpeedup(mixes, results[1], results[0]);
    const auto adaptive =
        perAppSpeedup(mixes, results[2], results[0]);
    std::printf("\nFigure 8 (via nuca_sweepd): per-application "
                "speedup vs private caches (%u mixes)\n",
                num_mixes);
    std::printf("%-10s %9s %10s\n", "app", "shared", "adaptive");
    for (const auto &[app, s] : adaptive) {
        std::printf("%-10s %8.3fx %9.3fx  %s\n", app.c_str(),
                    shared.count(app) ? shared.at(app) : 0.0, s,
                    bar(s).c_str());
    }
    std::printf("%-10s %8.3fx %9.3fx\n", "mean",
                meanOfMap(shared), meanOfMap(adaptive));
}

int
runFigures(const SweepClient &client, const std::string &which)
{
    if (which != "fig03" && which != "fig05" && which != "fig08" &&
        which != "all") {
        std::fprintf(stderr,
                     "unknown figure \"%s\" (want "
                     "fig03|fig05|fig08|all)\n",
                     which.c_str());
        return 2;
    }
    FigureSubmitter figures{client};
    if (which == "fig03" || which == "all")
        figuresFig03(figures);
    if (which == "fig05" || which == "all")
        figuresFig05(figures);
    if (which == "fig08" || which == "all")
        figuresFig08(figures);

    std::printf("\n%llu of %llu jobs served from the result "
                "cache\n",
                static_cast<unsigned long long>(figures.cacheHits),
                static_cast<unsigned long long>(figures.submitted));
    if (figures.submitted > 0 &&
        figures.cacheHits == figures.submitted)
        std::printf("all %llu jobs served from the result cache\n",
                    static_cast<unsigned long long>(
                        figures.submitted));
    std::printf("figures complete\n");
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: nuca_subctl [--socket PATH] <command> [args]\n"
        "commands: ping [--retry N] | submit [spec flags] | "
        "status [id] | result <id> [--wait] | preempt <id> | "
        "cancel <id> | drain | stats | shutdown | "
        "figures <fig03|fig05|fig08|all>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nuca;
    using namespace nuca::service;

    std::string socket = ".sweepd/sock";
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
            socket = argv[++i];
            continue;
        }
        args.emplace_back(argv[i]);
    }
    if (args.empty())
        return usage();

    const SweepClient client(socket);
    const std::string &cmd = args[0];
    try {
        if (cmd == "ping") {
            unsigned retries = 0;
            for (std::size_t i = 1; i < args.size(); ++i) {
                if (args[i] == "--retry" && i + 1 < args.size())
                    retries = static_cast<unsigned>(flagCount(
                        "nuca_subctl", "--retry", args[++i], UINT_MAX));
            }
            if (!client.ping(retries)) {
                std::fprintf(stderr, "no daemon at %s\n",
                             socket.c_str());
                return 1;
            }
            std::printf("pong\n");
            return 0;
        }
        if (cmd == "submit") {
            JobSpec spec;
            for (std::size_t i = 1; i < args.size(); ++i) {
                const std::string &flag = args[i];
                const auto value = [&]() -> std::string {
                    if (i + 1 >= args.size())
                        throw ClientError(flag + " needs a value");
                    return args[++i];
                };
                const auto count = [&] {
                    return flagCount("nuca_subctl", flag, value());
                };
                if (flag == "--kind") {
                    const std::string kind = value();
                    if (kind == "miss_curve")
                        spec.kind = JobKind::MissCurve;
                    else if (kind == "mix")
                        spec.kind = JobKind::Mix;
                    else
                        throw ClientError("unknown kind " + kind);
                } else if (flag == "--base") {
                    spec.base = value();
                } else if (flag == "--scheme") {
                    spec.scheme = value();
                } else if (flag == "--apps") {
                    spec.apps = splitCsv(value());
                } else if (flag == "--seed") {
                    spec.seed = count();
                } else if (flag == "--warmup") {
                    spec.warmupCycles = count();
                } else if (flag == "--measure") {
                    spec.measureCycles = count();
                } else if (flag == "--insts") {
                    spec.insts = count();
                } else if (flag == "--tenant") {
                    spec.tenant = value();
                } else if (flag == "--priority") {
                    spec.priority = static_cast<int>(std::strtol(
                        value().c_str(), nullptr, 10));
                } else if (flag == "--label") {
                    spec.label = value();
                } else {
                    throw ClientError("unknown submit flag " +
                                      flag);
                }
            }
            spec.validate();
            const json::Value resp = client.submit(spec);
            std::fprintf(stderr, "job %llu %s (key %s)\n",
                         static_cast<unsigned long long>(
                             resp.at("id").asNumber()),
                         resp.at("state").asString().c_str(),
                         resp.at("key").asString().c_str());
            std::printf("%llu\n",
                        static_cast<unsigned long long>(
                            resp.at("id").asNumber()));
            return 0;
        }
        if (cmd == "status") {
            json::Value req = json::Value::object();
            req.set("op", "status");
            if (args.size() > 1)
                req.set("id", flagCount("nuca_subctl", "id", args[1]));
            std::printf("%s\n", client.request(req).dump(2).c_str());
            return 0;
        }
        if (cmd == "result") {
            if (args.size() < 2)
                return usage();
            const std::uint64_t id =
                flagCount("nuca_subctl", "id", args[1]);
            const bool wait = args.size() > 2 &&
                              args[2] == "--wait";
            const json::Value resp =
                wait ? client.waitResult(id, waitBudgetMs())
                     : client.result(id);
            std::printf("%s\n", resp.dump(2).c_str());
            return 0;
        }
        if (cmd == "preempt" || cmd == "cancel") {
            if (args.size() < 2)
                return usage();
            const std::uint64_t id =
                flagCount("nuca_subctl", "id", args[1]);
            const json::Value resp = cmd == "preempt"
                                         ? client.preempt(id)
                                         : client.cancel(id);
            std::printf("%s\n", resp.dump(2).c_str());
            return 0;
        }
        if (cmd == "drain") {
            std::printf("%s\n", client.drain().dump(2).c_str());
            return 0;
        }
        if (cmd == "stats") {
            std::printf("%s\n", client.stats().dump(2).c_str());
            return 0;
        }
        if (cmd == "shutdown") {
            std::printf("%s\n", client.shutdown().dump(2).c_str());
            return 0;
        }
        if (cmd == "figures") {
            if (args.size() < 2)
                return usage();
            return runFigures(client, args[1]);
        }
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nuca_subctl: %s\n", e.what());
        return 1;
    }
}
