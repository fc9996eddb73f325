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
 *   figures <name|all>      run a figure of the bench registry
 *                           (tab_storage_cost, fig03 ...
 *                           ext_core_scaling; see bench/figures.hh)
 *                           through the daemon, printing nuca_figures'
 *                           report; rerunning hits the result cache
 *
 * Spec flags for submit: --kind mix|miss_curve, --base, --scheme,
 * --apps a,b,c,d, --seed, --warmup, --measure, --insts, --tenant,
 * --priority, --label.
 */

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "figures.hh"
#include "service/client.hh"
#include "sim/env_config.hh"
#include "sim/sweep_store.hh"

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

/** --priority by JobSpec's rule, an integer within int; anything
 *  else exits 2 naming the flag, like the count flags. */
int
priorityFlag(const std::string &text)
{
    int value = 0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last) {
        std::fprintf(stderr,
                     "nuca_subctl: --priority must be an int: '%s'\n",
                     text.c_str());
        std::exit(2);
    }
    return value;
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

/** Submit a registry figure's job list, wait for every result and
 *  print it through nuca_figures' reporter. */
void
runFigure(FigureSubmitter &submitter, const bench::Figure &figure)
{
    const bench::FigureEnv env =
        bench::figureEnvFromEnv(figure.window, figure.mixes);
    const auto jobs = figure.jobs(env);
    std::vector<std::uint64_t> ids;
    for (bench::SweepJob job : jobs) {
        job.spec.tenant = "figures";
        ids.push_back(submitter.submit(job.spec));
    }
    std::vector<JobOutcome<MixResult>> outcomes(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        outcomes[i].value = submitter.wait(ids[i]);
    bench::reportFigure(figure, env, jobs, std::move(outcomes));
}

int
runFigures(const SweepClient &client, const std::string &which)
{
    const bool all = which == "all";
    const bench::Figure *figure = bench::findFigure(which);
    if (!all && figure == nullptr) {
        std::fprintf(stderr, "unknown figure \"%s\" (want %s|all)\n",
                     which.c_str(), bench::figureNames().c_str());
        return 2;
    }
    FigureSubmitter submitter{client};
    if (all) {
        for (const bench::Figure &f : bench::figures())
            runFigure(submitter, f);
    } else {
        runFigure(submitter, *figure);
    }

    std::printf("\n%llu of %llu jobs served from the result "
                "cache\n",
                static_cast<unsigned long long>(submitter.cacheHits),
                static_cast<unsigned long long>(submitter.submitted));
    if (submitter.submitted > 0 &&
        submitter.cacheHits == submitter.submitted)
        std::printf("all %llu jobs served from the result cache\n",
                    static_cast<unsigned long long>(
                        submitter.submitted));
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
        "figures <name|all>\n");
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
                    spec.priority = priorityFlag(value());
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
