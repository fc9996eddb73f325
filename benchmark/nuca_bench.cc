/**
 * @file
 * nuca_bench: one run of one benchmark workload (benchmark/README.md).
 *
 *   nuca_bench WORKLOAD [--seed N] [--seconds S] [--trace] [--smoke]
 *
 * Without --trace it runs the workload's timed pass for about S
 * seconds and reports the end-to-end metrics; with --trace it runs
 * the traced pass instead and reports the per-layer metrics. Every
 * file the run needs (checkpoint caches, daemon state, the trace) is
 * created in the working directory, and so is the result document,
 * <workload>.result.json.
 *
 * Exit status: 0 when every operation succeeded and every output
 * checked out, 1 otherwise, 2 on bad usage or an unsuitable build.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "layers.hh"
#include "sim_jobs.hh"
#include "sweepd_load.hh"

namespace nbench {
namespace {

using namespace nuca;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/** Ops of a full run however slow the host: fewer give no median. */
constexpr std::size_t kMinOps = 5;

/** Set-ups timed before every op. */
constexpr std::size_t kSetupReps = 5;

/**
 * The timed pass of the simulation workloads: pairs of a cold op
 * (empty checkpoint cache, which it fills) and a warm op (the same
 * inputs again, warm-ups restored), each pair on its own op seed,
 * until the next pair would overrun the run length. Each op's time is
 * divided by the mean of the reference loops timed right before and
 * right after it (referenceSeconds).
 */
void
runSimTimed(const RunOptions &o, Report &r)
{
    std::vector<double> setup, cold, warm, kinst;
    std::vector<double> coldS, warmS, refS;
    // figure_sweep's op keeps the worker threads busy, the others one.
    const unsigned refThreads = o.workload == "figure_sweep" ? o.workers : 1;
    const auto t0 = Clock::now();
    double lastPair = 0.0;
    for (std::size_t op = 0;; ++op) {
        const double elapsed = secondsSince(t0);
        if (o.smoke ? op == 1
                    : op >= kMinOps && elapsed + lastPair > o.seconds)
            break;
        const std::uint64_t seed = opSeed(o.seed, op);
        // Set-up: the op's inputs and machines up to their first
        // cycle. It takes about a millisecond, so it is timed several
        // times before every op, and its median spans the run like
        // the other metrics'.
        for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
            const auto s0 = Clock::now();
            std::vector<std::unique_ptr<CmpSystem>> systems;
            for (const auto &job : opJobs(o.workload, seed, o.smoke))
                systems.push_back(buildSystem(job));
            setup.push_back(secondsSince(s0));
        }
        CheckpointConfig cache;
        cache.dir = "ckpt-op" + std::to_string(op);
        std::filesystem::remove_all(cache.dir);
        std::filesystem::create_directories(cache.dir);
        const double ref0 = referenceSeconds(refThreads);
        const OpRun c = runOp(o, seed, cache);
        const double ref1 = referenceSeconds(refThreads);
        const OpRun w = runOp(o, seed, cache);
        const double ref2 = referenceSeconds(refThreads);
        std::filesystem::remove_all(cache.dir);

        r.attempt();
        r.attempt(w.digest != c.digest
                      ? "op " + std::to_string(op) +
                            ": the warm op's results differ from the "
                            "cold op's"
                  : !w.restored ? "op " + std::to_string(op) +
                                      ": the warm op missed the "
                                      "checkpoint cache"
                                : std::string());
        if (op == 0)
            r.detail("op0_digest", hex16(c.digest));
        const double coldRef = c.wallS / ((ref0 + ref1) / 2.0);
        cold.push_back(coldRef);
        warm.push_back(w.wallS / ((ref1 + ref2) / 2.0));
        kinst.push_back(c.insts / coldRef / 1e3);
        coldS.push_back(c.wallS);
        warmS.push_back(w.wallS);
        refS.insert(refS.end(), {ref0, ref1, ref2});
        lastPair = secondsSince(t0) - elapsed;
    }
    // Means, not medians: op times on a shared host fall into a fast
    // and a slow mode, and a median jumps between them.
    r.metric("setup_s", median(setup), "s");
    r.metric("wall_ref", mean(cold), "ref");
    r.metric("warm_wall_ref", mean(warm), "ref");
    r.metric("sim_kinst_per_ref", mean(kinst), "kinst/ref");
    r.detail("setup_samples_s", samplesJson(setup));
    r.detail("wall_samples_s", samplesJson(coldS));
    r.detail("warm_wall_samples_s", samplesJson(warmS));
    r.detail("ref_samples_s", samplesJson(refS));
}

/** Peak resident set of this process and every reaped child. */
double
peakRssMb()
{
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

std::string
ownDirectory()
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(".") : exe.parent_path().string();
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: nuca_bench WORKLOAD [--seed N] [--seconds S] "
                 "[--trace] [--smoke]\n"
                 "workloads:");
    for (const auto &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace
} // namespace nbench

int
main(int argc, char **argv)
{
    using namespace nbench;
    using nuca::json::Value;

    RunOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            o.trace = true;
        else if (arg == "--smoke")
            o.smoke = true;
        else if (o.workload.empty() && arg[0] != '-')
            o.workload = arg;
        else
            usage();
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end() ||
        !(o.seconds > 0.0))
        usage();

    const std::string buildType = NUCA_BENCH_BUILD_TYPE;
    if (buildType != "Release" || kSanitized) {
        std::fprintf(stderr,
                     "nuca_bench: refusing to measure a %s%s build; "
                     "configure benchmark/ with "
                     "-DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                     buildType.c_str(), kSanitized ? " sanitizer" : "");
        return 2;
    }
    o.workers = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    o.binDir = ownDirectory();

    Report report;
    try {
        if (o.trace)
            runTracedPass(o, report);
        else if (o.workload == "sweepd")
            runSweepdTimed(o, report);
        else
            runSimTimed(o, report);
    } catch (const std::exception &e) {
        report.attempt(o.workload + ": " + e.what());
    }
    if (!o.trace)
        report.metric("peak_rss_mb", peakRssMb(), "MiB");

    Value doc = report.toJson();
    doc.set("workload", o.workload);
    doc.set("seed", std::to_string(o.seed));
    doc.set("seconds", o.seconds);
    doc.set("trace", o.trace);
    doc.set("smoke", o.smoke);
    doc.set("workers", static_cast<std::uint64_t>(o.workers));
    doc.set("build", Value::object()
                         .set("type", buildType)
                         .set("compiler", __VERSION__)
                         .set("sanitized", kSanitized));
    nuca::json::writeFileAtomic(o.workload + ".result.json", doc);
    return report.correct() ? 0 : 1;
}
