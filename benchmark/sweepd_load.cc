#include "sweepd_load.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>

#include "service/client.hh"
#include "service/job_spec.hh"
#include "sim/sweep_store.hh"
#include "sim_jobs.hh"

extern char **environ;

namespace nbench {

using namespace nuca;
using service::JobSpec;
using service::SweepClient;

namespace {

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1000.0;
}

/** A string member of a daemon response, or "" when absent. */
std::string
field(const json::Value &response, const char *key)
{
    if (response.type() != json::Value::Type::Object ||
        !response.contains(key) ||
        response.at(key).type() != json::Value::Type::String)
        return {};
    return response.at(key).asString();
}

double
number(const json::Value &response, const char *key)
{
    if (response.type() != json::Value::Type::Object ||
        !response.contains(key) ||
        response.at(key).type() != json::Value::Type::Number)
        throw std::runtime_error(std::string("daemon response lacks \"") +
                                 key + "\": " + response.dump());
    return response.at(key).asNumber();
}

/**
 * A nuca_sweepd child process on a fresh state directory. Paths are
 * relative to the working directory, which keeps the socket path
 * within sun_path's limit however deep the checkout is. The
 * destructor stops and reaps the process on every path out.
 */
class Daemon
{
  public:
    Daemon(const RunOptions &options, const std::string &state);
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Poll pings until one is answered; @return seconds from spawn. */
    double waitReady();

    const SweepClient &client() const { return client_; }

    /** Ask for a shutdown and reap the process (SIGKILL after 20 s).
     *  @return an error text, empty on a clean exit. */
    std::string stop();

  private:
    SweepClient client_;
    std::string log_;
    pid_t pid_ = -1;
    Clock::time_point spawned_;
};

Daemon::Daemon(const RunOptions &options, const std::string &state)
    : client_(state + "/sock"), log_(state + ".log")
{
    std::filesystem::remove_all(state);
    std::vector<std::string> args = {
        options.binDir + "/nuca_sweepd", "--state", state, "--workers",
        std::to_string(options.workers), "--quantum-ms", "0"};
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    spawned_ = Clock::now();
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot spawn " + args[0] + ": " +
                                 std::strerror(rc));
    }
}

double
Daemon::waitReady()
{
    while (!client_.ping()) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error(
                "nuca_sweepd exited during start-up (see " + log_ + ")");
        }
        if (secondsSince(spawned_) > 30.0)
            throw std::runtime_error(
                "nuca_sweepd answered no ping within 30 s");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return secondsSince(spawned_);
}

std::string
Daemon::stop()
{
    if (pid_ < 0)
        return {};
    try {
        client_.shutdown();
    } catch (const service::ClientError &) {
        // Already gone or wedged: the wait below settles which.
    }
    const auto t0 = Clock::now();
    int status = 0;
    std::string error;
    for (;;) {
        const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
        if (reaped == pid_)
            break;
        if (reaped < 0) {
            error = "lost track of nuca_sweepd";
            break;
        }
        if (secondsSince(t0) > 20.0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            error = "nuca_sweepd ignored shutdown and was killed";
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
        error = "nuca_sweepd exited with status " +
                std::to_string(status) + " (see " + log_ + ")";
    return error;
}

/** The daemon-side description of opJobs' sweepd job; base and
 *  scheme match its baseline adaptive configuration. */
JobSpec
specOf(const SimJob &job)
{
    JobSpec spec;
    spec.base = "baseline";
    spec.scheme = "adaptive";
    spec.apps = job.apps;
    spec.seed = job.seed;
    spec.warmupCycles = job.window.warmupCycles;
    spec.measureCycles = job.window.measureCycles;
    return spec;
}

/** The same simulation run in-process, encoded as the daemon
 *  encodes its results. */
std::string
directPayload(const SimJob &job)
{
    return mixResultToJson(
               runMix(job.config, ExperimentSpec{job.apps, job.seed},
                      job.window))
        .dump();
}

/** One executed job, from submit to the response carrying its
 *  result. */
struct Miss
{
    SimJob job;
    std::uint64_t id = 0;
    Clock::time_point sent;
    double latencyS = 0.0;
    double submitMs = 0.0;
    /** The result RPC that returned the payload. */
    double resultMs = 0.0;
    double queueMs = 0.0;
    std::string payload;
};

/**
 * Submit the jobs @p next yields (until it returns false), keeping at
 * most @p inflight of them in flight and polling each every 2 ms.
 * Settled jobs are appended to @p done; each one is an attempted
 * operation, failed unless it ended ok.
 */
void
runMisses(const SweepClient &client, std::size_t inflight,
          const std::function<bool(SimJob &)> &next,
          std::vector<Miss> &done, Report &report)
{
    std::vector<Miss> pending;
    bool more = true;
    for (;;) {
        while (more && pending.size() < inflight) {
            Miss miss;
            if (!next(miss.job)) {
                more = false;
                break;
            }
            miss.sent = Clock::now();
            const json::Value resp = client.submit(specOf(miss.job));
            miss.submitMs = msSince(miss.sent);
            if (field(resp, "state") != "queued") {
                report.attempt("miss for " + miss.job.label + " seed " +
                               std::to_string(miss.job.seed) +
                               " was answered " + field(resp, "state"));
                continue;
            }
            miss.id = static_cast<std::uint64_t>(number(resp, "id"));
            pending.push_back(std::move(miss));
        }
        if (pending.empty())
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (auto it = pending.begin(); it != pending.end();) {
            const auto t0 = Clock::now();
            const json::Value resp = client.result(it->id);
            const std::string state = field(resp, "state");
            if (state == "queued" || state == "running" ||
                state == "preempted") {
                ++it;
                continue;
            }
            if (state == "ok" && resp.contains("result")) {
                it->resultMs = msSince(t0);
                it->latencyS = secondsSince(it->sent);
                it->queueMs = number(resp, "queue_ms");
                it->payload = resp.at("result").dump();
                report.attempt();
                done.push_back(std::move(*it));
            } else {
                report.attempt("job " + std::to_string(it->id) +
                               " settled '" + state +
                               "': " + field(resp, "error"));
            }
            it = pending.erase(it);
        }
    }
}

/**
 * Resubmit a settled miss: it must settle cache_hit at submit and
 * its result must be the executed payload. @return the latency in
 * seconds, from sending the submit to holding the result.
 */
double
hitOnce(const SweepClient &client, const Miss &miss, Report &report,
        std::vector<double> *submit_ms, std::vector<double> *result_ms)
{
    const auto t0 = Clock::now();
    const json::Value resp = client.submit(specOf(miss.job));
    const double submitMs = msSince(t0);
    if (field(resp, "state") != "cache_hit") {
        report.attempt("resubmitted " + miss.job.label +
                       " was answered " + field(resp, "state") +
                       ", not cache_hit");
        return secondsSince(t0);
    }
    const auto t1 = Clock::now();
    const json::Value result =
        client.result(static_cast<std::uint64_t>(number(resp, "id")));
    const double resultMs = msSince(t1);
    const double latency = secondsSince(t0);
    const bool same = result.contains("result") &&
                      result.at("result").dump() == miss.payload;
    report.attempt(same ? std::string()
                        : "cache-hit payload of " + miss.job.label +
                              " differs from the executed one");
    if (submit_ms != nullptr) {
        submit_ms->push_back(submitMs);
        result_ms->push_back(resultMs);
    }
    return latency;
}

/** Distinct specs a session submits, and how many times it then
 *  resubmits all of them as cache hits. */
constexpr std::size_t kSessionMisses = 20;
constexpr std::size_t kSessionHitRounds = 10;

/** Sessions of a full run however slow the host. */
constexpr std::size_t kMinSessions = 3;

SimJob
sweepdJob(const RunOptions &options, std::size_t op)
{
    return opJobs("sweepd", opSeed(options.seed, op), options.smoke)
        .front();
}

} // namespace

void
runSweepdTimed(const RunOptions &o, Report &report)
{
    const std::size_t missCount = o.smoke ? o.workers : kSessionMisses;
    const std::size_t hitRounds = o.smoke ? 1 : kSessionHitRounds;
    // Latencies in ref units (referenceSeconds), each divided by the
    // mean of the reference loops timed before and after its phase,
    // and the same in seconds for the details.
    std::vector<double> setup, missRef, hitRef, kinst;
    std::vector<double> missS, hitS, refS;
    std::vector<Miss> first;
    const auto t0 = Clock::now();
    double lastSession = 0.0;
    for (std::size_t session = 0;; ++session) {
        const double elapsed = secondsSince(t0);
        if (o.smoke ? session == 1
                    : session >= kMinSessions &&
                          elapsed + lastSession > o.seconds)
            break;
        const std::string state = "sd" + std::to_string(session);
        Daemon daemon(o, state);
        setup.push_back(daemon.waitReady());

        // Distinct specs in a closed loop, workers of them in flight.
        const double ref0 = referenceSeconds(o.workers);
        const auto start = Clock::now();
        std::size_t k = 0;
        std::vector<Miss> misses;
        runMisses(
            daemon.client(), o.workers,
            [&](SimJob &job) {
                if (k == missCount)
                    return false;
                job = sweepdJob(o, session * missCount + k++);
                return true;
            },
            misses, report);
        const double makespan = secondsSince(start);
        if (misses.empty())
            throw std::runtime_error("no sweepd miss completed");
        const double ref1 = referenceSeconds(o.workers);

        // The same specs again, one at a time: every one a cache hit.
        std::vector<double> hits;
        for (std::size_t r = 0; r < hitRounds; ++r) {
            for (const auto &miss : misses) {
                hits.push_back(hitOnce(daemon.client(), miss, report,
                                       nullptr, nullptr));
            }
        }
        const double ref2 = referenceSeconds(o.workers);
        for (const double s : hits)
            hitRef.push_back(s / ((ref1 + ref2) / 2.0));
        hitS.insert(hitS.end(), hits.begin(), hits.end());
        refS.insert(refS.end(), {ref0, ref1, ref2});
        const json::Value stats = daemon.client().stats();
        report.attempt(daemon.stop());
        std::filesystem::remove_all(state);
        report.attempt(number(stats, "executed") ==
                               static_cast<double>(misses.size())
                           ? std::string()
                           : "the daemon executed " + stats.dump() +
                                 " jobs for " +
                                 std::to_string(misses.size()) +
                                 " misses");

        const double missUnit = (ref0 + ref1) / 2.0;
        double insts = 0.0;
        for (const auto &miss : misses) {
            missS.push_back(miss.latencyS);
            missRef.push_back(miss.latencyS / missUnit);
            insts += measuredInsts(
                mixResultFromJson(json::Value::parse(miss.payload)),
                miss.job.window.measureCycles);
        }
        kinst.push_back(insts / (makespan / missUnit) / 1e3);
        if (session == 0)
            first = std::move(misses);
        lastSession = secondsSince(t0) - elapsed;
    }
    report.metric("setup_s", median(setup), "s");

    for (std::size_t k = 0; k < std::min<std::size_t>(2, first.size());
         ++k) {
        report.attempt(directPayload(first[k].job) == first[k].payload
                           ? std::string()
                           : "executed payload of seed " +
                                 std::to_string(first[k].job.seed) +
                                 " differs from in-process runMix");
    }

    report.metric("wall_ref", mean(missRef), "ref");
    report.metric("warm_wall_ref", median(hitRef), "ref");
    report.metric("sim_kinst_per_ref", mean(kinst), "kinst/ref");
    report.detail("sessions", static_cast<std::uint64_t>(setup.size()));
    report.detail("miss_p50_s", median(missS));
    report.detail("miss_p75_s", quantile(missS, 0.75));
    report.detail("hit_p50_s", median(hitS));
    report.detail("hit_p95_s", quantile(hitS, 0.95));
    report.detail("setup_samples_s", samplesJson(setup));
    report.detail("wall_samples_s", samplesJson(missS));
    report.detail("ref_samples_s", samplesJson(refS));
    report.detail("kinst_per_ref_samples", samplesJson(kinst));
}

void
serviceProbe(const RunOptions &o, Report &report, Tracer &tracer)
{
    const std::size_t count = o.smoke ? 2 : 6;
    const std::size_t repeats = o.smoke ? 2 : 20;
    Tracer::Span probe(tracer, "service.probe");

    Daemon daemon(o, "sd-probe");
    {
        Tracer::Span span(tracer, "service.spawn");
        daemon.waitReady();
    }
    // One burst of misses, more than the workers, so the queue is
    // exercised too.
    std::vector<Miss> misses;
    {
        Tracer::Span span(tracer, "service.misses");
        std::size_t k = 0;
        runMisses(
            daemon.client(), count,
            [&](SimJob &job) {
                if (k == count)
                    return false;
                job = sweepdJob(o, k++);
                return true;
            },
            misses, report);
    }
    std::vector<double> submitMs, resultMs;
    for (const auto &miss : misses) {
        submitMs.push_back(miss.submitMs);
        resultMs.push_back(miss.resultMs);
    }
    std::size_t hits = 0;
    {
        Tracer::Span span(tracer, "service.hits");
        for (std::size_t r = 0; r < repeats; ++r) {
            for (const auto &miss : misses) {
                hitOnce(daemon.client(), miss, report, &submitMs,
                        &resultMs);
                ++hits;
            }
        }
    }
    const json::Value stats = daemon.client().stats();
    {
        Tracer::Span span(tracer, "service.shutdown");
        report.attempt(daemon.stop());
    }

    std::vector<double> directMs, queueMs, overheadMs;
    {
        Tracer::Span span(tracer, "service.direct_runs");
        for (const auto &miss : misses) {
            const auto t0 = Clock::now();
            const std::string payload = directPayload(miss.job);
            const double ms = msSince(t0);
            report.attempt(payload == miss.payload
                               ? std::string()
                               : "executed payload of seed " +
                                     std::to_string(miss.job.seed) +
                                     " differs from in-process runMix");
            directMs.push_back(ms);
            queueMs.push_back(miss.queueMs);
            overheadMs.push_back(miss.latencyS * 1000.0 - miss.queueMs -
                                 ms);
        }
    }
    report.metric("service.submit_rpc_ms_p50", median(submitMs), "ms");
    report.metric("service.result_rpc_ms_p50", median(resultMs), "ms");
    report.metric("service.queue_ms_p50", median(queueMs), "ms");
    report.metric("service.direct_run_ms_p50", median(directMs), "ms");
    report.metric("service.overhead_ms_p50", median(overheadMs), "ms");
    report.metric("service.executed_jobs", number(stats, "executed"),
                  "count");
    report.metric("service.cache_hits", static_cast<double>(hits),
                  "count");
}

} // namespace nbench
