#include "service/sweepd.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "sim/checkpoint.hh"
#include "sim/parallel_runner.hh"
#include "sim/robustness.hh"
#include "workload/miss_curve.hh"
#include "workload/spec_profiles.hh"

#if defined(__unix__) || defined(__APPLE__)
#define NUCA_SERVICE_HAVE_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define NUCA_SERVICE_HAVE_SOCKETS 0
#endif

namespace nuca {
namespace service {

namespace {

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
msSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

json::Value
errorResponse(const std::string &message)
{
    json::Value resp = json::Value::object();
    resp.set("ok", false);
    resp.set("error", message);
    return resp;
}

/**
 * The "id" of a status/result/preempt/cancel request. Only a
 * non-negative integral number names a job; anything else throws,
 * and handle() answers {ok: false, error}.
 */
std::uint64_t
requestId(const json::Value &request, const std::string &op)
{
    if (request.contains("id")) {
        if (const auto id = request.at("id").asCount())
            return *id;
    }
    throw SimulationError(op + " needs a non-negative integer \"id\"");
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/** Runnable: queued, or preempted and waiting to resume. */
bool
waiting(JobStatus state)
{
    return state == JobStatus::Queued || state == JobStatus::Preempted;
}

} // namespace

SweepDaemon::SweepDaemon(DaemonOptions options)
    : opts_(std::move(options)), cache_(opts_.stateDir + "/results")
{
    std::error_code ec;
    std::filesystem::create_directories(opts_.stateDir, ec);
    if (ec)
        throw SimulationError("cannot create state dir " +
                              opts_.stateDir + ": " + ec.message());
    opts_.isolation.enabled =
        opts_.isolation.enabled && procIsolationSupported();
    opts_.isolation.preemptible = true;
    journal_ = std::make_unique<SweepStore>(
        opts_.stateDir + "/jobs.jsonl", opts_.sync);
}

SweepDaemon::~SweepDaemon()
{
    requestStop();
    join();
}

void
SweepDaemon::journal(const Job &job)
{
    SweepRecord record;
    record.label = "job" + std::to_string(job.id) + ":" +
                   job.spec.displayLabel();
    record.status = job.state;
    record.error = job.error;
    if (job.state == JobStatus::Ok ||
        job.state == JobStatus::CacheHit)
        record.result = job.result;
    record.queueMs = job.queueMs;
    record.preempts = job.preempts;
    record.timed = true;
    journal_->append(record);
}

Job *
SweepDaemon::findJob(std::uint64_t id)
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second;
}

MixResult
SweepDaemon::execute(const JobSpec &spec, ProcJobHandle *handle)
{
    RunPolicy policy;
    policy.ckpt.dir = opts_.stateDir + "/ckpt";
    policy.ckpt.period = opts_.preemptPeriod;
    policy.ckpt.maxMb = opts_.ckptMaxMb;
    policy.resume = true;
    policy.preempt = &handle->preempt;
    policy.robust = opts_.robust;
    policy.telemetry = opts_.telemetry;

    const auto body = [spec, policy]() -> MixResult {
        if (spec.kind == JobKind::MissCurve) {
            const WorkloadProfile *profile =
                findProfile(spec.apps.at(0));
            if (profile == nullptr)
                throw SpecError("unknown application \"" +
                                spec.apps.at(0) + "\"");
            MissCurveParams params;
            params.insts = spec.insts;
            const std::vector<Counter> counts =
                l3MissCurve(*profile, params);
            MixResult result;
            result.curve.assign(counts.begin(), counts.end());
            return result;
        }
        const ExperimentSpec mix{spec.apps, spec.seed};
        const SimWindow window{spec.warmupCycles,
                               spec.measureCycles};
        return runMix(spec.config(), mix, window,
                      spec.displayLabel(), policy);
    };

    return runMixSandboxed(opts_.isolation, body, handle);
}

void
SweepDaemon::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        // Fair-share pick among everything runnable; with nothing
        // runnable, sleep until a submit, requeue or stop notifies.
        std::vector<SchedJob> runnable;
        std::vector<std::uint64_t> ids;
        for (const auto &[id, job] : jobs_) {
            if (waiting(job.state)) {
                runnable.push_back(
                    {id, job.spec.tenant, job.spec.priority});
                ids.push_back(id);
            }
        }
        const std::size_t pick =
            pickNextIndex(runnable, tenantService_);
        if (pick == kNone) {
            cv_.wait(lock);
            continue;
        }

        Job &job = jobs_.at(ids[pick]);
        job.queueMs += msSince(job.enqueuedAt);
        job.state = JobStatus::Running;
        job.startedAt = std::chrono::steady_clock::now();
        job.handle = std::make_shared<ProcJobHandle>();
        const auto handle = job.handle;
        const JobSpec spec = job.spec;
        const std::uint64_t id = job.id;
        const std::uint64_t key = job.key;
        ++busyWorkers_;
        ++executed_;
        lock.unlock();

        // One attempt, no retry: re-running is the scheduler's call
        // (a preempted job requeues), so the default policy applies.
        const auto attempt = [&](const JobSpec &s) {
            return execute(s, handle.get());
        };
        const JobOutcome<MixResult> outcome =
            parallel_detail::settleJob<MixResult>(spec, id, attempt,
                                                  SweepPolicy{});

        lock.lock();
        Job &settled = jobs_.at(id);
        tenantService_[spec.tenant] += msSince(settled.startedAt);
        --busyWorkers_;
        settled.handle.reset();
        settled.state = outcome.status;
        settled.error = outcome.error;
        if (outcome.ok()) {
            settled.result = outcome.value;
            if (!opts_.robust.fault.isSimFault())
                cache_.put(key, spec, outcome.value);
        } else if (outcome.status == JobStatus::Preempted) {
            if (settled.cancelRequested) {
                settled.state = JobStatus::Cancelled;
                settled.error = "cancelled";
            } else {
                // Requeue with the snapshot it just saved; the next
                // attempt resumes from it (even after a daemon
                // restart, since the snapshot is content-addressed
                // on disk).
                ++settled.preempts;
                settled.enqueuedAt = std::chrono::steady_clock::now();
            }
        }
        journal(settled);
        cv_.notify_all();
    }
}

void
SweepDaemon::preempterLoop()
{
    const std::uint64_t quantum = opts_.quantumMs;
    if (quantum == 0)
        return;
    const auto tick =
        std::chrono::milliseconds(std::min<std::uint64_t>(
            quantum, 200));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_.wait_for(lock, tick);
        if (stop_)
            return;
        if (busyWorkers_ < opts_.workers)
            continue; // a free worker will drain the queue itself

        std::vector<SchedJob> waiting_jobs;
        for (const auto &[id, job] : jobs_) {
            if (waiting(job.state))
                waiting_jobs.push_back(
                    {id, job.spec.tenant, job.spec.priority});
        }
        // Charge running jobs' in-flight time to their tenants
        // before comparing: otherwise a fresh hog (zero settled
        // service) could never be preempted for a fresh waiter.
        TenantService charged = tenantService_;
        for (const auto &[id, job] : jobs_) {
            if (job.state == JobStatus::Running)
                charged[job.spec.tenant] += msSince(job.startedAt);
        }
        const std::size_t next =
            pickNextIndex(waiting_jobs, charged);
        if (next == kNone)
            continue;

        std::vector<SchedJob> running;
        std::vector<std::uint64_t> ids;
        for (const auto &[id, job] : jobs_) {
            if (job.state == JobStatus::Running && job.handle &&
                msSince(job.startedAt) >= quantum) {
                running.push_back(
                    {id, job.spec.tenant, job.spec.priority});
                ids.push_back(id);
            }
        }
        const std::size_t victim = pickPreemptVictim(
            running, waiting_jobs[next], charged);
        if (victim != kNone)
            jobs_.at(ids[victim]).handle->requestPreempt();
    }
}

json::Value
SweepDaemon::opSubmit(const json::Value &request)
{
    if (!request.contains("spec"))
        return errorResponse("submit needs a \"spec\" object");
    const JobSpec spec = JobSpec::fromJson(request.at("spec"));
    const std::uint64_t key = spec.resultKey();

    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || draining_)
        return errorResponse("daemon is draining");

    Job job;
    job.id = nextId_++;
    job.spec = spec;
    job.key = key;

    if (auto cached = cache_.get(key)) {
        job.state = JobStatus::CacheHit;
        job.result = std::move(*cached);
    } else {
        job.state = JobStatus::Queued;
        job.enqueuedAt = std::chrono::steady_clock::now();
    }

    json::Value resp = json::Value::object();
    resp.set("ok", true);
    resp.set("id", job.id);
    resp.set("state", to_string(job.state));
    resp.set("key", hex16(key));
    resp.set("label", spec.displayLabel());

    const bool hit = job.state == JobStatus::CacheHit;
    const Job &stored =
        jobs_.emplace(job.id, std::move(job)).first->second;
    if (hit)
        journal(stored);
    else
        cv_.notify_all();
    return resp;
}

json::Value
SweepDaemon::opStatus(const json::Value &request)
{
    const bool filtered = request.contains("id");
    const std::uint64_t only =
        filtered ? requestId(request, "status") : 0;

    std::lock_guard<std::mutex> lock(mutex_);
    json::Value list = json::Value::array();
    std::uint64_t queued = 0, running = 0;
    for (const auto &[id, job] : jobs_) {
        if (filtered && id != only)
            continue;
        json::Value info = json::Value::object();
        info.set("id", id);
        info.set("label", job.spec.displayLabel());
        info.set("tenant", job.spec.tenant);
        info.set("priority", job.spec.priority);
        info.set("state", to_string(job.state));
        info.set("preempts", job.preempts);
        info.set("queue_ms", job.queueMs);
        if (!job.error.empty())
            info.set("error", job.error);
        list.append(std::move(info));
        if (waiting(job.state))
            ++queued;
        if (job.state == JobStatus::Running)
            ++running;
    }
    json::Value resp = json::Value::object();
    resp.set("ok", true);
    resp.set("jobs", std::move(list));
    resp.set("queued", queued);
    resp.set("running", running);
    resp.set("draining", draining_);
    return resp;
}

json::Value
SweepDaemon::opResult(const json::Value &request)
{
    const std::uint64_t id = requestId(request, "result");

    std::lock_guard<std::mutex> lock(mutex_);
    const Job *job = findJob(id);
    if (job == nullptr)
        return errorResponse("no such job " + std::to_string(id));

    json::Value resp = json::Value::object();
    resp.set("state", to_string(job->state));
    resp.set("preempts", job->preempts);
    resp.set("queue_ms", job->queueMs);
    if (job->state == JobStatus::Ok ||
        job->state == JobStatus::CacheHit) {
        resp.set("ok", true);
        resp.set("result", mixResultToJson(job->result));
    } else if (isTerminal(job->state)) {
        resp.set("ok", false);
        resp.set("error", job->error.empty()
                              ? std::string(to_string(job->state))
                              : job->error);
    } else {
        resp.set("ok", true); // not done yet: poll again
    }
    return resp;
}

json::Value
SweepDaemon::opPreempt(const json::Value &request)
{
    const std::uint64_t id = requestId(request, "preempt");

    std::lock_guard<std::mutex> lock(mutex_);
    Job *job = findJob(id);
    if (job == nullptr)
        return errorResponse("no such job " + std::to_string(id));
    if (job->state != JobStatus::Running || !job->handle)
        return errorResponse("job " + std::to_string(id) +
                             " is not running (" +
                             to_string(job->state) + ")");
    job->handle->requestPreempt();
    json::Value resp = json::Value::object();
    resp.set("ok", true);
    resp.set("state", to_string(job->state));
    return resp;
}

json::Value
SweepDaemon::opCancel(const json::Value &request)
{
    const std::uint64_t id = requestId(request, "cancel");

    std::lock_guard<std::mutex> lock(mutex_);
    Job *job = findJob(id);
    if (job == nullptr)
        return errorResponse("no such job " + std::to_string(id));
    if (isTerminal(job->state))
        return errorResponse("job already " +
                             std::string(to_string(job->state)));
    job->cancelRequested = true;
    if (job->state == JobStatus::Running && job->handle) {
        job->handle->requestPreempt(); // settles cancelled at the
                                       // next snapshot boundary
    } else {
        job->state = JobStatus::Cancelled;
        job->error = "cancelled";
        journal(*job);
    }
    json::Value resp = json::Value::object();
    resp.set("ok", true);
    resp.set("state", to_string(job->state));
    return resp;
}

json::Value
SweepDaemon::opDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    std::uint64_t pending = 0;
    for (const auto &[id, job] : jobs_) {
        if (!isTerminal(job.state))
            ++pending;
    }
    json::Value resp = json::Value::object();
    resp.set("ok", true);
    resp.set("pending", pending);
    return resp;
}

json::Value
SweepDaemon::opStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value tenants = json::Value::object();
    for (const auto &[tenant, ms] : tenantService_)
        tenants.set(tenant, ms);
    json::Value resp = json::Value::object();
    resp.set("ok", true);
    resp.set("jobs", static_cast<std::uint64_t>(jobs_.size()));
    resp.set("executed", executed_);
    resp.set("cache_entries",
             static_cast<std::uint64_t>(cache_.count()));
    resp.set("tenant_service_ms", std::move(tenants));
    resp.set("workers", static_cast<std::uint64_t>(opts_.workers));
    return resp;
}

json::Value
SweepDaemon::handle(const json::Value &request)
{
    try {
        if (request.type() != json::Value::Type::Object ||
            !request.contains("op") ||
            request.at("op").type() != json::Value::Type::String)
            return errorResponse(
                "request must be an object with an \"op\" string");
        const std::string &op = request.at("op").asString();

        if (op == "ping") {
            json::Value resp = json::Value::object();
            resp.set("ok", true);
            resp.set("pong", true);
            resp.set("now_ms", nowMs());
            return resp;
        }
        if (op == "submit")
            return opSubmit(request);
        if (op == "status")
            return opStatus(request);
        if (op == "result")
            return opResult(request);
        if (op == "preempt")
            return opPreempt(request);
        if (op == "cancel")
            return opCancel(request);
        if (op == "drain")
            return opDrain();
        if (op == "stats")
            return opStats();
        if (op == "shutdown") {
            requestStop();
            json::Value resp = json::Value::object();
            resp.set("ok", true);
            resp.set("stopping", true);
            return resp;
        }
        return errorResponse("unknown op \"" + op + "\"");
    } catch (const std::exception &e) {
        return errorResponse(e.what());
    }
}

void
SweepDaemon::requestStop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_)
        return;
    stop_ = true;
    draining_ = true;
    // Running jobs yield at their next snapshot; the requeued state
    // plus the on-disk snapshot make them resumable.
    for (auto &[id, job] : jobs_) {
        if (job.state == JobStatus::Running && job.handle)
            job.handle->requestPreempt();
    }
    cv_.notify_all();
}

bool
SweepDaemon::stopRequested() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_;
}

std::uint64_t
SweepDaemon::executedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

void
SweepDaemon::join()
{
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
    if (preempter_.joinable())
        preempter_.join();
    if (accepter_.joinable())
        accepter_.join();
#if NUCA_SERVICE_HAVE_SOCKETS
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(opts_.socketPath.c_str());
    }
#endif
}

#if NUCA_SERVICE_HAVE_SOCKETS

void
SweepDaemon::start()
{
    if (!opts_.socketPath.empty()) {
        sockaddr_un addr{};
        if (opts_.socketPath.size() >= sizeof(addr.sun_path))
            throw SimulationError("socket path too long: " +
                                  opts_.socketPath);
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            throw SimulationError("socket() failed");
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      opts_.socketPath.c_str());
        ::unlink(opts_.socketPath.c_str());
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd_, 16) != 0) {
            ::close(listenFd_);
            listenFd_ = -1;
            throw SimulationError("cannot listen on " +
                                  opts_.socketPath);
        }
        accepter_ = std::thread([this] { acceptLoop(); });
    }
    for (unsigned i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    preempter_ = std::thread([this] { preempterLoop(); });
}

void
SweepDaemon::acceptLoop()
{
    while (!stopRequested()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // A wedged client may stall reads but not wedge the daemon
        // forever.
        timeval timeout{};
        timeout.tv_sec = 5;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));

        std::string buffer;
        char chunk[4096];
        bool open = true;
        while (open && !stopRequested()) {
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t eol;
            while ((eol = buffer.find('\n')) !=
                   std::string::npos) {
                const std::string line = buffer.substr(0, eol);
                buffer.erase(0, eol + 1);
                if (line.empty())
                    continue;
                const auto request = json::Value::tryParse(line);
                const json::Value response =
                    request ? handle(*request)
                            : errorResponse("request line is not "
                                            "valid JSON");
                const std::string out = response.dump() + "\n";
                std::size_t sent = 0;
                while (sent < out.size()) {
                    const ssize_t w = ::write(
                        fd, out.data() + sent, out.size() - sent);
                    if (w <= 0) {
                        open = false;
                        break;
                    }
                    sent += static_cast<std::size_t>(w);
                }
                if (!open)
                    break;
            }
        }
        ::close(fd);
    }
}

#else // !NUCA_SERVICE_HAVE_SOCKETS

void
SweepDaemon::start()
{
    if (!opts_.socketPath.empty())
        throw SimulationError(
            "Unix-domain sockets are unavailable on this platform; "
            "run with an empty socket path");
    for (unsigned i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    preempter_ = std::thread([this] { preempterLoop(); });
}

void
SweepDaemon::acceptLoop()
{
}

#endif // NUCA_SERVICE_HAVE_SOCKETS

} // namespace service
} // namespace nuca
