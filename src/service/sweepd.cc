#include "service/sweepd.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "base/cpu_budget.hh"
#include "service/job_runner.hh"
#include "sim/checkpoint.hh"
#include "sim/parallel_runner.hh"
#include "sim/robustness.hh"

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

/** Longest request line the daemon buffers before refusing it. */
constexpr std::size_t kMaxRequestLine = std::size_t(1) << 20;

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
    : opts_(std::move(options))
{
    std::error_code ec;
    std::filesystem::create_directories(opts_.stateDir, ec);
    if (ec)
        throw SimulationError("cannot create state dir " +
                              opts_.stateDir + ": " + ec.message());
    opts_.isolation.preemptible = true;
    const std::string journalPath = opts_.stateDir + "/jobs.jsonl";
    // Replay the journal into the result index, one record at a
    // time. Only ok records carry a payload: a cache hit's record
    // carries none, and its key's ok record comes before it. A
    // record without a key (run under a planted fault) is never
    // served; load() has already skipped torn, mistyped and outdated
    // lines.
    SweepStore::load(journalPath, [this](SweepRecord &&record) {
        if (!record.key || record.status != JobStatus::Ok)
            return;
        const auto [slot, fresh] = settled_.try_emplace(*record.key);
        if (fresh)
            slot->second = encodeMixResult(record.result);
    });
    journal_ = std::make_unique<SweepStore>(journalPath, opts_.sync);
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
    // A planted simulator fault's result is not the key's result:
    // without a key the record is never served from the cache.
    if (!opts_.robust.fault.isSimFault())
        record.key = job.key;
    record.status = job.state;
    record.error = job.error;
    record.queueMs = job.queueMs;
    record.preempts = job.preempts;
    record.timed = true;
    // Only an ok record carries the payload: the index serves a
    // cache hit from its key's ok record, so a hit's line stays
    // small however often the key is submitted.
    static const std::string noResult = encodeMixResult({});
    journal_->append(record,
                     job.state == JobStatus::Ok ? job.payload : noResult);
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
    JobRequest request;
    request.spec = spec;
    RunPolicy &policy = request.policy;
    policy.ckpt.dir = opts_.stateDir + "/ckpt";
    policy.ckpt.period = opts_.preemptPeriod;
    policy.ckpt.maxMb = opts_.ckptMaxMb;
    policy.resume = true;
    policy.robust = opts_.robust;
    policy.telemetry = opts_.telemetry;
    return runJobAttempt(opts_.isolation, request, handle);
}

std::optional<std::size_t>
SweepDaemon::claimJob()
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
            const cpu_budget::Idle idle;
            cv_.wait(lock);
            continue;
        }

        Job &job = jobs_.at(ids[pick]);
        job.queueMs += msSince(job.enqueuedAt);
        job.state = JobStatus::Running;
        job.startedAt = std::chrono::steady_clock::now();
        job.handle = std::make_shared<ProcJobHandle>();
        ++busyWorkers_;
        ++executed_;
        return job.id;
    }
    return std::nullopt;
}

void
SweepDaemon::runJob(std::uint64_t id, int track)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const Job &claimed = jobs_.at(id);
    const std::shared_ptr<ProcJobHandle> handle = claimed.handle;
    const JobSpec spec = claimed.spec;
    const std::uint64_t key = claimed.key;
    lock.unlock();

    // One attempt: re-running is the scheduler's call (a preempted
    // job requeues).
    const JobOutcome<MixResult> outcome = settleJob<MixResult>(
        id, track, [&] { return execute(spec, handle.get()); });

    lock.lock();
    Job &settled = jobs_.at(id);
    tenantService_[spec.tenant] += msSince(settled.startedAt);
    --busyWorkers_;
    settled.handle.reset();
    settled.state = outcome.status;
    settled.error = outcome.error;
    if (outcome.ok()) {
        settled.payload = encodeMixResult(outcome.value);
        if (!opts_.robust.fault.isSimFault())
            settled_.try_emplace(key, settled.payload);
    } else if (outcome.status == JobStatus::Preempted) {
        if (settled.cancelRequested) {
            settled.state = JobStatus::Cancelled;
            settled.error = "cancelled";
        } else {
            // Requeue with the snapshot it just saved; the next
            // attempt resumes from it (even after a daemon restart,
            // since the snapshot is content-addressed on disk).
            ++settled.preempts;
            settled.enqueuedAt = std::chrono::steady_clock::now();
        }
    }
    journal(settled);
    cv_.notify_all();
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

    if (const auto hit = settled_.find(key); hit != settled_.end()) {
        job.state = JobStatus::CacheHit;
        job.payload = hit->second;
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

std::string
SweepDaemon::opResult(const json::Value &request)
{
    const std::uint64_t id = requestId(request, "result");

    std::lock_guard<std::mutex> lock(mutex_);
    const Job *job = findJob(id);
    if (job == nullptr)
        return errorResponse("no such job " + std::to_string(id)).dump();

    std::string text;
    json::Writer resp(text);
    resp.beginObject();
    resp.key("state");
    resp.string(to_string(job->state));
    resp.key("preempts");
    resp.number(static_cast<double>(job->preempts));
    resp.key("queue_ms");
    resp.number(static_cast<double>(job->queueMs));
    resp.key("ok");
    if (job->state == JobStatus::Ok ||
        job->state == JobStatus::CacheHit) {
        resp.boolean(true);
        resp.key("result");
        resp.raw(job->payload);
    } else if (isTerminal(job->state)) {
        resp.boolean(false);
        resp.key("error");
        resp.string(job->error.empty() ? to_string(job->state)
                                       : job->error);
    } else {
        resp.boolean(true); // not done yet: poll again
    }
    resp.endObject();
    return text;
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
             static_cast<std::uint64_t>(settled_.size()));
    resp.set("tenant_service_ms", std::move(tenants));
    resp.set("workers", static_cast<std::uint64_t>(opts_.workers));
    return resp;
}

std::string
SweepDaemon::respond(const json::Value &request)
{
    try {
        if (request.type() != json::Value::Type::Object ||
            !request.contains("op") ||
            request.at("op").type() != json::Value::Type::String)
            return errorResponse(
                       "request must be an object with an \"op\" string")
                .dump();
        const std::string &op = request.at("op").asString();
        if (op == "result")
            return opResult(request);
        return dispatch(op, request).dump();
    } catch (const std::exception &e) {
        return errorResponse(e.what()).dump();
    }
}

json::Value
SweepDaemon::handle(const json::Value &request)
{
    return json::Value::parse(respond(request));
}

json::Value
SweepDaemon::dispatch(const std::string &op, const json::Value &request)
{
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
    if (pool_)
        pool_->join();
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

void
SweepDaemon::start()
{
    if (!opts_.socketPath.empty()) {
#if NUCA_SERVICE_HAVE_SOCKETS
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
#else
        throw SimulationError(
            "Unix-domain sockets are unavailable on this platform; "
            "run with an empty socket path");
#endif
    }
    pool_ = std::make_unique<WorkerPool>(
        opts_.workers, [this] { return claimJob(); },
        [this](std::size_t id, int track) { runJob(id, track); });
    preempter_ = std::thread([this] { preempterLoop(); });
}

#if NUCA_SERVICE_HAVE_SOCKETS

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

        // False once the client stops taking the reply.
        auto reply = [fd](std::string out) {
            out += '\n';
            std::size_t sent = 0;
            while (sent < out.size()) {
                const ssize_t w = ::write(fd, out.data() + sent,
                                          out.size() - sent);
                if (w <= 0)
                    return false;
                sent += static_cast<std::size_t>(w);
            }
            return true;
        };

        std::string buffer;
        char chunk[4096];
        bool open = true;
        while (open && !stopRequested()) {
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t eol;
            while (open && (eol = buffer.find('\n')) !=
                               std::string::npos) {
                const std::string line = buffer.substr(0, eol);
                buffer.erase(0, eol + 1);
                if (line.empty())
                    continue;
                const auto request = json::Value::tryParse(line);
                open = reply(request ? respond(*request)
                                     : errorResponse("request line is "
                                                     "not valid JSON")
                                           .dump());
            }
            // A client streaming bytes with no newline would grow the
            // buffer without bound; refuse it and hang up.
            if (open && buffer.size() > kMaxRequestLine) {
                reply(errorResponse("request line exceeds " +
                                    std::to_string(kMaxRequestLine) +
                                    " bytes")
                          .dump());
                open = false;
            }
        }
        ::close(fd);
    }
}

#endif // NUCA_SERVICE_HAVE_SOCKETS

} // namespace service
} // namespace nuca
