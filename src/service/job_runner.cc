#include "service/job_runner.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "base/cpu_budget.hh"
#include "sim/robustness.hh"

namespace nuca {
namespace service {

namespace {

using Type = json::Value::Type;

void
number(json::Writer &out, const char *name, std::uint64_t value)
{
    out.key(name);
    out.number(static_cast<double>(value));
}

void
flag(json::Writer &out, const char *name, bool value)
{
    out.key(name);
    out.boolean(value);
}

void
text(json::Writer &out, const char *name, const std::string &value)
{
    out.key(name);
    out.string(value);
}

[[noreturn]] void
bad(const std::string &member, const std::string &must)
{
    throw SpecError("job request member \"" + member + "\" " + must);
}

std::uint64_t
countOf(const json::Value &v, const std::string &member)
{
    if (const auto count = v.asCount())
        return *count;
    bad(member, "must be a non-negative integer");
}

bool
flagOf(const json::Value &v, const std::string &member)
{
    if (v.type() != Type::Bool)
        bad(member, "must be a bool");
    return v.asBool();
}

std::string
textOf(const json::Value &v, const std::string &member)
{
    if (v.type() != Type::String)
        bad(member, "must be a string");
    return v.asString();
}

/** Call @p field(name, value) for each member of object @p v. */
template <typename Field>
void
eachMember(const json::Value &v, const std::string &member, Field &&field)
{
    if (v.type() != Type::Object)
        bad(member, "must be an object");
    for (const auto &[name, value] : v.members()) {
        if (!field(name, value))
            bad(member + "." + name, "is not a member this runner knows");
    }
}

FaultSpec
faultOf(const json::Value &v)
{
    FaultSpec fault;
    eachMember(v, "robust.fault", [&](const std::string &name,
                                      const json::Value &value) {
        if (name == "kind") {
            const std::string kind = textOf(value, "robust.fault.kind");
            fault.kind = faultKindFromString(kind);
            if (kind != to_string(fault.kind))
                bad("robust.fault.kind", "names no fault kind");
        } else if (name == "arg") {
            fault.arg = countOf(value, "robust.fault.arg");
        } else {
            return false;
        }
        return true;
    });
    return fault;
}

/** Decode one top-level member into @p request; false for a name
 *  this runner does not know. */
bool
decodeMember(JobRequest &request, const std::string &name,
             const json::Value &value)
{
    RunPolicy &policy = request.policy;
    if (name == "spec") {
        request.spec = JobSpec::fromJson(value);
    } else if (name == "ckpt") {
        CheckpointConfig &ckpt = policy.ckpt;
        eachMember(value, name, [&](const std::string &field,
                                    const json::Value &v) {
            if (field == "dir")
                ckpt.dir = textOf(v, "ckpt.dir");
            else if (field == "period")
                ckpt.period = countOf(v, "ckpt.period");
            else if (field == "max_mb")
                ckpt.maxMb = countOf(v, "ckpt.max_mb");
            else
                return false;
            return true;
        });
    } else if (name == "resume") {
        policy.resume = flagOf(value, name);
    } else if (name == "robust") {
        RobustnessConfig &robust = policy.robust;
        eachMember(value, name, [&](const std::string &field,
                                    const json::Value &v) {
            const std::string member = "robust." + field;
            if (field == "check")
                robust.checkEnabled = flagOf(v, member);
            else if (field == "check_period")
                robust.checkPeriod = countOf(v, member);
            else if (field == "watchdog")
                robust.watchdogEnabled = flagOf(v, member);
            else if (field == "watchdog_window")
                robust.watchdogWindow = countOf(v, member);
            else if (field == "mshr_age_bound")
                robust.mshrAgeBound = countOf(v, member);
            else if (field == "max_cycles")
                robust.maxCycles = countOf(v, member);
            else if (field == "fault")
                robust.fault = faultOf(v);
            else
                return false;
            return true;
        });
    } else if (name == "trace") {
        TelemetryConfig &trace = policy.telemetry;
        eachMember(value, name, [&](const std::string &field,
                                    const json::Value &v) {
            if (field == "path")
                trace.tracePath = textOf(v, "trace.path");
            else if (field == "period")
                trace.samplePeriod = countOf(v, "trace.period");
            else if (field == "heatmap")
                trace.heatmap = flagOf(v, "trace.heatmap");
            else
                return false;
            return true;
        });
    } else if (name == "fault_target") {
        FaultTarget target;
        eachMember(value, name, [&](const std::string &field,
                                    const json::Value &v) {
            if (field == "job")
                target.job = countOf(v, "fault_target.job");
            else if (field == "label")
                target.label = textOf(v, "fault_target.label");
            else
                return false;
            return true;
        });
        request.faultTarget = std::move(target);
    } else if (name == "mem_mb") {
        request.memMb = countOf(value, name);
    } else if (name == "cpu_s") {
        request.cpuS = countOf(value, name);
    } else if (name == "preemptible") {
        request.preemptible = flagOf(value, name);
    } else if (name == "simulating") {
        const std::uint64_t count = countOf(value, name);
        if (count > INT_MAX)
            bad(name, "must be at most " + std::to_string(INT_MAX));
        request.simulating = static_cast<int>(count);
    } else {
        return false;
    }
    return true;
}

/** Set once main has checked for runJobFlag (spawnedAsRunner): only
 *  then is `/proc/self/exe --run-job` a runner. */
std::atomic<bool> g_selfRuns{false};

/** The running program's path, for the message that refuses to
 *  spawn it. */
std::string
selfPath()
{
    char path[4096];
    const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path));
    return n > 0 ? std::string(path, static_cast<std::size_t>(n))
                 : std::string("this program");
}

/** Raised by a preemptible runner's SIGTERM handler. */
std::atomic<bool> g_preempt{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the SIGTERM handler stores to g_preempt");

extern "C" void
onPreemptSignal(int)
{
    g_preempt.store(true, std::memory_order_relaxed);
}

std::string
readStdin()
{
    std::string line;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return line;
        line.append(buf, static_cast<std::size_t>(n));
    }
}

/** write(2) the whole buffer, riding out EINTR and short writes. */
bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Apply the request's rlimit caps; exit 124 on failure, since a
 *  half-limited job would be misattributed. */
void
applyLimits(const JobRequest &request)
{
    if (request.memMb != 0) {
        rlimit lim{};
        lim.rlim_cur = lim.rlim_max =
            static_cast<rlim_t>(request.memMb) * 1024 * 1024;
        if (request.memMb > RLIM_INFINITY / (1024 * 1024) ||
            ::setrlimit(RLIMIT_AS, &lim) != 0)
            std::_Exit(124);
    }
    if (request.cpuS != 0) {
        // Soft limit raises SIGXCPU (classified as a timeout); the
        // hard limit one second later is the kernel's backstop if
        // the runner somehow survives it.
        rlimit lim{};
        lim.rlim_cur = static_cast<rlim_t>(request.cpuS);
        lim.rlim_max = static_cast<rlim_t>(request.cpuS) + 1;
        if (::setrlimit(RLIMIT_CPU, &lim) != 0)
            std::_Exit(124);
    }
}

/**
 * Choose the runner's dispositions, then unblock the SIGTERM and
 * SIGINT the spawn left blocked: a SIGTERM that arrived since then
 * is delivered to the chosen disposition now.
 */
void
prepareSignals(bool preemptible)
{
    // A sanitizer's fault handler would settle a crash as its own
    // exit status; with the default action the parent sees the
    // signal, as it does from an unsanitized runner.
    std::signal(SIGSEGV, SIG_DFL);
    std::signal(SIGBUS, SIG_DFL);
    // A terminal's Ctrl-C reaches the whole process group. The sweep
    // acts on it; here, as there, a first SIGINT is only noted and a
    // second one ends the process.
    installSweepInterruptHandlers();
    // A preemptible runner turns SIGTERM into a yield request: the
    // job saves a snapshot at its next checkpoint boundary and
    // settles "preempted". Otherwise the default disposition lets
    // the deadline escalation kill the runner.
    std::signal(SIGTERM, preemptible ? onPreemptSignal : SIG_DFL);
    sigset_t held;
    sigemptyset(&held);
    sigaddset(&held, SIGTERM);
    sigaddset(&held, SIGINT);
    ::sigprocmask(SIG_UNBLOCK, &held, nullptr);
}

} // namespace

std::string
encodeJobRequest(const JobRequest &request)
{
    const RunPolicy &policy = request.policy;
    std::string line;
    json::Writer out(line);
    out.beginObject();
    out.key("spec");
    out.value(request.spec.toJson());

    out.key("ckpt");
    out.beginObject();
    text(out, "dir", policy.ckpt.dir);
    number(out, "period", policy.ckpt.period);
    number(out, "max_mb", policy.ckpt.maxMb);
    out.endObject();
    flag(out, "resume", policy.resume);

    const RobustnessConfig &robust = policy.robust;
    out.key("robust");
    out.beginObject();
    flag(out, "check", robust.checkEnabled);
    number(out, "check_period", robust.checkPeriod);
    flag(out, "watchdog", robust.watchdogEnabled);
    number(out, "watchdog_window", robust.watchdogWindow);
    number(out, "mshr_age_bound", robust.mshrAgeBound);
    number(out, "max_cycles", robust.maxCycles);
    out.key("fault");
    out.beginObject();
    text(out, "kind", to_string(robust.fault.kind));
    number(out, "arg", robust.fault.arg);
    out.endObject();
    out.endObject();

    const TelemetryConfig &trace = policy.telemetry;
    out.key("trace");
    out.beginObject();
    text(out, "path", trace.tracePath);
    number(out, "period", trace.samplePeriod);
    flag(out, "heatmap", trace.heatmap);
    out.endObject();

    if (request.faultTarget) {
        out.key("fault_target");
        out.beginObject();
        number(out, "job", request.faultTarget->job);
        text(out, "label", request.faultTarget->label);
        out.endObject();
    }
    number(out, "mem_mb", request.memMb);
    number(out, "cpu_s", request.cpuS);
    flag(out, "preemptible", request.preemptible);
    number(out, "simulating",
           static_cast<std::uint64_t>(request.simulating));
    out.endObject();
    line += '\n';
    return line;
}

JobRequest
decodeJobRequest(const std::string &line)
{
    JobRequest request;
    bool hasSpec = false;
    json::Cursor in(line);
    in.skipWs();
    const auto member = [&](const std::string &name, unsigned depth) {
        json::Value value;
        if (!in.value(value, depth))
            return false;
        if (!decodeMember(request, name, value))
            bad(name, "is not a member this runner knows");
        hasSpec = hasSpec || name == "spec";
        return true;
    };
    if (!in.canEnter(0) || in.peek() != '{' || !in.object(0, member) ||
        !in.atDocumentEnd())
        throw SpecError("job request is not one JSON object");
    if (!hasSpec)
        throw SpecError("job request has no \"spec\"");

    // What the REPRO_* parsers refuse, a request may not carry
    // either.
    for (const std::string &why : {request.policy.robust.problem(),
                                   request.policy.telemetry.problem()}) {
        if (!why.empty())
            throw SpecError("job request: " + why);
    }
    return request;
}

MixResult
runJobAttempt(const ProcIsolation &iso, const JobRequest &request,
              ProcJobHandle *handle)
{
    if (!iso.enabled) {
        RunPolicy policy = request.policy;
        if (handle != nullptr)
            policy.preempt = &handle->preempt;
        if (const auto &target = request.faultTarget)
            injectJobFault(policy.robust.fault, target->job,
                           target->label);
        return runJob(request.spec, policy);
    }
    // A program that is not a runner would take the flag for
    // something else, or ignore it and do its own work again.
    if (!g_selfRuns.load(std::memory_order_relaxed)) {
        throw std::logic_error(
            selfPath() + " cannot run a sandboxed job: its main must "
            "check service::spawnedAsRunner first");
    }
    JobRequest sent = request;
    sent.memMb = iso.memMb;
    sent.cpuS = iso.cpuS;
    sent.preemptible = iso.preemptible;
    sent.simulating = cpu_budget::simulatingThreads();
    return runSandboxed(iso, {"/proc/self/exe", runJobFlag},
                        encodeJobRequest(sent), handle);
}

bool
spawnedAsRunner(int argc, char **argv)
{
    g_selfRuns.store(true, std::memory_order_relaxed);
    return argc == 2 && std::strcmp(argv[1], runJobFlag) == 0;
}

int
runJobMain()
{
    const std::string line = readStdin();
    const std::string settlement = settlementLine([&] {
        const JobRequest request = decodeJobRequest(line);
        applyLimits(request);
        cpu_budget::inheritSimulating(request.simulating);
        prepareSignals(request.preemptible);
        RunPolicy policy = request.policy;
        policy.preempt = &g_preempt;
        if (const auto &target = request.faultTarget)
            injectJobFault(policy.robust.fault, target->job,
                           target->label);
        return runJob(request.spec, policy);
    });
    return writeAll(settlementFd, settlement) ? 0 : 123;
}

} // namespace service
} // namespace nuca
