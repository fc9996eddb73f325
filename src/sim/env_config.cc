#include "sim/env_config.hh"

#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "sim/trace_event.hh"

namespace nuca {

namespace {

/** parseCount, with a malformed value fatal. */
std::uint64_t
countOrFatal(const std::string &name, const std::string &text)
{
    try {
        return parseCount(name, text);
    } catch (const std::invalid_argument &e) {
        fatal(e.what());
    }
}

/** The decimal suffix of a "<kind>:<number>" spec. */
std::uint64_t
specArg(const char *what, const std::string &spec, std::size_t colon)
{
    return countOrFatal(std::string(what) + " '" + spec + "' argument",
                        spec.substr(colon + 1));
}

} // namespace

std::uint64_t
envOr(const char *name, std::uint64_t def)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return def;
    return countOrFatal(std::string("environment variable ") + name,
                        value);
}

std::string
envString(const char *name)
{
    const char *value = std::getenv(name);
    return value == nullptr ? std::string() : std::string(value);
}

SimWindow
windowFromEnv(Cycle warmup_default, Cycle measure_default)
{
    SimWindow w;
    w.warmupCycles = envOr("REPRO_WARMUP_CYCLES", warmup_default);
    w.measureCycles = envOr("REPRO_MEASURE_CYCLES", measure_default);
    return w;
}

unsigned
jobsFromEnv()
{
    const auto jobs = envOr("REPRO_JOBS", 0);
    if (jobs != 0)
        return static_cast<unsigned>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

CheckpointConfig
checkpointFromEnv()
{
    CheckpointConfig cfg;
    cfg.dir = envString("REPRO_CKPT_DIR");
    cfg.period = envOr("REPRO_CKPT_PERIOD", 0);
    cfg.maxMb = envOr("REPRO_CKPT_MAX_MB", 0);
    return cfg;
}

SweepPolicy
sweepPolicyFromEnv()
{
    SweepPolicy policy;
    policy.backoffMs = static_cast<unsigned>(
        envOr("REPRO_RETRY_BACKOFF_MS", policy.backoffMs));
    policy.maxCrashes = static_cast<unsigned>(
        envOr("REPRO_QUARANTINE", policy.maxCrashes));
    const std::string spec = envString("REPRO_FAIL");
    if (spec == "skip") {
        policy.onFail = FailPolicy::Skip;
    } else if (spec.rfind("retry:", 0) == 0) {
        policy.onFail = FailPolicy::Retry;
        policy.retries = static_cast<unsigned>(
            specArg("REPRO_FAIL", spec, spec.find(':')));
        fatal_if(policy.retries == 0,
                 "REPRO_FAIL=retry:N needs N >= 1, got '", spec, "'");
    } else {
        fatal_if(!spec.empty() && spec != "abort",
                 "REPRO_FAIL must be abort, skip, or retry:N, got '",
                 spec, "'");
    }
    return policy;
}

FaultSpec
faultFromEnv()
{
    FaultSpec fault;
    const std::string spec = envString("REPRO_FAULT");
    if (spec.empty())
        return fault;

    const std::size_t colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    fault.kind = faultKindFromString(kind);
    fatal_if(!fault.enabled(),
             "REPRO_FAULT kind must be lru_corrupt, mshr_leak, "
             "channel_stall, throw_job, segv, oom, hang, or sigterm, "
             "got '", spec, "'");
    fatal_if(fault.isJobFault() && colon == std::string::npos,
             "REPRO_FAULT=", kind, " needs a job index (", kind,
             ":K)");
    if (colon != std::string::npos)
        fault.arg = specArg("REPRO_FAULT", spec, colon);
    return fault;
}

RobustnessConfig
robustnessFromEnv()
{
    RobustnessConfig config;
    config.checkEnabled = envOr("REPRO_CHECK", 0) != 0;
    config.checkPeriod =
        envOr("REPRO_CHECK_PERIOD", config.checkPeriod);
    fatal_if(config.checkEnabled && config.checkPeriod == 0,
             "REPRO_CHECK_PERIOD must be positive");

    config.watchdogEnabled = envOr("REPRO_WATCHDOG", 1) != 0;
    config.watchdogWindow =
        envOr("REPRO_WATCHDOG_WINDOW", config.watchdogWindow);
    fatal_if(config.watchdogEnabled && config.watchdogWindow == 0,
             "REPRO_WATCHDOG_WINDOW must be positive");
    config.mshrAgeBound = config.watchdogWindow;

    config.maxCycles = envOr("REPRO_MAX_CYCLES", 0);
    config.fault = faultFromEnv();
    return config;
}

ProcIsolation
isolationFromEnv()
{
    ProcIsolation iso;
    const std::string mode = envString("REPRO_ISOLATE");
    fatal_if(!mode.empty() && mode != "off" && mode != "proc",
             "REPRO_ISOLATE must be proc or off, got '", mode, "'");
    iso.enabled = mode == "proc";
    if (iso.enabled && !procIsolationSupported()) {
        warn("REPRO_ISOLATE=proc: fork is unavailable on this "
             "platform; jobs will run in-process without limits");
        iso.enabled = false;
    }
    iso.memMb = envOr("REPRO_JOB_MEM_MB", iso.memMb);
    iso.cpuS = envOr("REPRO_JOB_CPU_S", iso.cpuS);
    iso.timeoutS = envOr("REPRO_JOB_TIMEOUT_S", iso.timeoutS);
    iso.graceMs = envOr("REPRO_JOB_GRACE_MS", iso.graceMs);
    return iso;
}

TelemetryConfig
telemetryFromEnv()
{
    TelemetryConfig config;
    config.tracePath = envString("REPRO_TRACE");
    config.samplePeriod =
        envOr("REPRO_TRACE_PERIOD", config.samplePeriod);
    fatal_if(config.samplePeriod == 0,
             "REPRO_TRACE_PERIOD must be positive");
    config.heatmap = envOr("REPRO_HEATMAP", 0) != 0;
    config.events = traceEventsFromEnv();
    return config;
}

RunPolicy
runPolicyFromEnv()
{
    RunPolicy policy;
    policy.ckpt = checkpointFromEnv();
    policy.resume = envOr("REPRO_RESUME", 0) != 0;
    policy.robust = robustnessFromEnv();
    policy.telemetry = telemetryFromEnv();
    return policy;
}

TraceEventLog *
traceEventsFromEnv()
{
    static TraceEventLog *const log = []() -> TraceEventLog * {
        const std::string path = envString("REPRO_PERFETTO");
        if (path.empty())
            return nullptr;
        TraceEventLog::global().configure(path);
        std::atexit([] { TraceEventLog::global().writeIfPending(); });
        return &TraceEventLog::global();
    }();
    return log;
}

void
profilerFromEnv()
{
    const std::string on = envString("REPRO_PROFILE");
    if (!on.empty() && on != "0")
        prof::enableWithExitReport(envString("REPRO_PROFILE_OUT"));
}

} // namespace nuca
