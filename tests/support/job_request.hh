/**
 * @file
 * A job request with every member of the runner's request line
 * (service/job_runner.hh) present, most of them away from their
 * defaults: the golden line pins its bytes and the decoder's mutation
 * sweep starts from it.
 */

#ifndef NUCA_TESTS_SUPPORT_JOB_REQUEST_HH
#define NUCA_TESTS_SUPPORT_JOB_REQUEST_HH

#include "service/job_runner.hh"

namespace nuca {

inline service::JobRequest
sampleJobRequest()
{
    service::JobRequest request;
    service::JobSpec &spec = request.spec;
    spec.scheme = "shared";
    spec.overrides = json::Value::parse("{\"epoch_misses\":250}");
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = 42;
    spec.warmupCycles = 20000;
    spec.measureCycles = 40000;
    spec.label = "shared.mix2";

    RunPolicy &policy = request.policy;
    policy.ckpt.dir = "state/ckpt";
    policy.ckpt.period = 10000;
    policy.ckpt.maxMb = 64;
    policy.resume = true;
    policy.robust.checkEnabled = true;
    policy.robust.checkPeriod = 50000;
    policy.robust.watchdogWindow = 500000;
    policy.robust.mshrAgeBound = 500000;
    policy.robust.maxCycles = 90000000;
    policy.robust.fault.kind = FaultKind::SegvJob;
    policy.robust.fault.arg = 2;
    policy.telemetry.tracePath = "out/trace.jsonl";
    policy.telemetry.samplePeriod = 300000;
    policy.telemetry.heatmap = true;

    request.faultTarget = service::FaultTarget{2, "shared.mix2"};
    request.memMb = 4096;
    request.cpuS = 60;
    request.preemptible = true;
    request.simulating = 3;
    return request;
}

} // namespace nuca

#endif // NUCA_TESTS_SUPPORT_JOB_REQUEST_HH
