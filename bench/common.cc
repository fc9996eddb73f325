#include "common.hh"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "base/logging.hh"
#include "service/job_runner.hh"
#include "sim/sweep_store.hh"

namespace nuca {
namespace bench {

namespace {

/** One results-document record; only a non-ok cell carries a
 *  status, so a fault-free sweep's document keeps the
 *  pre-supervisor format. */
json::Value
recordJson(const std::string &label,
           const std::vector<std::string> &apps, std::uint64_t seed,
           const MixResult &result, JobStatus status,
           const std::string &error)
{
    json::Value record = json::Value::object();
    record.set("label", label);
    json::Value mix = json::Value::array();
    for (const auto &app : apps)
        mix.append(app);
    record.set("mix", std::move(mix));
    // As a decimal string: 64-bit seeds exceed a double's 53-bit
    // mantissa and would lose precision as numbers.
    record.set("seed", std::to_string(seed));
    json::Value ipc = json::Value::array();
    for (const double v : result.ipc)
        ipc.append(v);
    record.set("ipc", std::move(ipc));
    record.set("harmonic", mixHarmonic(result));
    if (!result.curve.empty()) {
        json::Value curve = json::Value::array();
        for (const double v : result.curve)
            curve.append(v);
        record.set("curve", std::move(curve));
    }
    if (status != JobStatus::Ok) {
        record.set("status", to_string(status));
        record.set("error", error);
    }
    return record;
}

json::Value
documentJson(const SimWindow &window, std::size_t mix_count,
             json::Value records)
{
    json::Value doc = json::Value::object();
    doc.set("warmup_cycles", window.warmupCycles);
    doc.set("measure_cycles", window.measureCycles);
    doc.set("mix_count", static_cast<std::uint64_t>(mix_count));
    doc.set("results", std::move(records));
    return doc;
}

} // namespace

void
SchemeResults::add(JobOutcome<MixResult> outcome)
{
    mixes.push_back(std::move(outcome.value));
    statuses.push_back(outcome.status);
    errors.push_back(std::move(outcome.error));
}

std::vector<JobOutcome<MixResult>>
runSweep(const std::vector<SweepJob> &jobs, const SimWindow &window,
         unsigned mix_count, unsigned pool)
{
    profilerFromEnv();
    const SweepPolicy policy = sweepPolicyFromEnv();
    const RunPolicy run = runPolicyFromEnv();
    const FaultSpec &fault = run.robust.fault;

    // Each job's content key goes into its sidecar record; a planted
    // simulator fault changes results without changing the key, so
    // such runs write none and are never reused.
    std::vector<std::optional<std::uint64_t>> keys(jobs.size());
    if (!fault.isSimFault()) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            keys[i] = jobs[i].spec.resultKey();
    }
    const auto labelOf = [&](std::size_t i) {
        return jobs[i].spec.displayLabel();
    };

    const ProcIsolation isolate = isolationFromEnv();
    // A crash fault kills whatever process runs the job; without a
    // sandboxed child that is the sweep itself, which would make the
    // injection test meaningless rather than prove isolation works.
    fatal_if(fault.isCrashFault() && !isolate.enabled,
             "REPRO_FAULT=", to_string(fault.kind),
             " crashes the job process; it needs REPRO_ISOLATE=proc");

    const std::string jsonPath = envString("REPRO_JSON");

    // Resume: reuse the sidecar's ok results whose label and key
    // both match; everything else (failed, torn, absent, keyless or
    // from another window or config) is re-simulated.
    std::vector<JobOutcome<MixResult>> outcomes(jobs.size());
    std::vector<bool> resumed(jobs.size(), false);
    if (!jsonPath.empty() && run.resume) {
        std::map<std::pair<std::string, std::uint64_t>, MixResult>
            completed;
        SweepStore::load(SweepStore::sidecarPathFor(jsonPath),
                         [&](SweepRecord &&record) {
                             if (record.status == JobStatus::Ok &&
                                 record.key) {
                                 completed[{record.label, *record.key}] =
                                     std::move(record.result);
                             }
                         });
        std::size_t reused = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!keys[i])
                continue;
            const auto it = completed.find({labelOf(i), *keys[i]});
            if (it == completed.end())
                continue;
            outcomes[i].status = JobStatus::Ok;
            outcomes[i].value = it->second;
            resumed[i] = true;
            ++reused;
        }
        if (reused > 0) {
            std::fprintf(stderr,
                         "  resume: reusing %zu of %zu results "
                         "from %s\n",
                         reused, jobs.size(),
                         SweepStore::sidecarPathFor(jsonPath).c_str());
        }
    }

    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!resumed[i])
            pending.push_back(i);
    }

    std::unique_ptr<SweepStore> store;
    if (!jsonPath.empty() && !pending.empty()) {
        store = std::make_unique<SweepStore>(
            SweepStore::sidecarPathFor(jsonPath),
            envOr("REPRO_SYNC", 0) != 0);
    }

    // Graceful shutdown: SIGINT/SIGTERM raises a flag instead of
    // killing the sweep mid-record. Workers stop claiming, in-flight
    // jobs finish and reach the sidecar, the unattempted remainder
    // is recorded Interrupted below, and a REPRO_RESUME=1 rerun
    // continues from exactly here.
    installSweepInterruptHandlers();
    ProgressReporter progress("sweep", pending.size());
    // SIGTERM is aimed at the sweep, so that fault strikes this
    // process wherever the job runs. The other job faults strike the
    // job's own process: under REPRO_ISOLATE=proc its runner, so a
    // crash fault proves the sandbox contains exactly what it claims
    // to.
    const bool sweepFault = fault.kind == FaultKind::SigtermJob;
    auto settled = runParallelOutcomes(
        pending,
        [&](std::size_t i) {
            if (sweepFault)
                injectJobFault(fault, i, labelOf(i));
            service::JobRequest request{jobs[i].spec, run, {}};
            if (!sweepFault)
                request.faultTarget = service::FaultTarget{i, labelOf(i)};
            return service::runJobAttempt(isolate, request);
        },
        pool == 0 ? jobsFromEnv() : pool, &progress, policy,
        [&](std::size_t k, const JobOutcome<MixResult> &outcome) {
            if (store) {
                store->append({labelOf(pending[k]), keys[pending[k]],
                               outcome.status, outcome.error,
                               outcome.value});
            }
        });
    progress.finish();
    restoreSweepInterruptHandlers();

    if (sweepInterruptRequested()) {
        std::fprintf(stderr,
                     "  sweep interrupted by signal %d: in-flight "
                     "jobs flushed, remainder recorded interrupted "
                     "(rerun with REPRO_RESUME=1 to continue)\n",
                     sweepInterruptSignal());
    }

    bool allOk = true;
    for (std::size_t k = 0; k < pending.size(); ++k) {
        if (!settled[k].ok())
            allOk = false;
        // Unattempted jobs never pass through the on_outcome hook;
        // give each one an explicit Interrupted sidecar record so
        // the file ends whole, with every job accounted for.
        if (store &&
            settled[k].status == JobStatus::Interrupted) {
            store->append({labelOf(pending[k]), keys[pending[k]],
                           settled[k].status, settled[k].error,
                           settled[k].value});
        }
        outcomes[pending[k]] = std::move(settled[k]);
    }

    // Under the abort policy a failed sweep is still an error — but
    // only after the drained pool's completed results reached the
    // sidecar above; a rerun with REPRO_RESUME=1 picks them up.
    // Interrupted jobs are not failures: the operator asked the
    // sweep to stop, so it returns the partial document instead of
    // throwing.
    if (policy.onFail == FailPolicy::Abort) {
        for (const auto &outcome : outcomes) {
            if (outcome.ok() ||
                outcome.status == JobStatus::Interrupted)
                continue;
            if (outcome.exception)
                std::rethrow_exception(outcome.exception);
            throw SimulationError(outcome.error);
        }
    }

    if (!jsonPath.empty()) {
        json::Value records = json::Value::array();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const service::JobSpec &spec = jobs[i].spec;
            records.append(recordJson(jobs[i].group, spec.apps,
                                      spec.seed, outcomes[i].value,
                                      outcomes[i].status,
                                      outcomes[i].error));
        }
        json::writeFileAtomic(
            jsonPath,
            documentJson(window, mix_count, std::move(records)));
        std::fprintf(stderr, "  results written to %s\n",
                     jsonPath.c_str());
        // A fully ok sweep no longer needs its sidecar (and a stale
        // one must not feed a later resume of a different sweep);
        // keep it when any job failed so the failure is inspectable
        // and a rerun can resume.
        if (allOk)
            std::remove(
                SweepStore::sidecarPathFor(jsonPath).c_str());
    }
    return outcomes;
}

std::vector<SchemeResults>
groupResults(const std::vector<SweepJob> &jobs,
             std::vector<JobOutcome<MixResult>> outcomes)
{
    std::vector<SchemeResults> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (out.empty() || out.back().label != jobs[i].group)
            out.push_back(SchemeResults{jobs[i].group, {}, {}, {}});
        out.back().add(std::move(outcomes[i]));
    }
    return out;
}

std::vector<SweepJob>
sweepJobs(const std::vector<std::pair<std::string, SystemConfig>> &configs,
          const std::vector<ExperimentSpec> &mixes,
          const SimWindow &window)
{
    std::vector<SweepJob> sweep;
    for (const auto &[label, config] : configs) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            SweepJob job{label, service::specFor(config)};
            job.spec.apps = mixes[m].apps;
            job.spec.seed = mixes[m].seed;
            job.spec.warmupCycles = window.warmupCycles;
            job.spec.measureCycles = window.measureCycles;
            job.spec.label = label + ".mix" + std::to_string(m);
            sweep.push_back(std::move(job));
        }
    }
    return sweep;
}

std::vector<SchemeResults>
runAll(const std::vector<std::pair<std::string, SystemConfig>> &configs,
       const std::vector<ExperimentSpec> &mixes,
       const SimWindow &window, unsigned jobs)
{
    auto outcomes =
        runSweep(sweepJobs(configs, mixes, window), window,
                 static_cast<unsigned>(mixes.size()), jobs);
    std::vector<SchemeResults> out(configs.size());
    for (std::size_t s = 0; s < configs.size(); ++s) {
        out[s].label = configs[s].first;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            out[s].add(std::move(outcomes[s * mixes.size() + m]));
    }
    return out;
}

std::vector<SchemeResults>
runAllSerial(
    const std::vector<std::pair<std::string, SystemConfig>> &configs,
    const std::vector<ExperimentSpec> &mixes,
    const SimWindow &window)
{
    const RunPolicy run = runPolicyFromEnv();
    std::vector<SchemeResults> out;
    out.reserve(configs.size());
    for (const auto &[label, config] : configs) {
        SchemeResults results;
        results.label = label;
        results.mixes.reserve(mixes.size());
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            results.mixes.push_back(
                runMix(config, mixes[m], window,
                       label + ".mix" + std::to_string(m), run));
        }
        out.push_back(std::move(results));
    }
    return out;
}

json::Value
resultsToJson(const std::vector<ExperimentSpec> &mixes,
              const std::vector<SchemeResults> &results,
              const SimWindow &window)
{
    json::Value records = json::Value::array();
    for (const auto &scheme : results) {
        panic_if(scheme.mixes.size() != mixes.size(),
                 "result/mix count mismatch");
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            const bool ok = scheme.okAt(m);
            records.append(recordJson(
                scheme.label, mixes[m].apps, mixes[m].seed,
                scheme.mixes[m], ok ? JobStatus::Ok : scheme.statuses[m],
                ok ? std::string() : scheme.errors[m]));
        }
    }
    return documentJson(window, mixes.size(), std::move(records));
}

double
mixHarmonic(const MixResult &result)
{
    return harmonicMean(result.ipc);
}

std::map<std::string, double>
perAppSpeedup(const std::vector<ExperimentSpec> &mixes,
              const SchemeResults &scheme,
              const SchemeResults &baseline)
{
    panic_if(scheme.mixes.size() != mixes.size() ||
                 baseline.mixes.size() != mixes.size(),
             "result/mix count mismatch");
    std::map<std::string, double> sums;
    std::map<std::string, unsigned> counts;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        // A mix that failed under REPRO_FAIL=skip left a default
        // (empty) result in either scheme; it contributes nothing.
        if (!scheme.okAt(m) || !baseline.okAt(m))
            continue;
        const auto &apps = mixes[m].apps;
        for (std::size_t c = 0; c < apps.size(); ++c) {
            if (c >= scheme.mixes[m].ipc.size() ||
                c >= baseline.mixes[m].ipc.size())
                continue;
            const double base = baseline.mixes[m].ipc[c];
            if (base <= 0.0)
                continue;
            sums[apps[c]] += scheme.mixes[m].ipc[c] / base;
            counts[apps[c]] += 1;
        }
    }
    std::map<std::string, double> out;
    for (const auto &[app, sum] : sums)
        out[app] = sum / counts[app];
    return out;
}

double
meanOfMap(const std::map<std::string, double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[_, v] : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
printHeader(const std::string &what, const SimWindow &window,
            unsigned mixes)
{
    std::printf("%s\n", what.c_str());
    std::printf("methodology: %u random 4-app mixes, %llu warmup + "
                "%llu measured cycles each, %u worker threads\n",
                mixes,
                static_cast<unsigned long long>(window.warmupCycles),
                static_cast<unsigned long long>(
                    window.measureCycles),
                jobsFromEnv());
    std::printf("(override with REPRO_MIXES / REPRO_WARMUP_CYCLES / "
                "REPRO_MEASURE_CYCLES / REPRO_JOBS; REPRO_JSON=<path> "
                "writes machine-readable results; REPRO_TRACE=<path> "
                "writes one JSONL telemetry trace per experiment)\n\n");
}

std::string
bar(double value)
{
    constexpr int maxChars = 60;
    const int chars =
        value <= 0.0 ? 0 : static_cast<int>(value * 20.0 + 0.5);
    if (chars <= maxChars)
        return std::string(static_cast<std::size_t>(chars), '#');
    return std::string(maxChars - 1, '#') + '+';
}

} // namespace bench
} // namespace nuca
