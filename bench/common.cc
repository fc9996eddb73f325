#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "base/logging.hh"
#include "sim/proc_pool.hh"
#include "sim/sweep_store.hh"

namespace nuca {
namespace bench {

namespace {

/** One (scheme, mix) cell of the sweep matrix. */
struct SweepJob
{
    std::size_t scheme;
    std::size_t mix;
};

} // namespace

std::vector<SchemeResults>
runAll(const std::vector<std::pair<std::string, SystemConfig>> &configs,
       const std::vector<ExperimentSpec> &mixes,
       const SimWindow &window, unsigned jobs)
{
    // Flatten the sweep scheme-major — the same order the serial
    // loop used — so results land in identical submission slots.
    std::vector<SweepJob> sweep;
    std::vector<std::string> labels;
    sweep.reserve(configs.size() * mixes.size());
    labels.reserve(configs.size() * mixes.size());
    for (std::size_t s = 0; s < configs.size(); ++s) {
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            sweep.push_back({s, m});
            labels.push_back(configs[s].first + ".mix" +
                             std::to_string(m));
        }
    }

    profilerFromEnv();
    const SweepPolicy policy = sweepPolicyFromEnv();
    const RunPolicy run = runPolicyFromEnv();
    const FaultSpec &fault = run.robust.fault;
    const ProcIsolation isolate = isolationFromEnv();
    // A crash fault kills whatever process runs the job; without a
    // sandboxed child that is the sweep itself, which would make the
    // injection test meaningless rather than prove isolation works.
    fatal_if(fault.isCrashFault() && !isolate.enabled,
             "REPRO_FAULT=", to_string(fault.kind),
             " crashes the job process; it needs REPRO_ISOLATE=proc");

    const std::string jsonPath = envString("REPRO_JSON");

    // Resume: reuse the sidecar's ok results; everything else
    // (failed, torn, or absent records) is re-simulated.
    std::vector<JobOutcome<MixResult>> outcomes(sweep.size());
    std::vector<bool> resumed(sweep.size(), false);
    if (!jsonPath.empty() && run.resume) {
        std::map<std::string, SweepRecord> completed;
        for (auto &record :
             SweepStore::load(SweepStore::sidecarPathFor(jsonPath))) {
            if (record.status == JobStatus::Ok)
                completed[record.label] = std::move(record);
        }
        std::size_t reused = 0;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const auto it = completed.find(labels[i]);
            if (it == completed.end())
                continue;
            outcomes[i].status = JobStatus::Ok;
            outcomes[i].value = it->second.result;
            resumed[i] = true;
            ++reused;
        }
        if (reused > 0) {
            std::fprintf(stderr,
                         "  resume: reusing %zu of %zu results "
                         "from %s\n",
                         reused, sweep.size(),
                         SweepStore::sidecarPathFor(jsonPath).c_str());
        }
    }

    std::vector<std::size_t> pending;
    pending.reserve(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (!resumed[i])
            pending.push_back(i);
    }

    std::unique_ptr<SweepStore> store;
    if (!jsonPath.empty() && !pending.empty()) {
        store = std::make_unique<SweepStore>(
            SweepStore::sidecarPathFor(jsonPath),
            envOr("REPRO_SYNC", 0) != 0);
    }

    const unsigned pool = jobs == 0 ? jobsFromEnv() : jobs;
    // Graceful shutdown: SIGINT/SIGTERM raises a flag instead of
    // killing the sweep mid-record. Workers stop claiming, in-flight
    // jobs finish and reach the sidecar, the unattempted remainder
    // is recorded Interrupted below, and a REPRO_RESUME=1 rerun
    // continues from exactly here.
    installSweepInterruptHandlers();
    ProgressReporter progress("sweep", pending.size());
    auto settled = runParallelOutcomes(
        pending,
        [&](std::size_t i) {
            const auto runOne = [&]() {
                injectJobFault(fault, i, labels[i]);
                // The label makes REPRO_TRACE write one file per
                // (scheme, mix) experiment, so concurrent workers
                // never share a trace writer.
                const SweepJob &job = sweep[i];
                return runMix(configs[job.scheme].second,
                              mixes[job.mix], window, labels[i], run);
            };
            // Under REPRO_ISOLATE=proc the fault (and the job) runs
            // inside the forked child, so a crash fault proves the
            // sandbox contains exactly what it claims to. Without
            // isolation this is runOne() in-process.
            return runMixSandboxed(isolate, runOne);
        },
        pool, &progress, policy,
        [&](std::size_t k, const JobOutcome<MixResult> &outcome) {
            if (store) {
                store->append({labels[pending[k]], outcome.status,
                               outcome.error, outcome.value});
            }
        });
    progress.finish();
    restoreSweepInterruptHandlers();

    const bool interrupted = sweepInterruptRequested();
    if (interrupted) {
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
            store->append({labels[pending[k]], settled[k].status,
                           settled[k].error, settled[k].value});
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

    std::vector<SchemeResults> out;
    out.reserve(configs.size());
    for (std::size_t s = 0; s < configs.size(); ++s) {
        SchemeResults results;
        results.label = configs[s].first;
        results.mixes.reserve(mixes.size());
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            auto &outcome = outcomes[s * mixes.size() + m];
            results.mixes.push_back(std::move(outcome.value));
            if (!allOk) {
                results.statuses.push_back(outcome.status);
                results.errors.push_back(outcome.error);
            }
        }
        out.push_back(std::move(results));
    }

    if (!jsonPath.empty()) {
        writeResultsJson(jsonPath, mixes, out, window);
        // A fully ok sweep no longer needs its sidecar (and a stale
        // one must not feed a later resume of a different sweep);
        // keep it when any job failed so the failure is inspectable
        // and a rerun can resume.
        if (allOk)
            std::remove(
                SweepStore::sidecarPathFor(jsonPath).c_str());
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
    json::Value doc = json::Value::object();
    doc.set("warmup_cycles", window.warmupCycles);
    doc.set("measure_cycles", window.measureCycles);
    doc.set("mix_count", static_cast<std::uint64_t>(mixes.size()));

    json::Value records = json::Value::array();
    for (const auto &scheme : results) {
        panic_if(scheme.mixes.size() != mixes.size(),
                 "result/mix count mismatch");
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            json::Value record = json::Value::object();
            record.set("label", scheme.label);
            json::Value apps = json::Value::array();
            for (const auto &app : mixes[m].apps)
                apps.append(app);
            record.set("mix", std::move(apps));
            // As a decimal string: 64-bit seeds exceed a double's
            // 53-bit mantissa and would lose precision as numbers.
            record.set("seed", std::to_string(mixes[m].seed));
            json::Value ipc = json::Value::array();
            for (const double v : scheme.mixes[m].ipc)
                ipc.append(v);
            record.set("ipc", std::move(ipc));
            record.set("harmonic", mixHarmonic(scheme.mixes[m]));
            // Only non-ok cells carry a status, so a fault-free
            // sweep's document is byte-identical to the
            // pre-supervisor format.
            if (!scheme.okAt(m)) {
                record.set("status",
                           to_string(scheme.statuses[m]));
                record.set("error", scheme.errors[m]);
            }
            records.append(std::move(record));
        }
    }
    doc.set("results", std::move(records));
    return doc;
}

void
writeResultsJson(const std::string &path,
                 const std::vector<ExperimentSpec> &mixes,
                 const std::vector<SchemeResults> &results,
                 const SimWindow &window)
{
    json::writeFileAtomic(path, resultsToJson(mixes, results, window));
    std::fprintf(stderr, "  results written to %s\n", path.c_str());
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

unsigned
mixCountFromEnv(unsigned def)
{
    return static_cast<unsigned>(envOr("REPRO_MIXES", def));
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
