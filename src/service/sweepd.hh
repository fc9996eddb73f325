/**
 * @file
 * nuca_sweepd: the long-running simulation service. Clients submit
 * experiment specs as line-delimited JSON over a Unix-domain socket;
 * the daemon answers each line with one JSON response line.
 *
 * Inside, three mechanisms cooperate:
 *
 *  - A priority job queue drained by a bounded worker pool. A free
 *    worker goes to the most starved tenant (see scheduler.hh); jobs
 *    execute through the proc_pool sandbox when isolation is on.
 *
 *  - Preemptive fair share: a long-running job of an over-served
 *    tenant is asked to stop at its next REPRO_CKPT_PERIOD-style
 *    snapshot boundary (ProcJobHandle::requestPreempt — a flag for
 *    in-process jobs, SIGTERM for sandbox children). The run saves
 *    its snapshot, throws JobPreempted, and the job is requeued; the
 *    next attempt resumes from the snapshot and finishes with a
 *    result bit-identical to an uninterrupted run.
 *
 *  - A content-addressed full-result cache keyed by
 *    JobSpec::resultKey() (the checkpoint layer's runKey over config
 *    + scheme + mix + run length): a spec the daemon has already
 *    simulated settles as cache_hit at submit time, with no worker
 *    involved.
 *
 * A worker settles each attempt through the sweep pool's settleJob
 * (job_status.hh), so a job settles `crashed`, `timed_out` or
 * `stalled` exactly as in a classic sweep. Every settle is journaled
 * to <state>/jobs.jsonl through the sweep sidecar codec with
 * scheduling telemetry (queue_ms, preempts) for `trace_report`.
 *
 * Protocol ops: ping, submit, status, result, preempt, cancel, drain,
 * stats, shutdown — see docs/SERVICE.md for the wire format.
 */

#ifndef NUCA_SERVICE_SWEEPD_HH
#define NUCA_SERVICE_SWEEPD_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/job_spec.hh"
#include "service/result_cache.hh"
#include "service/scheduler.hh"
#include "sim/job_status.hh"
#include "sim/json_writer.hh"
#include "sim/proc_pool.hh"
#include "sim/sweep_store.hh"

namespace nuca {
namespace service {

/** Daemon knobs; nuca_sweepd's main fills them from its flags
 *  (named alongside) and its REPRO_* environment. */
struct DaemonOptions
{
    /** Unix-domain socket path; empty = no socket (tests drive
     *  handle() directly). --socket. */
    std::string socketPath;
    /** State directory: jobs.jsonl journal, ckpt/ snapshots,
     *  results/ cache. --state. */
    std::string stateDir = ".sweepd";
    /** Worker pool size. --workers. */
    unsigned workers = 2;
    /** Snapshot period in cycles for preemptible runs. --period. */
    Cycle preemptPeriod = 200000;
    /** Fair-share quantum in ms: past it, a job of an over-served
     *  tenant may be preempted for a starved one. 0 disables the
     *  automatic preempter (explicit `preempt` ops still work).
     *  --quantum-ms. */
    std::uint64_t quantumMs = 1000;
    /** The fork-per-attempt sandbox and its limits; --no-isolate
     *  (or a platform without fork) clears `enabled`. */
    ProcIsolation isolation{.enabled = true};
    /** Every job's robustness layer. A result run under a planted
     *  simulator fault is never cached: it need not be clean. */
    RobustnessConfig robust;
    /** Every job's telemetry, one trace file per job label. */
    TelemetryConfig telemetry;
    /** Size cap in MiB on <state>/ckpt; 0 = unbounded. */
    std::uint64_t ckptMaxMb = 0;
    /** fsync every journal append. */
    bool sync = false;
};

/** One submitted job and everything the daemon knows about it. */
struct Job
{
    std::uint64_t id = 0;
    JobSpec spec;
    std::uint64_t key = 0;
    JobStatus state = JobStatus::Queued;
    MixResult result;
    std::string error;
    std::uint64_t preempts = 0;
    /** Total ms spent waiting in the queue, across all attempts. */
    std::uint64_t queueMs = 0;
    std::chrono::steady_clock::time_point enqueuedAt{};
    std::chrono::steady_clock::time_point startedAt{};
    bool cancelRequested = false;
    /** Live while a worker runs it; the preemption channel. */
    std::shared_ptr<ProcJobHandle> handle;
};

class SweepDaemon
{
  public:
    explicit SweepDaemon(DaemonOptions options);
    ~SweepDaemon();

    SweepDaemon(const SweepDaemon &) = delete;
    SweepDaemon &operator=(const SweepDaemon &) = delete;

    /**
     * Dispatch one protocol request and build its response. Public
     * and thread-safe: the socket loop calls it per line, tests call
     * it directly. Never throws — every error becomes an
     * {ok: false, error} response.
     */
    json::Value handle(const json::Value &request);

    /** Spawn the worker pool, the fair-share preempter, and (when
     *  socketPath is set) the socket accept loop. */
    void start();

    /** Ask everything to stop: running jobs are preempted at their
     *  next snapshot and requeued. Safe from any thread. */
    void requestStop();

    /** Join all threads (after requestStop or a shutdown op). */
    void join();

    bool stopRequested() const;

    /** Worker executions started (cache hits never increment it). */
    std::uint64_t executedJobs() const;

    const ResultCache &resultCache() const { return cache_; }
    const DaemonOptions &options() const { return opts_; }

  private:
    json::Value opSubmit(const json::Value &request);
    json::Value opStatus(const json::Value &request);
    json::Value opResult(const json::Value &request);
    json::Value opPreempt(const json::Value &request);
    json::Value opCancel(const json::Value &request);
    json::Value opDrain();
    json::Value opStats();

    void workerLoop();
    void preempterLoop();
    void acceptLoop();

    /** Run one job attempt (sandboxed when configured). */
    MixResult execute(const JobSpec &spec, ProcJobHandle *handle);

    /** Append a journal record for @p job's current state. */
    void journal(const Job &job);

    Job *findJob(std::uint64_t id);

    DaemonOptions opts_;
    ResultCache cache_;
    std::unique_ptr<SweepStore> journal_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Job> jobs_;
    std::uint64_t nextId_ = 1;
    TenantService tenantService_;
    unsigned busyWorkers_ = 0;
    std::uint64_t executed_ = 0;
    bool stop_ = false;
    bool draining_ = false;

    std::vector<std::thread> workers_;
    std::thread preempter_;
    std::thread accepter_;
    int listenFd_ = -1;
};

} // namespace service
} // namespace nuca

#endif // NUCA_SERVICE_SWEEPD_HH
