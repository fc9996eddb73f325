/**
 * @file
 * Crash-safe persistence for sweep results: a JSON-lines sidecar that
 * accumulates one record per settled job while the sweep runs. Every
 * append is one fwrite + fflush under a mutex, so a killed sweep
 * leaves at worst one torn final line — which the loader skips — and
 * every earlier result is intact. REPRO_RESUME=1 replays the sidecar
 * to skip (and reuse) the jobs that already completed ok; jobs that
 * previously failed are re-run.
 *
 * The sidecar lives next to the final REPRO_JSON document as
 * "<path>.partial". The final document itself is written atomically
 * (writeFileAtomic), so the two files cover both failure windows: the
 * sidecar covers death mid-sweep, the rename covers death mid-write.
 */

#ifndef NUCA_SIM_SWEEP_STORE_HH
#define NUCA_SIM_SWEEP_STORE_HH

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/json_writer.hh"
#include "sim/job_status.hh"

namespace nuca {

/**
 * Serialize a MixResult's payload fields into a JSON object with
 * "ipc" and "l3apk" number arrays. Shared by the sidecar records and
 * the proc-pool wire protocol: both go through json::Value's exact
 * double round-trip, which is what makes a proc-isolated sweep's
 * REPRO_JSON byte-identical to the in-process pool's.
 */
json::Value mixResultToJson(const MixResult &result);

/** Parse the fields written by mixResultToJson (absent keys yield
 *  empty vectors). @throws SimulationError when @p obj is not an
 *  object or a present field is not an array of numbers. */
MixResult mixResultFromJson(const json::Value &obj);

/** One settled sweep job as persisted in the sidecar. */
struct SweepRecord
{
    /** Unique job label ("<scheme>.mix<m>"). */
    std::string label;
    JobStatus status = JobStatus::Ok;
    /** Failure text; empty when ok. */
    std::string error;
    /** The job's result; default-valued when not ok. */
    MixResult result;
    /**
     * Daemon-side scheduling telemetry: total milliseconds spent
     * waiting in the queue and times the job was preempted. Only
     * written (and only meaningful) when `timed` is set — classic
     * sweep sidecars omit the keys entirely, keeping their byte
     * format unchanged.
     */
    std::uint64_t queueMs = 0;
    std::uint64_t preempts = 0;
    bool timed = false;
};

/** Append-only JSONL sidecar writer (thread-safe). */
class SweepStore
{
  public:
    /**
     * Open @p path for appending; fatal when it cannot be opened.
     * @p sync upgrades every append from fflush (data reaches the
     * kernel; survives the *process* dying) to fflush+fsync (data
     * reaches the disk; survives the *machine* dying). The default
     * trades the power-loss window for not serializing every record
     * behind a disk flush.
     */
    explicit SweepStore(std::string path, bool sync = false);
    ~SweepStore();

    SweepStore(const SweepStore &) = delete;
    SweepStore &operator=(const SweepStore &) = delete;

    /** Persist one record: serialize, append, flush. */
    void append(const SweepRecord &record);

    const std::string &path() const { return path_; }

    /**
     * Parse an existing sidecar into records, in file order. A
     * missing file yields no records; unparsable or mistyped lines
     * (the torn tail of a killed run, a hand-edited record) are
     * skipped.
     */
    static std::vector<SweepRecord> load(const std::string &path);

    /** True when every append is fsynced (see the constructor). */
    bool synced() const { return sync_; }

    /** Sidecar path belonging to a REPRO_JSON path. */
    static std::string sidecarPathFor(const std::string &json_path)
    {
        return json_path + ".partial";
    }

  private:
    std::string path_;
    bool sync_;
    std::FILE *file_;
    std::mutex mutex_;
};

} // namespace nuca

#endif // NUCA_SIM_SWEEP_STORE_HH
