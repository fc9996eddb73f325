/**
 * @file
 * Crash-safe persistence for sweep results: a JSON-lines sidecar that
 * accumulates one record per settled job while the sweep runs. Every
 * append is one fwrite + fflush under a mutex, so a killed sweep
 * leaves at worst one torn final line — which the loader skips — and
 * every earlier result is intact. REPRO_RESUME=1 replays the sidecar
 * to skip (and reuse) the jobs that already completed ok under the
 * same content key; jobs that previously failed are re-run.
 *
 * The sidecar lives next to the final REPRO_JSON document as
 * "<path>.partial". The final document itself is written atomically
 * (writeFileAtomic), so the two files cover both failure windows: the
 * sidecar covers death mid-sweep, the rename covers death mid-write.
 */

#ifndef NUCA_SIM_SWEEP_STORE_HH
#define NUCA_SIM_SWEEP_STORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hh"
#include "sim/json_writer.hh"
#include "sim/job_status.hh"

namespace nuca {

/**
 * Serialize a MixResult's payload fields into a JSON object with
 * "ipc" and "l3apk" number arrays; a result with IPCs adds the
 * per-core "l1d_miss", "l2d_miss", "l3_miss" and "mispredict"
 * fractions, a miss curve adds "curve". Shared by the sidecar records and
 * the proc-pool wire protocol: both go through json::Value's exact
 * double round-trip, which is what makes a proc-isolated sweep's
 * REPRO_JSON byte-identical to the in-process pool's.
 */
json::Value mixResultToJson(const MixResult &result);

/** Parse the fields written by mixResultToJson (absent keys yield
 *  empty vectors). @throws SimulationError when @p obj is not an
 *  object, a present field is not an array of numbers, or a result
 *  with IPCs lacks a per-core fraction, or has it or "l3apk" at
 *  another length. */
MixResult mixResultFromJson(const json::Value &obj);

/*
 * The same codec in one pass, without a json::Value tree: what the
 * daemon's cache hits, journal lines and the sandbox pipe use. The
 * tree functions above stay as the reference the tests hold these
 * to, byte for byte and accept for accept.
 */

/** mixResultToJson(result)'s members, written into the object
 *  @p out has open. */
void writeMixResultMembers(json::Writer &out, const MixResult &result);

/** mixResultToJson(result).dump(): the compact payload text. */
std::string encodeMixResult(const MixResult &result);

/**
 * Collects a MixResult from an object read member by member with a
 * json::Cursor, so a caller can read its own members (a cache
 * entry's key, the pipe's status) from the same object.
 */
class MixResultReader
{
  public:
    /** Read the value of member @p name at @p depth: a payload
     *  field's numbers are kept, anything else is checked and
     *  skipped. False on a syntax error. */
    bool member(json::Cursor &in, const std::string &name,
                unsigned depth);

    /** mixResultFromJson's result over the members read (the last
     *  of a repeated name counts), nullopt where it would throw. */
    std::optional<MixResult> take();

  private:
    enum class Field : unsigned char { Absent, Numbers, Bad };
    struct Slot
    {
        Field state = Field::Absent;
        std::vector<double> values;
    };
    /** One per payload field, in write order. */
    Slot slots_[7];
};

/** A value at @p depth read as mixResultFromJson reads it: @p out is
 *  the result, nullopt where that throws (a non-object included).
 *  False on a syntax error. */
bool readMixResult(json::Cursor &in, unsigned depth,
                   std::optional<MixResult> &out);

/** mixResultFromJson(*json::Value::tryParse(text)) in one pass:
 *  nullopt where the parse fails or the decode throws. */
std::optional<MixResult> decodeMixResult(std::string_view text);

/** One settled sweep job as persisted in the sidecar. */
struct SweepRecord
{
    /** Unique job label ("<scheme>.mix<m>"). */
    std::string label;
    /**
     * The job's content key, runKey(config, apps, seed, warmup,
     * measure) for a sweep job and JobSpec::resultKey() for a daemon
     * job; stored as 16 hex digits. A resumed sweep reuses a record
     * only when label and key both match. Absent for runs under a
     * planted simulator fault, whose results must never be reused.
     */
    std::optional<std::uint64_t> key;
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
     * Open @p path for appending; fatal when it cannot be opened. An
     * unterminated last line (the torn tail of a killed run) is ended
     * with a newline first, so the next record starts a line.
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

    /** append() with the result already encoded: @p payload is
     *  encodeMixResult's text, and record.result is not read. */
    void append(const SweepRecord &record, std::string_view payload);

    const std::string &path() const { return path_; }

    /**
     * Parse an existing sidecar, handing each record to @p onRecord
     * in file order as it is read, so no caller holds more than the
     * records it keeps. A missing file yields no records;
     * unparsable or mistyped lines (the torn tail of a killed run, a
     * hand-edited record) are skipped.
     */
    static void load(const std::string &path,
                     const std::function<void(SweepRecord &&)> &onRecord);

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
