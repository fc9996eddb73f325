/**
 * @file
 * Epoch telemetry: record the simulation as a time series instead of
 * a single end-of-run aggregate. Two record kinds flow into a
 * TraceSink as JSON-lines objects:
 *
 *  - periodic "sample" records emitted by CmpSystem every
 *    REPRO_TRACE_PERIOD cycles (per-core IPC over the interval, L3
 *    local/neighbor/miss deltas, memory-channel occupancy, MSHR
 *    occupancy, and — for the adaptive scheme — the current quotas);
 *  - discrete "repartition" records forwarded from
 *    SharingEngine::repartitionNow (epoch index, per-core quotas
 *    before/after, the epoch's shadow-tag and LRU-hit counters, the
 *    chosen gainer/loser).
 *
 * This is the one record of simulated time: the Chrome trace log
 * (sim/trace_event.hh) keeps host time only, and `trace_report
 * --export-trace` turns these files into per-system Chrome trace
 * tracks offline.
 *
 * Tracing is strictly observational: it reads counters the
 * simulation maintains anyway, so simulated results are bit-identical
 * with the sink attached or not (asserted by tests). With no sink
 * attached the hooks cost one pointer test per cycle and one branch
 * per epoch.
 *
 * Sinks are single-writer: the parallel experiment runner derives one
 * trace file per experiment from its label (tracePathFor), so
 * REPRO_JOBS > 1 never interleaves two writers in one file.
 */

#ifndef NUCA_SIM_TELEMETRY_HH
#define NUCA_SIM_TELEMETRY_HH

#include <cstdio>
#include <memory>
#include <string>

#include "base/types.hh"
#include "sim/json_writer.hh"

namespace nuca {

class CmpSystem;

/** Destination of trace records. Implementations are not
 *  thread-safe; give every concurrent experiment its own sink. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Append one record (a JSON object) to the trace. */
    virtual void write(const json::Value &record) = 0;

    /** Push buffered records to the backing store. */
    virtual void flush() {}
};

/**
 * Buffered JSON-lines file sink: one compact JSON object per line,
 * flushed when the buffer fills and on destruction. Opening fails
 * fatally so a misspelled trace directory is loud. A write
 * error after opening (disk full, quota) is not worth killing a
 * multi-hour sweep over telemetry: the sink warns once, drops the
 * rest of the trace, and lets the simulation finish.
 */
class JsonlTraceSink final : public TraceSink
{
  public:
    explicit JsonlTraceSink(std::string path,
                            std::size_t buffer_bytes = 64 * 1024);
    ~JsonlTraceSink() override;

    JsonlTraceSink(const JsonlTraceSink &) = delete;
    JsonlTraceSink &operator=(const JsonlTraceSink &) = delete;

    void write(const json::Value &record) override;
    void flush() override;

    const std::string &path() const { return path_; }
    /** Records written so far (buffered or flushed). */
    std::uint64_t records() const { return records_; }
    /** True once a write error made the sink stop writing. */
    bool failed() const { return failed_; }

  private:
    /** Hand the whole buffer to the file in one fwrite; @p sync
     * additionally forces it down to the OS (explicit flush()). */
    void drain(bool sync);

    std::string path_;
    std::FILE *file_;
    std::string buffer_;
    std::size_t bufferBytes_;
    std::uint64_t records_ = 0;
    bool failed_ = false;
};

/** What a run records besides its results. */
struct TelemetryConfig
{
    /** Trace file path (REPRO_TRACE); empty disables tracing. */
    std::string tracePath;
    /** Cycles between sample records (REPRO_TRACE_PERIOD). */
    Cycle samplePeriod = 100000;
    /** Emit spatial heatmap records next to every sample
     * (REPRO_HEATMAP; needs a trace path to produce output). */
    bool heatmap = false;

    bool enabled() const { return !tracePath.empty(); }

    /** What makes this config unrunnable (a zero sample period), or
     *  empty when it can run. */
    std::string problem() const;
};

/**
 * Filename-safe form of an experiment label: every character outside
 * [A-Za-z0-9.-_] (slashes, whitespace, shell metacharacters) maps to
 * '_', runs of replacements collapse to a single '_', and a label
 * with no safe characters at all becomes "trace" rather than an
 * empty path component.
 */
std::string sanitizeLabel(const std::string &label);

/**
 * Derive one experiment's trace path from the base trace path
 * and the experiment's label: "out/trace.jsonl" + "adaptive.mix3"
 * gives "out/trace.adaptive.mix3.jsonl" (label sanitized to
 * filename-safe characters). An empty label returns @p base
 * unchanged — the single-experiment case writes exactly the file the
 * user named.
 */
std::string tracePathFor(const std::string &base,
                         const std::string &label);

/**
 * Attach @p config's telemetry to @p system for the experiment
 * labeled @p label: a JSONL sink at tracePathFor(config.tracePath,
 * label) sampled every config.samplePeriod cycles (plus heatmaps when
 * asked for). @return the owned sink (keep
 * it alive for the system's remaining run() calls), or nullptr when
 * tracing is off.
 */
std::unique_ptr<TraceSink>
attachTelemetry(CmpSystem &system, const TelemetryConfig &config,
                const std::string &label);

} // namespace nuca

#endif // NUCA_SIM_TELEMETRY_HH
