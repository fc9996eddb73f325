/**
 * @file
 * Chrome-trace-event (Perfetto-compatible) JSON exporter. One
 * process-wide TraceEventLog collects host-side spans (parallel
 * jobs, checkpoint I/O) and writes them as a single `.trace.json`
 * openable in ui.perfetto.dev or chrome://tracing.
 *
 * The log keeps host time only: pid 1 is the host (ts = wall-clock
 * microseconds since the log was configured), with one thread track
 * per worker or writer. Simulated time is recorded once, by the JSONL
 * telemetry (sim/telemetry.hh); `trace_report --export-trace` turns
 * those files into per-system process tracks offline. Within a
 * (pid, tid) track, timestamps are monotonically nondecreasing — the
 * property validateChromeTrace checks, along with parseability and
 * matched B/E nesting.
 *
 * The log is bounded: past `maxEvents` new events are counted as
 * dropped rather than stored, so a pathological run cannot eat the
 * heap or emit a multi-gigabyte artifact. An E whose B was kept is
 * kept even past the cap, so a full log still closes every span it
 * opened; the log holds at most twice the cap.
 */

#ifndef NUCA_SIM_TRACE_EVENT_HH
#define NUCA_SIM_TRACE_EVENT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/json_writer.hh"

namespace nuca {

/** Collects trace events; thread-safe. */
class TraceEventLog
{
  public:
    TraceEventLog() = default;
    TraceEventLog(const TraceEventLog &) = delete;
    TraceEventLog &operator=(const TraceEventLog &) = delete;

    /** The process-wide log (harnesses configure it from
     *  REPRO_PERFETTO, see sim/env_config.hh). */
    static TraceEventLog &global();

    /** Enable collection, targeting @p path at write time. */
    void configure(const std::string &path,
                   std::size_t max_events = kDefaultMaxEvents);
    void disable();
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Register a named thread track under @p pid. The host process
     * (pid 1, "host") always exists. */
    int newThread(int pid, const std::string &name);

    /** Host pid (wall-clock timebase). */
    static constexpr int kHostPid = 1;
    /** Wall-clock microseconds since configure() (host-track ts). */
    double nowUs() const;

    /** Duration-begin / duration-end pair (ph B/E). */
    void begin(int pid, int tid, const std::string &name, double ts_us);
    void end(int pid, int tid, const std::string &name, double ts_us);
    /** Complete event (ph X): a span emitted once it has ended. */
    void complete(int pid, int tid, const std::string &name,
                  double ts_us, double dur_us,
                  json::Value args = json::Value());
    /** Instant event (ph i). */
    void instant(int pid, int tid, const std::string &name,
                 double ts_us, json::Value args = json::Value());

    /** RAII host-track span (B on construction, E on destruction).
     * The enabled check is latched at construction: a log that turns
     * on mid-span (a job configuring it) must not emit an unmatched
     * E, and one that turns off must still close its open B. */
    class Span
    {
      public:
        Span(TraceEventLog &log, int pid, int tid, std::string name)
            : log_(log), pid_(pid), tid_(tid), name_(std::move(name)),
              active_(log.enabled())
        {
            if (active_)
                log_.begin(pid_, tid_, name_, log_.nowUs());
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span()
        {
            if (active_)
                log_.end(pid_, tid_, name_, log_.nowUs());
        }

      private:
        TraceEventLog &log_;
        int pid_;
        int tid_;
        std::string name_;
        bool active_;
    };

    std::size_t events() const;
    std::uint64_t dropped() const;

    /** Serialize everything collected so far. */
    json::Value toJson() const;
    /** Write to @p path (atomic rename); warns and returns false on
     * I/O failure. */
    bool writeTo(const std::string &path) const;
    /** Write to the configured path once; later calls are no-ops
     * until configure() runs again. */
    bool writeIfPending();

    static constexpr std::size_t kDefaultMaxEvents = 250'000;

  private:
    struct Event
    {
        double ts;
        double dur;
        int pid;
        int tid;
        char ph;
        std::string name;
        json::Value args;
    };

    void push(Event e);

    mutable std::mutex mutex_;
    std::atomic<bool> enabled_{false};
    bool pending_ = false;
    std::string path_;
    std::size_t maxEvents_ = kDefaultMaxEvents;
    std::uint64_t dropped_ = 0;
    std::vector<Event> events_;
    /** Per (pid, tid) track, one entry per open B: whether it was
     *  kept, so its E is kept (or dropped) with it. */
    std::map<std::pair<int, int>, std::vector<bool>> open_;
    /** Metadata events (process/thread names) kept separately so
     * they never compete with real events for the cap. */
    std::vector<Event> meta_;
    std::chrono::steady_clock::time_point epoch_{};
};

/**
 * Validate @p doc as Chrome trace-event JSON: an object with a
 * `traceEvents` array whose events parse, whose pid and tid are
 * integral numbers in int range, whose per-(pid, tid) timestamps
 * are monotonically nondecreasing, and whose B/E pairs match LIFO
 * with equal names. On failure fills @p error and returns false;
 * no document, however mistyped, makes it panic.
 */
bool validateChromeTrace(const json::Value &doc, std::string *error);

} // namespace nuca

#endif // NUCA_SIM_TRACE_EVENT_HH
