/**
 * @file
 * Shared pieces of nuca_bench, the repository benchmark's runner: the
 * run options, wall-clock helpers, sample statistics, and the report
 * every workload fills in. See benchmark/README.md.
 */

#ifndef NUCA_BENCHMARK_BENCH_HH
#define NUCA_BENCHMARK_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/trace_event.hh"

namespace nbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The @p q quantile, interpolating linearly between order
 *  statistics; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** The arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &values);

/**
 * Seconds the host takes right now for a fixed reference loop of
 * about 15 ms (reference.cc): unpredictable branches over a table in
 * the L1 data cache, then scattered loads over 4 MB, the two kinds of
 * work the simulator's own loops do. With @p threads > 1 the loop
 * runs on that many threads at once, as many as the measured op keeps
 * busy, and their mean time is returned.
 *
 * The benchmark's hosts share their processors with other tenants,
 * and their speed drifts by a third over seconds to minutes. The
 * timed passes therefore report every op's time as a multiple of this
 * loop's time, taken right before and right after the op ("ref"
 * units). The loop uses nothing from the simulator, so a change to
 * the simulator cannot change the unit.
 */
double referenceSeconds(unsigned threads);

/** @p values as a JSON array, for a result document's details. */
nuca::json::Value samplesJson(const std::vector<double> &values);

/** 16-digit lowercase hex, the form digests are printed in. */
std::string hex16(std::uint64_t value);

/** What one nuca_bench process is asked to do. */
struct RunOptions
{
    std::string workload;
    /** Derives every op seed and mix draw; the simulator only ever
     *  sees the generated inputs. */
    std::uint64_t seed = 20070201;
    /** Length of the timed phase. */
    double seconds = 20.0;
    /** Run the traced pass (per-layer metrics) instead of the timed
     *  one. */
    bool trace = false;
    /** Every size divided by 100 and one op per phase: a wiring
     *  check, not a measurement. */
    bool smoke = false;
    /** Worker threads and jobs in flight: min(2, nproc). */
    unsigned workers = 2;
    /** Directory holding nuca_sweepd (nuca_bench's own directory). */
    std::string binDir;
};

/**
 * The outcome of one run: metrics by name, the attempted/failed
 * operation counts behind error_rate, and free-form details (digests,
 * per-op samples, span self times) that never enter the metrics.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /**
     * Count one attempted operation or correctness check; a non-empty
     * @p error marks it failed and is kept for the result document.
     */
    void attempt(const std::string &error = {});

    void detail(const std::string &key, nuca::json::Value value);

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    nuca::json::Value toJson() const;

  private:
    nuca::json::Value metrics_ = nuca::json::Value::object();
    nuca::json::Value details_ = nuca::json::Value::object();
    std::vector<std::string> errors_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * The traced pass's spans, recorded from the benchmark's own code
 * around its calls into each layer. Spans go to a benchmark-owned
 * TraceEventLog (the simulator's global log stays off, so nothing
 * inside the program changes) and their totals feed a per-name self
 * time: a span's duration minus the time its child spans cover.
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** A span on the calling (main) thread; nests by scope. */
    class Span
    {
      public:
        Span(Tracer &tracer, std::string name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
    };

    /** Host timestamp for complete(). Thread-safe. */
    double nowUs() const { return log_.nowUs(); }

    /**
     * Record a span that ran on a worker thread, on its own track.
     * Thread-safe; it is not nested under the main thread's spans
     * (their self time is the time they spent waiting for it).
     */
    void complete(const std::string &name, double start_us,
                  double dur_us);

    /** {name: {count, total_ms, self_ms}} over the main-thread spans. */
    nuca::json::Value selfTimes() const;

    bool write(const std::string &path) const;

  private:
    struct Open
    {
        std::string name;
        double startUs;
        double childUs;
    };
    struct Total
    {
        std::uint64_t count = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };

    nuca::TraceEventLog log_;
    std::vector<Open> open_;
    std::map<std::string, Total> totals_;
};

} // namespace nbench

#endif // NUCA_BENCHMARK_BENCH_HH
