/**
 * @file
 * trace_report: render a REPRO_TRACE telemetry trace (JSON lines; see
 * docs/TELEMETRY.md) as the paper's dynamic-behaviour views —
 * quota-vs-time and IPC-vs-time ASCII plots plus an epoch summary
 * table of the sharing engine's repartitioning decisions.
 *
 * Usage:
 *   trace_report <trace.jsonl> [plot-width]     time-series report
 *   trace_report --heatmap <trace.jsonl>        spatial cache view
 *                                               (REPRO_HEATMAP records)
 *   trace_report --export-trace <out.trace.json> <trace.jsonl>...
 *                                               convert to Chrome
 *                                               trace-event JSON, one
 *                                               process per file
 *   trace_report --check-trace <file.trace.json>
 *                                               validate a trace file
 *   trace_report --sweep <results.json.partial>
 *                                               sweep sidecar triage:
 *                                               per-status counts and
 *                                               every non-ok job
 *
 * Malformed or truncated trace lines (a killed writer, a torn tail)
 * and records with a field missing or mistyped are skipped and
 * counted; the count is reported on stderr instead of aborting the
 * report.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/sweep_store.hh"
#include "sim/trace_event.hh"

namespace {

using nuca::json::Value;

/** One per-core time series point. */
struct SamplePoint
{
    std::uint64_t cycle = 0;
    std::vector<double> ipc;
    std::vector<double> quota; // empty for non-adaptive schemes
};

/** One sharing-engine epoch record. */
struct EpochPoint
{
    std::uint64_t cycle = 0;
    std::uint64_t epoch = 0;
    int gainer = -1;
    int loser = -1;
    bool moved = false;
    std::vector<double> quotaAfter;
    std::vector<double> shadowHits;
    std::vector<double> lruHits;
};

/** Accumulated spatial heatmap (REPRO_HEATMAP records). */
struct HeatmapData
{
    unsigned banks = 0;
    unsigned buckets = 0;
    unsigned sets = 0;
    std::size_t records = 0;
    /** Bank-major interval deltas summed over the whole trace. */
    std::vector<std::uint64_t> access;
    std::vector<std::uint64_t> miss;
    /** The last record's instantaneous occupancy histograms. */
    std::vector<std::vector<std::uint64_t>> occupancy;
};

/** Everything parsed out of one trace file. */
struct Trace
{
    std::string scheme;
    unsigned cores = 0;
    std::uint64_t period = 0;
    std::vector<SamplePoint> samples;
    std::vector<EpochPoint> epochs;
    HeatmapData heat;
    std::size_t malformed = 0;
};

/** @p v when it has @p type. Every typed read below throws instead
 *  of panicking, so parseTrace can skip and count the record. */
const Value &
typed(const Value &v, Value::Type type)
{
    if (v.type() != type)
        throw std::runtime_error("mistyped field");
    return v;
}

/** Member @p key of @p object, of @p type. */
const Value &
member(const Value &object, const char *key,
       Value::Type type = Value::Type::Number)
{
    if (!object.contains(key))
        throw std::runtime_error(std::string("missing ") + key);
    return typed(object.at(key), type);
}

/** A count (Value::asCount) that fits T. */
template <typename T = std::uint64_t>
T
count(const Value &v)
{
    const auto n = v.asCount();
    if (!n || *n > std::numeric_limits<T>::max())
        throw std::runtime_error("not a count");
    return static_cast<T>(*n);
}

int
integer(const Value &v)
{
    const double n = typed(v, Value::Type::Number).asNumber();
    if (n != std::trunc(n) || n < std::numeric_limits<int>::min() ||
        n > std::numeric_limits<int>::max())
        throw std::runtime_error("not an int");
    return static_cast<int>(n);
}

std::vector<double>
numberArray(const Value &object, const char *key)
{
    std::vector<double> out;
    if (!object.contains(key))
        return out;
    const Value &arr = member(object, key, Value::Type::Array);
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push_back(typed(arr.at(i), Value::Type::Number).asNumber());
    return out;
}

void
addHeatmapGrid(const Value &rows, std::vector<std::uint64_t> &grid,
               unsigned banks, unsigned buckets)
{
    typed(rows, Value::Type::Array);
    for (unsigned b = 0; b < banks && b < rows.size(); ++b) {
        const Value &row = typed(rows.at(b), Value::Type::Array);
        for (unsigned k = 0; k < buckets && k < row.size(); ++k)
            grid[std::size_t(b) * buckets + k] += count(row.at(k));
    }
}

/** Larger than any simulated L3's grid: a bigger one is malformed,
 *  not an allocation the report would die of. */
constexpr std::uint64_t kMaxHeatmapCells = 1u << 20;

void
parseHeatmap(const Value &record, HeatmapData &heat)
{
    const auto banks = count<unsigned>(member(record, "banks"));
    const auto buckets = count<unsigned>(member(record, "buckets"));
    if (banks == 0 || buckets == 0)
        return;
    if (std::uint64_t(banks) * buckets > kMaxHeatmapCells)
        throw std::runtime_error("heatmap grid too large");
    // Read the whole record before touching the totals, so a
    // malformed one is skipped without half its grid added.
    HeatmapData next = heat;
    if (next.records == 0) {
        next.banks = banks;
        next.buckets = buckets;
        next.sets = count<unsigned>(member(record, "sets"));
        next.access.assign(std::size_t(banks) * buckets, 0);
        next.miss.assign(std::size_t(banks) * buckets, 0);
    } else if (banks != next.banks || buckets != next.buckets) {
        // A trace stitched from differently-configured runs; keep
        // the first geometry rather than mixing incompatible grids.
        return;
    }
    ++next.records;
    addHeatmapGrid(member(record, "access", Value::Type::Array),
                   next.access, banks, buckets);
    addHeatmapGrid(member(record, "miss", Value::Type::Array),
                   next.miss, banks, buckets);

    next.occupancy.clear();
    if (record.contains("occupancy")) {
        const Value &occ =
            member(record, "occupancy", Value::Type::Array);
        for (std::size_t r = 0; r < occ.size(); ++r) {
            std::vector<std::uint64_t> hist;
            const Value &row = typed(occ.at(r), Value::Type::Array);
            hist.reserve(row.size());
            for (std::size_t i = 0; i < row.size(); ++i)
                hist.push_back(count(row.at(i)));
            next.occupancy.push_back(std::move(hist));
        }
    }
    heat = std::move(next);
}

void
parseTrace(const std::string &text, Trace &trace)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty())
            continue;

        const auto record = Value::tryParse(line);
        if (!record || record->type() != Value::Type::Object ||
            !record->contains("type")) {
            // A torn tail from a killed writer, or plain garbage:
            // skip it, count it, keep reporting the good records.
            ++trace.malformed;
            continue;
        }
        // A record of a known type with fields missing or mistyped
        // is malformed too; classify per record, not per file.
        try {
            const std::string &type =
                member(*record, "type", Value::Type::String).asString();
            if (type == "meta") {
                if (record->contains("scheme"))
                    trace.scheme =
                        member(*record, "scheme", Value::Type::String)
                            .asString();
                if (record->contains("cores"))
                    trace.cores =
                        count<unsigned>(member(*record, "cores"));
                if (record->contains("period"))
                    trace.period = count(member(*record, "period"));
            } else if (type == "sample") {
                // Functional traces (fig3) sample by instruction
                // count and carry no per-core series; skip what is
                // absent.
                if (!record->contains("cycle") ||
                    !record->contains("cores"))
                    continue;
                SamplePoint point;
                point.cycle = count(member(*record, "cycle"));
                const Value &cores =
                    member(*record, "cores", Value::Type::Array);
                for (std::size_t c = 0; c < cores.size(); ++c) {
                    const Value &entry =
                        typed(cores.at(c), Value::Type::Object);
                    point.ipc.push_back(
                        member(entry, "ipc").asNumber());
                    if (entry.contains("quota"))
                        point.quota.push_back(
                            member(entry, "quota").asNumber());
                }
                trace.samples.push_back(std::move(point));
            } else if (type == "repartition") {
                EpochPoint point;
                point.cycle = count(member(*record, "cycle"));
                point.epoch = count(member(*record, "epoch"));
                point.gainer = integer(member(*record, "gainer"));
                point.loser = integer(member(*record, "loser"));
                point.moved =
                    member(*record, "moved", Value::Type::Bool).asBool();
                point.quotaAfter =
                    numberArray(*record, "quota_after");
                point.shadowHits =
                    numberArray(*record, "shadow_hits");
                point.lruHits = numberArray(*record, "lru_hits");
                trace.epochs.push_back(std::move(point));
            } else if (type == "heatmap") {
                parseHeatmap(*record, trace.heat);
            }
            // Unknown record types are ignored: traces are forward
            // compatible.
        } catch (const std::exception &) {
            ++trace.malformed;
        }
    }
}

/** Parse the trace at @p path, counting its skipped lines on stderr. */
Trace
readTrace(const std::string &path)
{
    Trace trace;
    parseTrace(nuca::json::readFile(path), trace);
    if (trace.malformed != 0) {
        std::fprintf(stderr,
                     "trace_report: skipped %zu malformed or "
                     "truncated line(s) in %s\n",
                     trace.malformed, path.c_str());
    }
    return trace;
}

char
coreMarker(std::size_t core)
{
    if (core < 10)
        return static_cast<char>('0' + core);
    return static_cast<char>('a' + (core - 10));
}

/**
 * Render per-core series as a grid plot: x = time bins over
 * [t0, t1], y = value, each core drawn with its digit marker,
 * collisions as '*'. @p series is per-core {cycle, value} points;
 * values are carried forward within a bin.
 */
void
plotSeries(const char *title,
           const std::vector<std::vector<
               std::pair<std::uint64_t, double>>> &series,
           unsigned width, unsigned height, bool integerAxis)
{
    std::uint64_t t0 = UINT64_MAX, t1 = 0;
    double lo = 0.0, hi = 0.0;
    bool any = false;
    for (const auto &s : series) {
        for (const auto &[t, v] : s) {
            t0 = std::min(t0, t);
            t1 = std::max(t1, t);
            if (!any) {
                lo = hi = v;
                any = true;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        }
    }
    if (!any) {
        std::printf("%s: no data\n\n", title);
        return;
    }
    if (integerAxis) {
        // Quota axes: one row per integral value.
        lo = std::floor(lo);
        hi = std::max(std::ceil(hi), lo + 1.0);
        height = static_cast<unsigned>(hi - lo) + 1;
    } else if (hi <= lo) {
        hi = lo + 1.0;
    }
    if (t1 == t0)
        t1 = t0 + 1;

    std::vector<std::string> grid(
        height, std::string(width, ' '));
    const auto rowOf = [&](double v) {
        const double frac = (v - lo) / (hi - lo);
        const int row = static_cast<int>(
            (static_cast<double>(height) - 1.0) * frac + 0.5);
        return std::clamp(row, 0, static_cast<int>(height) - 1);
    };

    for (std::size_t c = 0; c < series.size(); ++c) {
        const auto &points = series[c];
        if (points.empty())
            continue;
        std::size_t next = 0;
        double value = points[0].second;
        for (unsigned x = 0; x < width; ++x) {
            const std::uint64_t bin_end =
                t0 + (t1 - t0) * (x + 1) / width;
            while (next < points.size() &&
                   points[next].first <= bin_end)
                value = points[next++].second;
            char &cell = grid[rowOf(value)][x];
            cell = cell == ' ' ? coreMarker(c)
                   : cell == coreMarker(c) ? cell
                                           : '*';
        }
    }

    std::printf("%s\n", title);
    for (unsigned r = 0; r < height; ++r) {
        const unsigned row = height - 1 - r; // top = max
        const double label =
            lo + (hi - lo) * row /
                     (height > 1 ? static_cast<double>(height - 1)
                                 : 1.0);
        if (integerAxis)
            std::printf(" %4.0f |%s|\n", label, grid[row].c_str());
        else
            std::printf(" %7.3f |%s|\n", label, grid[row].c_str());
    }
    const int pad = integerAxis ? 6 : 9;
    std::printf("%*s+%s+\n", pad, "",
                std::string(width, '-').c_str());
    std::printf("%*scycle %llu .. %llu  (markers: one digit per "
                "core, '*' = overlap)\n\n",
                pad + 1, "", static_cast<unsigned long long>(t0),
                static_cast<unsigned long long>(t1));
}

double
sum(const std::vector<double> &values)
{
    double s = 0.0;
    for (const double v : values)
        s += v;
    return s;
}

/** Shade 0..1 into the " .:-=+*#%@" intensity ramp. */
char
shade(double frac)
{
    static const char ramp[] = " .:-=+*#%@";
    const int steps = static_cast<int>(sizeof(ramp)) - 2;
    const int i = static_cast<int>(frac * steps + 0.5);
    return ramp[std::clamp(i, 0, steps)];
}

void
printHeatmap(const Trace &trace)
{
    const HeatmapData &heat = trace.heat;
    if (heat.records == 0) {
        std::printf("no heatmap records in this trace.\n"
                    "(run the simulation with REPRO_HEATMAP=1 to "
                    "produce them)\n");
        return;
    }

    std::printf("spatial heatmap: %u banks x %u set-buckets "
                "(%u sets/bank, %zu records)\n\n",
                heat.banks, heat.buckets, heat.sets, heat.records);

    std::uint64_t maxAccess = 1;
    for (const std::uint64_t a : heat.access)
        maxAccess = std::max(maxAccess, a);

    std::printf("L3 accesses per bucket (darker = hotter, "
                "max %llu):\n",
                static_cast<unsigned long long>(maxAccess));
    for (unsigned b = 0; b < heat.banks; ++b) {
        std::string row;
        for (unsigned k = 0; k < heat.buckets; ++k) {
            const double v = static_cast<double>(
                heat.access[std::size_t(b) * heat.buckets + k]);
            // Log scale: cache traffic spans orders of magnitude,
            // and a linear ramp would blank everything but the
            // hottest bucket.
            row += shade(v <= 0.0 ? 0.0
                                  : std::log1p(v) /
                                        std::log1p(static_cast<double>(
                                            maxAccess)));
        }
        std::printf("  bank %2u |%s|\n", b, row.c_str());
    }

    std::printf("\nmiss rate per bucket (darker = more misses):\n");
    for (unsigned b = 0; b < heat.banks; ++b) {
        std::string row;
        for (unsigned k = 0; k < heat.buckets; ++k) {
            const std::size_t i = std::size_t(b) * heat.buckets + k;
            row += heat.access[i] == 0
                       ? ' '
                       : shade(static_cast<double>(heat.miss[i]) /
                               static_cast<double>(heat.access[i]));
        }
        std::printf("  bank %2u |%s|\n", b, row.c_str());
    }

    if (!heat.occupancy.empty()) {
        std::printf("\npartition occupancy (final record; mean "
                    "blocks per set):\n");
        for (std::size_t r = 0; r < heat.occupancy.size(); ++r) {
            const auto &hist = heat.occupancy[r];
            std::uint64_t setsTotal = 0, blocksTotal = 0;
            for (std::size_t k = 0; k < hist.size(); ++k) {
                setsTotal += hist[k];
                blocksTotal += hist[k] * k;
            }
            const double mean =
                setsTotal == 0 ? 0.0
                               : static_cast<double>(blocksTotal) /
                                     static_cast<double>(setsTotal);
            std::string bar;
            for (std::size_t k = 0; k < hist.size(); ++k) {
                bar += setsTotal == 0
                           ? ' '
                           : shade(static_cast<double>(hist[k]) /
                                   static_cast<double>(setsTotal));
            }
            std::printf("  core %2zu  mean %5.2f  0..%zu blocks "
                        "|%s|\n",
                        r, mean, hist.size() - 1, bar.c_str());
        }
    }
    std::printf("\n");
}

/**
 * Append one system's telemetry time series to @p events as Chrome
 * trace events on process @p pid, named @p name: per-core IPC (of
 * each sample interval) and quota become counter tracks,
 * repartitions become instant events. Timestamps are simulated
 * cycles.
 */
void
appendSystemTrack(const Trace &trace, int pid, const std::string &name,
                  Value &events)
{
    const auto emit = [&](const char *what, const char *ph,
                          std::uint64_t cycle, Value args) {
        Value event = Value::object();
        event.set("name", what);
        event.set("ph", ph);
        event.set("pid", pid);
        event.set("tid", 0);
        if (*ph != 'M')
            event.set("ts", static_cast<double>(cycle));
        if (*ph == 'i')
            event.set("s", "t"); // thread-scoped instant
        event.set("args", std::move(args));
        events.append(std::move(event));
    };
    const auto perCore = [](const std::vector<double> &values) {
        Value args = Value::object();
        for (std::size_t c = 0; c < values.size(); ++c)
            args.set("core" + std::to_string(c), values[c]);
        return args;
    };
    emit("process_name", "M", 0, Value::object().set("name", name));

    // Samples and epochs are each cycle-ordered streams, but the
    // merged stream must be too (validateChromeTrace checks per-track
    // monotonicity), so walk the two in lockstep.
    std::size_t s = 0, e = 0;
    while (s < trace.samples.size() || e < trace.epochs.size()) {
        if (e >= trace.epochs.size() ||
            (s < trace.samples.size() &&
             trace.samples[s].cycle <= trace.epochs[e].cycle)) {
            const SamplePoint &point = trace.samples[s++];
            emit("ipc", "C", point.cycle, perCore(point.ipc));
            if (!point.quota.empty())
                emit("quota", "C", point.cycle, perCore(point.quota));
        } else {
            const EpochPoint &point = trace.epochs[e++];
            Value args = Value::object();
            args.set("epoch", point.epoch);
            args.set("gainer", point.gainer);
            args.set("loser", point.loser);
            args.set("moved", point.moved);
            emit("repartition", "i", point.cycle, std::move(args));
        }
    }
}

/**
 * Convert JSONL telemetry traces into one Chrome trace-event file:
 * each input becomes its own process, pid 2, 3, ... in argument
 * order (pid 1 is the host track of a live REPRO_PERFETTO log),
 * named "sim:<file name without directory and extension>" (a sweep's
 * "out/trace.adaptive.mix0.jsonl" is "sim:trace.adaptive.mix0"). The
 * document must validate before it is written.
 */
int
exportTraces(const std::string &out,
             const std::vector<std::string> &inputs)
{
    Value events = Value::array();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        appendSystemTrack(readTrace(inputs[i]), static_cast<int>(i) + 2,
                          "sim:" + std::filesystem::path(inputs[i])
                                       .stem()
                                       .string(),
                          events);
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");

    std::string error;
    if (!nuca::validateChromeTrace(doc, &error)) {
        std::fprintf(stderr,
                     "trace_report: exported trace failed "
                     "validation: %s\n",
                     error.c_str());
        return 1;
    }
    nuca::json::writeFileAtomic(out, doc);
    std::printf("trace ok: wrote %s (%zu processes, %zu events)\n",
                out.c_str(), inputs.size(),
                doc.at("traceEvents").size());
    return 0;
}

/**
 * Triage a sweep-results sidecar: how every job settled, with one
 * row per non-ok job — the first place to look when a proc-isolated
 * sweep reports crashes or timeouts.
 */
int
sweepReport(const std::string &path)
{
    // Counts over every record, and the terminal records the tables
    // list, kept without their payloads.
    std::size_t records = 0;
    std::map<nuca::JobStatus, std::size_t> byStatus;
    bool timed = false;
    std::vector<nuca::SweepRecord> terminal;
    nuca::SweepStore::load(path, [&](nuca::SweepRecord &&record) {
        ++records;
        ++byStatus[record.status];
        timed = timed || record.timed;
        // Progress records (queued/preempted) show a job's journey,
        // not a failure; only its last settle carries final numbers.
        if (!nuca::isTerminal(record.status))
            return;
        record.result = {};
        terminal.push_back(std::move(record));
    });
    if (records == 0) {
        std::printf("sweep sidecar %s: no records\n", path.c_str());
        return 0;
    }

    // Count by status in the status table's (enum) order.
    std::printf("sweep sidecar: %s (%zu records)\n", path.c_str(),
                records);
    for (const auto &[status, name] : nuca::kJobStatusNames) {
        const auto it = byStatus.find(status);
        if (it != byStatus.end())
            std::printf("  %-12s %zu\n", name, it->second);
    }

    // Daemon journals (nuca_sweepd's jobs.jsonl) carry scheduling
    // telemetry on every record; render the queue-wait and
    // preemption columns whenever any record has it. Classic sweep
    // sidecars have none and keep the classic report.
    if (timed) {
        std::printf("\nscheduling (terminal records):\n");
        std::printf("  %-32s %-10s %10s %9s\n", "job", "status",
                    "queue_ms", "preempts");
        std::uint64_t total_wait = 0, total_preempts = 0,
                      timedTerminal = 0;
        for (const auto &record : terminal) {
            if (!record.timed)
                continue;
            std::printf("  %-32s %-10s %10llu %9llu\n",
                        record.label.c_str(),
                        nuca::to_string(record.status),
                        static_cast<unsigned long long>(
                            record.queueMs),
                        static_cast<unsigned long long>(
                            record.preempts));
            total_wait += record.queueMs;
            total_preempts += record.preempts;
            ++timedTerminal;
        }
        if (timedTerminal != 0) {
            std::printf("  %-32s %-10s %10.1f %9.2f\n", "mean", "",
                        static_cast<double>(total_wait) /
                            static_cast<double>(timedTerminal),
                        static_cast<double>(total_preempts) /
                            static_cast<double>(timedTerminal));
        }
    }

    bool anyBad = false;
    for (const auto &record : terminal) {
        if (record.status == nuca::JobStatus::Ok ||
            record.status == nuca::JobStatus::CacheHit)
            continue;
        if (!anyBad) {
            std::printf("\nnon-ok jobs:\n");
            anyBad = true;
        }
        std::printf("  %-24s %-12s %s\n", record.label.c_str(),
                    nuca::to_string(record.status),
                    record.error.c_str());
    }
    if (!anyBad)
        std::printf("all jobs ok\n");
    return 0;
}

int
checkTraceFile(const std::string &path)
{
    const auto doc = Value::tryParse(nuca::json::readFile(path));
    if (!doc) {
        std::fprintf(stderr,
                     "trace_report: %s is not valid JSON\n",
                     path.c_str());
        return 1;
    }
    std::string error;
    if (!nuca::validateChromeTrace(*doc, &error)) {
        std::fprintf(stderr, "trace_report: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    const std::size_t events =
        doc->type() == Value::Type::Object
            ? doc->at("traceEvents").size()
            : doc->size();
    std::printf("trace ok: %s (%zu events)\n", path.c_str(), events);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool heatmapMode = false;
    std::string exportPath;
    std::string checkPath;
    std::string sweepPath;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--heatmap") {
            heatmapMode = true;
        } else if (arg == "--export-trace") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--export-trace needs a path\n");
                return 1;
            }
            exportPath = argv[++i];
        } else if (arg == "--check-trace") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--check-trace needs a path\n");
                return 1;
            }
            checkPath = argv[++i];
        } else if (arg == "--sweep") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--sweep needs a path\n");
                return 1;
            }
            sweepPath = argv[++i];
        } else {
            positional.push_back(arg);
        }
    }

    if (!checkPath.empty())
        return checkTraceFile(checkPath);
    if (!sweepPath.empty())
        return sweepReport(sweepPath);
    if (!exportPath.empty() && !positional.empty())
        return exportTraces(exportPath, positional);

    if (!exportPath.empty() || positional.empty() ||
        positional.size() > 2) {
        std::fprintf(stderr,
                     "usage: trace_report [--heatmap] "
                     "<trace.jsonl> [plot-width]\n"
                     "       trace_report --export-trace "
                     "<out.trace.json> <trace.jsonl>...\n"
                     "       trace_report --check-trace "
                     "<file.trace.json>\n"
                     "       trace_report --sweep "
                     "<results.json.partial>\n");
        return 1;
    }
    const std::string path = positional[0];
    const unsigned width =
        positional.size() == 2
            ? std::max(16u, static_cast<unsigned>(
                                std::atoi(positional[1].c_str())))
            : 72;

    const Trace trace = readTrace(path);

    if (heatmapMode) {
        std::printf("trace: %s\n", path.c_str());
        std::printf("scheme: %s, %u cores\n\n",
                    trace.scheme.empty() ? "?"
                                         : trace.scheme.c_str(),
                    trace.cores);
        printHeatmap(trace);
    } else {
        std::printf("trace: %s\n", path.c_str());
        std::printf("scheme: %s, %u cores, sample period %llu\n",
                    trace.scheme.empty() ? "?"
                                         : trace.scheme.c_str(),
                    trace.cores,
                    static_cast<unsigned long long>(trace.period));
        std::printf("%zu samples, %zu repartition events\n\n",
                    trace.samples.size(), trace.epochs.size());

        const std::size_t cores = [&] {
            std::size_t n = trace.cores;
            for (const auto &s : trace.samples)
                n = std::max(n, s.ipc.size());
            for (const auto &e : trace.epochs)
                n = std::max(n, e.quotaAfter.size());
            return n;
        }();

        // ---- quota vs time --------------------------------------
        // Prefer the dense per-sample quota series; fall back to the
        // step function of the repartition events.
        std::vector<std::vector<std::pair<std::uint64_t, double>>>
            quotaSeries(cores);
        for (const auto &s : trace.samples) {
            for (std::size_t c = 0; c < s.quota.size(); ++c)
                quotaSeries[c].emplace_back(s.cycle, s.quota[c]);
        }
        if (quotaSeries.empty() || quotaSeries[0].empty()) {
            for (const auto &e : trace.epochs) {
                for (std::size_t c = 0; c < e.quotaAfter.size(); ++c)
                    quotaSeries[c].emplace_back(e.cycle,
                                                e.quotaAfter[c]);
            }
        }
        plotSeries("quota (blocks/set) vs time", quotaSeries, width,
                   0, /*integerAxis=*/true);

        // ---- IPC vs time ----------------------------------------
        std::vector<std::vector<std::pair<std::uint64_t, double>>>
            ipcSeries(cores);
        for (const auto &s : trace.samples) {
            for (std::size_t c = 0; c < s.ipc.size(); ++c)
                ipcSeries[c].emplace_back(s.cycle, s.ipc[c]);
        }
        plotSeries("IPC (per sample interval) vs time", ipcSeries,
                   width, 12, /*integerAxis=*/false);

        // ---- epoch summary --------------------------------------
        if (trace.epochs.empty()) {
            std::printf("no repartition events in this trace.\n");
        } else {
            std::printf("epoch summary (%zu epochs",
                        trace.epochs.size());
            std::size_t moves = 0;
            for (const auto &e : trace.epochs)
                moves += e.moved ? 1 : 0;
            std::printf(", %zu moves):\n", moves);
            std::printf("%8s %12s %6s %6s %6s %12s %10s  %s\n",
                        "epoch", "cycle", "gain", "lose", "moved",
                        "shadow_hits", "lru_hits", "quotas after");

            // Long runs are thinned to ~40 evenly spaced rows; the
            // table is a summary, the full data stays in the trace.
            const std::size_t step = std::max<std::size_t>(
                1, trace.epochs.size() / 40);
            for (std::size_t i = 0; i < trace.epochs.size();
                 i += step) {
                const auto &e = trace.epochs[i];
                std::string quotas;
                for (const double q : e.quotaAfter) {
                    if (!quotas.empty())
                        quotas += ' ';
                    char buf[16];
                    std::snprintf(buf, sizeof(buf), "%.0f", q);
                    quotas += buf;
                }
                std::printf(
                    "%8llu %12llu %6d %6d %6s %12.0f %10.0f  "
                    "[%s]\n",
                    static_cast<unsigned long long>(e.epoch),
                    static_cast<unsigned long long>(e.cycle),
                    e.gainer, e.loser, e.moved ? "yes" : "-",
                    sum(e.shadowHits), sum(e.lruHits),
                    quotas.c_str());
            }
            if (step > 1)
                std::printf("(every %zuth epoch shown)\n", step);
        }
    }

    return 0;
}
