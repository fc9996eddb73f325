#include "sim/trace_event.hh"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "base/logging.hh"

namespace nuca {

TraceEventLog &
TraceEventLog::global()
{
    static TraceEventLog log;
    return log;
}

void
TraceEventLog::configure(const std::string &path,
                         std::size_t max_events)
{
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = path;
    maxEvents_ = max_events;
    dropped_ = 0;
    pending_ = true;
    epoch_ = std::chrono::steady_clock::now();
    meta_.clear();
    events_.clear();
    open_.clear();
    meta_.push_back(Event{0.0, 0.0, kHostPid, 0, 'M', "process_name",
                          json::Value::object().set("name", "host")});
    enabled_.store(true, std::memory_order_relaxed);
}

void
TraceEventLog::disable()
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_.store(false, std::memory_order_relaxed);
    pending_ = false;
}

int
TraceEventLog::newThread(int pid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Tids only need to be unique within their pid; giving every
    // named thread track a fresh number keeps callers from having
    // to coordinate.
    int tid = 1;
    for (const auto &m : meta_) {
        if (m.pid == pid && m.ph == 'M' && m.name == "thread_name")
            ++tid;
    }
    meta_.push_back(Event{0.0, 0.0, pid, tid, 'M', "thread_name",
                          json::Value::object().set("name", name)});
    return tid;
}

double
TraceEventLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
TraceEventLog::push(Event e)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_.load(std::memory_order_relaxed))
        return;
    bool keep = events_.size() < maxEvents_;
    const auto track = std::make_pair(e.pid, e.tid);
    if (e.ph == 'B') {
        open_[track].push_back(keep);
    } else if (e.ph == 'E') {
        // An E shares its B's fate: kept past the cap when the B was
        // kept, so a full log still closes every span it opened.
        const auto it = open_.find(track);
        if (it != open_.end()) {
            keep = it->second.back();
            it->second.pop_back();
            if (it->second.empty())
                open_.erase(it);
        }
    }
    if (!keep) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(e));
}

void
TraceEventLog::begin(int pid, int tid, const std::string &name,
                     double ts_us)
{
    push(Event{ts_us, 0.0, pid, tid, 'B', name, json::Value()});
}

void
TraceEventLog::end(int pid, int tid, const std::string &name,
                   double ts_us)
{
    push(Event{ts_us, 0.0, pid, tid, 'E', name, json::Value()});
}

void
TraceEventLog::complete(int pid, int tid, const std::string &name,
                        double ts_us, double dur_us, json::Value args)
{
    push(Event{ts_us, dur_us, pid, tid, 'X', name, std::move(args)});
}

void
TraceEventLog::instant(int pid, int tid, const std::string &name,
                       double ts_us, json::Value args)
{
    push(Event{ts_us, 0.0, pid, tid, 'i', name, std::move(args)});
}

std::size_t
TraceEventLog::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::uint64_t
TraceEventLog::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

json::Value
TraceEventLog::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value doc = json::Value::object();
    doc.set("displayTimeUnit", "ms");
    json::Value list = json::Value::array();
    auto emit = [&list](const Event &e) {
        json::Value ev = json::Value::object();
        ev.set("name", e.name);
        ev.set("ph", std::string(1, e.ph));
        ev.set("pid", e.pid);
        ev.set("tid", e.tid);
        if (e.ph != 'M')
            ev.set("ts", e.ts);
        if (e.ph == 'X')
            ev.set("dur", e.dur);
        if (e.ph == 'i')
            ev.set("s", "t"); // thread-scoped instant
        if (!e.args.isNull())
            ev.set("args", e.args);
        list.append(std::move(ev));
    };
    for (const auto &e : meta_)
        emit(e);
    for (const auto &e : events_)
        emit(e);
    doc.set("traceEvents", std::move(list));
    if (dropped_)
        doc.set("droppedEvents", std::uint64_t(dropped_));
    return doc;
}

bool
TraceEventLog::writeTo(const std::string &path) const
{
    const std::string error =
        json::tryWriteTextAtomic(path, toJson().dump() + "\n");
    if (!error.empty())
        warn("trace events: ", error);
    return error.empty();
}

bool
TraceEventLog::writeIfPending()
{
    std::string path;
    std::uint64_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!pending_ || path_.empty())
            return false;
        pending_ = false;
        path = path_;
        dropped = dropped_;
    }
    if (dropped)
        warn("trace events: dropped ", dropped, " events past the cap");
    const bool ok = writeTo(path);
    if (ok)
        inform("trace events: wrote ", path);
    return ok;
}

namespace {

/** A pid or tid: an integral number in int range. */
bool
trackId(const json::Value &v, int &out)
{
    if (v.type() != json::Value::Type::Number)
        return false;
    const double n = v.asNumber();
    if (n != std::trunc(n) || n < std::numeric_limits<int>::min() ||
        n > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(n);
    return true;
}

} // namespace

bool
validateChromeTrace(const json::Value &doc, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    const json::Value *eventsPtr = nullptr;
    if (doc.type() == json::Value::Type::Array) {
        eventsPtr = &doc; // the bare-array flavour of the format
    } else if (doc.type() == json::Value::Type::Object) {
        if (!doc.contains("traceEvents"))
            return fail("missing traceEvents array");
        eventsPtr = &doc.at("traceEvents");
        if (eventsPtr->type() != json::Value::Type::Array)
            return fail("traceEvents is not an array");
    } else {
        return fail("document is neither object nor array");
    }

    // Per-(pid, tid) monotonicity and per-track B/E stacks.
    std::map<std::pair<int, int>, double> lastTs;
    std::map<std::pair<int, int>, std::vector<std::string>> stacks;

    for (std::size_t i = 0; i < eventsPtr->size(); ++i) {
        const json::Value &ev = eventsPtr->at(i);
        const std::string where = "event " + std::to_string(i);
        if (ev.type() != json::Value::Type::Object)
            return fail(where + ": not an object");
        if (!ev.contains("ph") ||
            ev.at("ph").type() != json::Value::Type::String ||
            ev.at("ph").asString().size() != 1)
            return fail(where + ": missing one-char ph");
        const char ph = ev.at("ph").asString()[0];
        int pid = 0;
        int tid = 0; // optional
        if (!ev.contains("pid") || !trackId(ev.at("pid"), pid) ||
            (ev.contains("tid") && !trackId(ev.at("tid"), tid)))
            return fail(where + ": pid and tid must be integers in "
                                "int range (pid is required)");
        if (ph == 'M')
            continue; // metadata carries no timestamp

        if (ph != 'B' && ph != 'E' && ph != 'X' && ph != 'i' &&
            ph != 'C')
            return fail(where + ": unsupported ph '" +
                        std::string(1, ph) + "'");
        if (!ev.contains("ts") ||
            ev.at("ts").type() != json::Value::Type::Number)
            return fail(where + ": missing numeric ts");
        const double ts = ev.at("ts").asNumber();
        const auto track = std::make_pair(pid, tid);
        const auto it = lastTs.find(track);
        if (it != lastTs.end() && ts < it->second)
            return fail(where + ": ts " + std::to_string(ts) +
                        " goes backwards on track pid=" +
                        std::to_string(pid) +
                        " tid=" + std::to_string(tid));
        lastTs[track] = ts;

        const bool named =
            ev.contains("name") &&
            ev.at("name").type() == json::Value::Type::String;
        if (ph != 'E' && !named)
            return fail(where + ": missing name");

        if (ph == 'B') {
            stacks[track].push_back(ev.at("name").asString());
        } else if (ph == 'E') {
            auto &stack = stacks[track];
            if (stack.empty())
                return fail(where + ": E without matching B on "
                                    "track pid=" +
                            std::to_string(pid) +
                            " tid=" + std::to_string(tid));
            if (named && ev.at("name").asString() != stack.back())
                return fail(where + ": E name '" +
                            ev.at("name").asString() +
                            "' does not match open B '" +
                            stack.back() + "'");
            stack.pop_back();
        } else if (ph == 'X') {
            if (!ev.contains("dur") ||
                ev.at("dur").type() != json::Value::Type::Number ||
                ev.at("dur").asNumber() < 0)
                return fail(where + ": X without nonnegative dur");
        }
    }

    for (const auto &[track, stack] : stacks) {
        if (!stack.empty())
            return fail("unclosed B event '" + stack.back() +
                        "' on track pid=" +
                        std::to_string(track.first) +
                        " tid=" + std::to_string(track.second));
    }
    return true;
}

} // namespace nuca
