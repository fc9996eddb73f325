#include "sim/sweep_store.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "base/logging.hh"

namespace nuca {

namespace {

json::Value
doubleArray(const std::vector<double> &values)
{
    json::Value arr = json::Value::array();
    for (const double v : values)
        arr.append(v);
    return arr;
}

/** @throws SimulationError unless @p arr is an array of numbers. */
std::vector<double>
numberVector(const json::Value &arr, const char *key)
{
    if (arr.type() != json::Value::Type::Array)
        throw SimulationError(std::string("result field \"") + key +
                              "\" is not an array");
    std::vector<double> out;
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) {
        if (arr.at(i).type() != json::Value::Type::Number)
            throw SimulationError(std::string("result field \"") +
                                  key + "\" holds a non-number");
        out.push_back(arr.at(i).asNumber());
    }
    return out;
}

/** Decode one sidecar line. @throws SimulationError when a field
 *  is mistyped. */
SweepRecord
recordFromJson(const json::Value &line)
{
    using Type = json::Value::Type;
    const auto typed = [&](const char *key, Type type) {
        return line.contains(key) && line.at(key).type() == type;
    };
    const auto countOrAbsent = [&](const char *key) {
        return !line.contains(key) || line.at(key).asCount();
    };
    if (!typed("label", Type::String) || !typed("status", Type::String) ||
        (line.contains("error") && !typed("error", Type::String)) ||
        !countOrAbsent("queue_ms") || !countOrAbsent("preempts"))
        throw SimulationError("mistyped sweep record");

    SweepRecord record;
    record.label = line.at("label").asString();
    record.status = jobStatusFromString(line.at("status").asString());
    if (line.contains("error"))
        record.error = line.at("error").asString();
    record.result = mixResultFromJson(line);
    if (line.contains("queue_ms")) {
        record.timed = true;
        record.queueMs = *line.at("queue_ms").asCount();
        if (line.contains("preempts"))
            record.preempts = *line.at("preempts").asCount();
    }
    return record;
}

} // namespace

json::Value
mixResultToJson(const MixResult &result)
{
    json::Value obj = json::Value::object();
    obj.set("ipc", doubleArray(result.ipc));
    obj.set("l3apk", doubleArray(result.l3AccessesPerKilocycle));
    // Only miss-curve service jobs carry a curve; omitting the key
    // otherwise keeps classic records byte-identical.
    if (!result.curve.empty())
        obj.set("curve", doubleArray(result.curve));
    return obj;
}

MixResult
mixResultFromJson(const json::Value &obj)
{
    if (obj.type() != json::Value::Type::Object)
        throw SimulationError("result is not a JSON object");
    MixResult result;
    if (obj.contains("ipc"))
        result.ipc = numberVector(obj.at("ipc"), "ipc");
    if (obj.contains("l3apk")) {
        result.l3AccessesPerKilocycle =
            numberVector(obj.at("l3apk"), "l3apk");
    }
    if (obj.contains("curve"))
        result.curve = numberVector(obj.at("curve"), "curve");
    return result;
}

SweepStore::SweepStore(std::string path, bool sync)
    : path_(std::move(path)), sync_(sync)
{
    file_ = std::fopen(path_.c_str(), "a");
    fatal_if(file_ == nullptr, "sweep store: cannot open '", path_,
             "' for appending");
}

SweepStore::~SweepStore()
{
    std::fclose(file_);
}

void
SweepStore::append(const SweepRecord &record)
{
    json::Value line = json::Value::object();
    line.set("label", record.label);
    line.set("status", to_string(record.status));
    if (!record.error.empty())
        line.set("error", record.error);
    const json::Value payload = mixResultToJson(record.result);
    line.set("ipc", payload.at("ipc"));
    line.set("l3apk", payload.at("l3apk"));
    if (payload.contains("curve"))
        line.set("curve", payload.at("curve"));
    if (record.timed) {
        line.set("queue_ms", record.queueMs);
        line.set("preempts", record.preempts);
    }
    const std::string text = line.dump() + "\n";

    std::lock_guard<std::mutex> guard(mutex_);
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), file_);
    // The sidecar IS the crash-safety mechanism; losing it silently
    // would defeat its purpose, so short writes are fatal.
    fatal_if(written != text.size() || std::fflush(file_) != 0,
             "sweep store: short write to '", path_, "'");
#if defined(__unix__) || defined(__APPLE__)
    // fflush hands the bytes to the kernel (enough to survive this
    // process dying, the default guarantee); REPRO_SYNC=1 pushes
    // them to stable storage so even a host crash loses at most the
    // in-flight record.
    fatal_if(sync_ && ::fsync(::fileno(file_)) != 0,
             "sweep store: fsync failed on '", path_, "'");
#endif
}

std::vector<SweepRecord>
SweepStore::load(const std::string &path)
{
    std::vector<SweepRecord> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty())
            continue;
        const auto parsed = json::Value::tryParse(line);
        // A torn trailing line is the expected signature of a killed
        // run; skip it (and anything else unparsable or mistyped)
        // rather than die.
        if (!parsed)
            continue;
        try {
            out.push_back(recordFromJson(*parsed));
        } catch (const SimulationError &) {
        }
    }
    return out;
}

} // namespace nuca
