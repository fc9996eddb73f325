#include "sim/sweep_store.hh"

#include <cstdlib>
#include <fstream>
#include <span>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "base/logging.hh"
#include "sim/checkpoint.hh"

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

/** Every payload field and its name, in write order. */
constexpr std::pair<const char *, std::vector<double> MixResult::*>
    payloadFields[] = {{"ipc", &MixResult::ipc},
                       {"l3apk", &MixResult::l3AccessesPerKilocycle},
                       {"l1d_miss", &MixResult::l1dMissRatio},
                       {"l2d_miss", &MixResult::l2dMissRatio},
                       {"l3_miss", &MixResult::l3MissRatio},
                       {"mispredict", &MixResult::mispredictRate},
                       {"curve", &MixResult::curve}};
constexpr std::size_t kIpc = 0, kL3apk = 1, kCurve = 6;

/** The per-core diagnostic vectors; a result with IPCs carries each
 *  of them, one entry per core. */
constexpr std::span perCoreFields(payloadFields + 2, 4);

/** Inverse of hex16. @throws SimulationError unless @p text is
 *  exactly hex16's form. */
std::uint64_t
keyFromHex(const std::string &text)
{
    const std::uint64_t key = std::strtoull(text.c_str(), nullptr, 16);
    if (hex16(key) != text)
        throw SimulationError("sweep record key is not 16 hex digits");
    return key;
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
        (line.contains("key") && !typed("key", Type::String)) ||
        (line.contains("error") && !typed("error", Type::String)) ||
        !countOrAbsent("queue_ms") || !countOrAbsent("preempts"))
        throw SimulationError("mistyped sweep record");

    SweepRecord record;
    record.label = line.at("label").asString();
    if (line.contains("key"))
        record.key = keyFromHex(line.at("key").asString());
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

void
writeMixResultMembers(json::Writer &out, const MixResult &result)
{
    const auto numbers = [&](const char *key,
                             const std::vector<double> &values) {
        out.key(key);
        out.beginArray();
        for (const double v : values)
            out.number(v);
        out.endArray();
    };
    numbers("ipc", result.ipc);
    numbers("l3apk", result.l3AccessesPerKilocycle);
    if (!result.ipc.empty()) {
        for (const auto &[key, field] : perCoreFields)
            numbers(key, result.*field);
    }
    if (!result.curve.empty())
        numbers("curve", result.curve);
}

std::string
encodeMixResult(const MixResult &result)
{
    std::string text;
    json::Writer out(text);
    out.beginObject();
    writeMixResultMembers(out, result);
    out.endObject();
    return text;
}

bool
MixResultReader::member(json::Cursor &in, const std::string &name,
                        unsigned depth)
{
    Slot *slot = nullptr;
    for (std::size_t i = 0; i < std::size(payloadFields); ++i) {
        if (name == payloadFields[i].first) {
            slot = &slots_[i];
            break;
        }
    }
    if (slot == nullptr)
        return in.skip(depth);
    slot->values.clear();
    if (in.peek() != '[') {
        slot->state = Field::Bad;
        return in.skip(depth);
    }
    slot->state = Field::Numbers;
    return in.array(depth, [&](unsigned d) {
        if (!in.atNumber()) {
            slot->state = Field::Bad;
            return in.skip(d);
        }
        double v;
        if (!in.number(v))
            return false;
        slot->values.push_back(v);
        return true;
    });
}

std::optional<MixResult>
MixResultReader::take()
{
    // mixResultFromJson's checks, in terms of the slots: an absent
    // field reads as empty, a bad one throws wherever it is read.
    for (const std::size_t i : {kIpc, kL3apk, kCurve}) {
        if (slots_[i].state == Field::Bad)
            return std::nullopt;
    }
    MixResult result;
    result.ipc = std::move(slots_[kIpc].values);
    result.l3AccessesPerKilocycle = std::move(slots_[kL3apk].values);
    if (!result.ipc.empty()) {
        if (result.l3AccessesPerKilocycle.size() != result.ipc.size())
            return std::nullopt;
        for (std::size_t i = 0; i < perCoreFields.size(); ++i) {
            Slot &slot = slots_[2 + i];
            if (slot.state != Field::Numbers ||
                slot.values.size() != result.ipc.size())
                return std::nullopt;
            result.*perCoreFields[i].second = std::move(slot.values);
        }
    }
    result.curve = std::move(slots_[kCurve].values);
    return result;
}

bool
readMixResult(json::Cursor &in, unsigned depth,
              std::optional<MixResult> &out)
{
    out.reset();
    if (!in.canEnter(depth))
        return false;
    if (in.peek() != '{')
        return in.skip(depth);
    MixResultReader reader;
    if (!in.object(depth, [&](const std::string &name, unsigned d) {
            return reader.member(in, name, d);
        }))
        return false;
    out = reader.take();
    return true;
}

std::optional<MixResult>
decodeMixResult(std::string_view text)
{
    json::Cursor in(text);
    in.skipWs();
    std::optional<MixResult> result;
    if (!readMixResult(in, 0, result) || !in.atDocumentEnd())
        return std::nullopt;
    return result;
}

json::Value
mixResultToJson(const MixResult &result)
{
    json::Value obj = json::Value::object();
    obj.set("ipc", doubleArray(result.ipc));
    obj.set("l3apk", doubleArray(result.l3AccessesPerKilocycle));
    if (!result.ipc.empty()) {
        for (const auto &[key, field] : perCoreFields)
            obj.set(key, doubleArray(result.*field));
    }
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
    // A payload written before the diagnostics existed must not
    // decode as a row of zeros: it is as unusable as a torn one.
    if (!result.ipc.empty()) {
        if (result.l3AccessesPerKilocycle.size() != result.ipc.size())
            throw SimulationError(
                "result field \"l3apk\" is not one per core");
        for (const auto &[key, field] : perCoreFields) {
            if (!obj.contains(key))
                throw SimulationError(std::string("result field \"") +
                                      key + "\" is missing");
            result.*field = numberVector(obj.at(key), key);
            if ((result.*field).size() != result.ipc.size())
                throw SimulationError(std::string("result field \"") +
                                      key + "\" is not one per core");
        }
    }
    if (obj.contains("curve"))
        result.curve = numberVector(obj.at("curve"), "curve");
    return result;
}

SweepStore::SweepStore(std::string path, bool sync)
    : path_(std::move(path)), sync_(sync)
{
    file_ = std::fopen(path_.c_str(), "a+");
    fatal_if(file_ == nullptr, "sweep store: cannot open '", path_,
             "' for appending");
    // A killed run can leave a torn last line. End it, so the first
    // record appended now is a line of its own and not glued onto
    // the fragment (which load() would skip, record and all).
    const bool torn = std::fseek(file_, -1, SEEK_END) == 0 &&
                      std::fgetc(file_) != '\n';
    std::fseek(file_, 0, SEEK_END); // a write after a read needs it
    fatal_if(torn && (std::fputc('\n', file_) == EOF ||
                      std::fflush(file_) != 0),
             "sweep store: short write to '", path_, "'");
}

SweepStore::~SweepStore()
{
    std::fclose(file_);
}

void
SweepStore::append(const SweepRecord &record)
{
    append(record, encodeMixResult(record.result));
}

void
SweepStore::append(const SweepRecord &record, std::string_view payload)
{
    std::string text;
    json::Writer line(text);
    line.beginObject();
    line.key("label");
    line.string(record.label);
    if (record.key) {
        line.key("key");
        line.string(hex16(*record.key));
    }
    line.key("status");
    line.string(to_string(record.status));
    if (!record.error.empty()) {
        line.key("error");
        line.string(record.error);
    }
    // The payload's members, spliced between its braces.
    line.rawMembers(payload.substr(1, payload.size() - 2));
    if (record.timed) {
        line.key("queue_ms");
        line.number(static_cast<double>(record.queueMs));
        line.key("preempts");
        line.number(static_cast<double>(record.preempts));
    }
    line.endObject();
    text += '\n';

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

void
SweepStore::load(const std::string &path,
                 const std::function<void(SweepRecord &&)> &onRecord)
{
    // One line at a time through one reused buffer, so the file is
    // never held whole; a missing file reads as empty.
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto parsed = json::Value::tryParse(line);
        // A torn trailing line is the expected signature of a killed
        // run; skip it (and anything else unparsable or mistyped)
        // rather than die.
        if (!parsed)
            continue;
        std::optional<SweepRecord> record;
        try {
            record = recordFromJson(*parsed);
        } catch (const SimulationError &) {
            continue;
        }
        onRecord(std::move(*record));
    }
}

} // namespace nuca
