#include "service/job_spec.hh"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "base/parse_count.hh"
#include "sim/checkpoint.hh"
#include "workload/miss_curve.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace service {

const char *
to_string(JobKind kind)
{
    switch (kind) {
      case JobKind::Mix: return "mix";
      case JobKind::MissCurve: return "miss_curve";
    }
    return "unknown";
}

L3Scheme
schemeFromString(const std::string &name)
{
    if (name == "private") return L3Scheme::Private;
    if (name == "shared") return L3Scheme::Shared;
    if (name == "adaptive") return L3Scheme::Adaptive;
    if (name == "random") return L3Scheme::RandomReplacement;
    throw SpecError("unknown scheme \"" + name +
                    "\" (want private|shared|adaptive|random)");
}

namespace {

JobKind
kindFromString(const std::string &name)
{
    if (name == "mix") return JobKind::Mix;
    if (name == "miss_curve") return JobKind::MissCurve;
    throw SpecError("unknown kind \"" + name +
                    "\" (want mix|miss_curve)");
}

// Guarded accessors: json::Value::at/as* panic on a shape mismatch,
// which would kill the daemon on a malformed request. These turn
// every shape error into a SpecError the protocol layer reports back
// to the client instead.
const json::Value &
member(const json::Value &obj, const std::string &key)
{
    if (obj.type() != json::Value::Type::Object || !obj.contains(key))
        throw SpecError("missing field \"" + key + "\"");
    return obj.at(key);
}

std::string
getString(const json::Value &obj, const std::string &key)
{
    const json::Value &v = member(obj, key);
    if (v.type() != json::Value::Type::String)
        throw SpecError("field \"" + key + "\" must be a string");
    return v.asString();
}

std::string
getStringOr(const json::Value &obj, const std::string &key,
            const std::string &def)
{
    if (obj.type() != json::Value::Type::Object || !obj.contains(key))
        return def;
    return getString(obj, key);
}

double
getNumber(const json::Value &obj, const std::string &key)
{
    const json::Value &v = member(obj, key);
    if (v.type() != json::Value::Type::Number)
        throw SpecError("field \"" + key + "\" must be a number");
    return v.asNumber();
}

std::uint64_t
getUnsignedOr(const json::Value &obj, const std::string &key,
              std::uint64_t def)
{
    if (obj.type() != json::Value::Type::Object || !obj.contains(key))
        return def;
    if (const auto n = member(obj, key).asCount())
        return *n;
    throw SpecError("field \"" + key +
                    "\" must be a non-negative integer below 2^64");
}

/**
 * Seeds are 64-bit and a JSON number only carries 53 mantissa bits,
 * so the codec ships them as decimal strings; a plain number is also
 * accepted for hand-written small seeds.
 */
std::uint64_t
getSeedOr(const json::Value &obj, const std::string &key,
          std::uint64_t def)
{
    if (obj.type() != json::Value::Type::Object || !obj.contains(key))
        return def;
    const json::Value &v = obj.at(key);
    if (v.type() != json::Value::Type::String)
        return getUnsignedOr(obj, key, def);
    try {
        return parseCount("field \"" + key + "\"", v.asString());
    } catch (const std::invalid_argument &e) {
        throw SpecError(e.what());
    }
}

/** The base + scheme preset a spec's overrides apply to. */
SystemConfig
presetOf(const JobSpec &spec)
{
    const L3Scheme parsed = schemeFromString(spec.scheme);
    if (spec.base == "baseline")
        return SystemConfig::baseline(parsed);
    if (spec.base == "quad_private") {
        if (parsed != L3Scheme::Private)
            throw SpecError(
                "base \"quad_private\" implies scheme private");
        return SystemConfig::quadSizePrivate();
    }
    if (spec.base == "large8mb")
        return SystemConfig::large8MB(parsed);
    if (spec.base == "scaled_tech")
        return SystemConfig::scaledTech(parsed);
    throw SpecError(
        "unknown base \"" + spec.base +
        "\" (want baseline|quad_private|large8mb|scaled_tech)");
}

/** l3MissCurve with REPRO_TRACE-style telemetry on its sample hook:
 *  one trace per job, named by its display label. */
MixResult
missCurveJob(const JobSpec &spec, const TelemetryConfig &telemetry)
{
    const WorkloadProfile *profile = findProfile(spec.apps.at(0));
    if (profile == nullptr)
        throw SpecError("unknown application \"" + spec.apps.at(0) +
                        "\"");
    std::unique_ptr<TraceSink> trace;
    if (telemetry.enabled())
        trace = std::make_unique<JsonlTraceSink>(
            tracePathFor(telemetry.tracePath, spec.displayLabel()));
    MissCurveSampleFn sample;
    if (trace) {
        json::Value meta = json::Value::object();
        meta.set("type", "meta");
        meta.set("scheme", "fig3_replay");
        meta.set("app", profile->name);
        meta.set("period", telemetry.samplePeriod);
        trace->write(meta);
        sample = [&trace](std::uint64_t inst,
                          const std::vector<Counter> &per_way) {
            json::Value record = json::Value::object();
            record.set("type", "sample");
            record.set("inst", inst);
            json::Value misses = json::Value::array();
            for (const Counter m : per_way)
                misses.append(m);
            record.set("misses_per_way", std::move(misses));
            trace->write(record);
        };
    }
    const std::vector<Counter> counts = l3MissCurve(
        *profile, spec.insts, sample, telemetry.samplePeriod);
    MixResult result;
    result.curve.assign(counts.begin(), counts.end());
    return result;
}

} // namespace

SystemConfig
JobSpec::config() const
{
    const SystemConfig preset = presetOf(*this);
    if (overrides.contains("scheme"))
        throw SpecError("override \"scheme\": set the spec's "
                        "\"scheme\" instead");
    try {
        return applyConfigOverrides(preset, overrides);
    } catch (const ConfigError &e) {
        throw SpecError(e.what());
    }
}

void
JobSpec::validate() const
{
    for (const std::string &app : apps) {
        if (findProfile(app) == nullptr)
            throw SpecError("unknown application \"" + app + "\"");
    }
    if (kind == JobKind::MissCurve) {
        if (overrides.size() != 0)
            throw SpecError("miss_curve jobs take no overrides");
        if (apps.size() != 1)
            throw SpecError("miss_curve jobs take exactly one app");
        if (insts == 0)
            throw SpecError("miss_curve jobs need insts > 0");
        return;
    }
    const SystemConfig cfg = config();
    if (apps.size() != cfg.numCores)
        throw SpecError("mix jobs need " +
                        std::to_string(cfg.numCores) + " apps, got " +
                        std::to_string(apps.size()));
    if (measureCycles == 0)
        throw SpecError("mix jobs need measure_cycles > 0");
}

std::string
JobSpec::displayLabel() const
{
    if (!label.empty())
        return label;
    std::string joined;
    for (const std::string &app : apps) {
        if (!joined.empty())
            joined += "+";
        joined += app;
    }
    return std::string(to_string(kind)) + ":" + scheme + "." + base +
           " " + joined + "#" + std::to_string(seed);
}

std::uint64_t
JobSpec::resultKey() const
{
    if (kind == JobKind::MissCurve) {
        // The replay depends only on the app, the instruction count,
        // and the fixed geometry and seed of miss_curve.hh; the tag
        // versions the key space away from mix runKeys.
        const std::string material =
            "miss_curve.v1|" + apps.at(0) + "|" + std::to_string(insts) +
            "|" + std::to_string(missCurveSets) + "|" +
            std::to_string(missCurveWays) + "|" +
            std::to_string(missCurveSeed);
        return hashBytes(
            reinterpret_cast<const std::uint8_t *>(material.data()),
            material.size());
    }
    return runKey(config(), apps, seed, warmupCycles, measureCycles);
}

json::Value
JobSpec::toJson() const
{
    json::Value obj = json::Value::object();
    obj.set("kind", to_string(kind));
    obj.set("base", base);
    obj.set("scheme", scheme);
    if (overrides.size() != 0)
        obj.set("overrides", overrides);
    json::Value names = json::Value::array();
    for (const std::string &app : apps)
        names.append(app);
    obj.set("apps", std::move(names));
    obj.set("seed", std::to_string(seed));
    obj.set("warmup_cycles", warmupCycles);
    obj.set("measure_cycles", measureCycles);
    if (kind == JobKind::MissCurve)
        obj.set("insts", insts);
    obj.set("tenant", tenant);
    obj.set("priority", priority);
    if (!label.empty())
        obj.set("label", label);
    return obj;
}

JobSpec
JobSpec::fromJson(const json::Value &obj)
{
    if (obj.type() != json::Value::Type::Object)
        throw SpecError("spec must be a JSON object");

    JobSpec spec;
    spec.kind = kindFromString(getStringOr(obj, "kind", "mix"));
    spec.base = getStringOr(obj, "base", "baseline");
    spec.scheme = getStringOr(obj, "scheme", "adaptive");
    if (obj.contains("overrides")) {
        spec.overrides = obj.at("overrides");
        if (spec.overrides.type() != json::Value::Type::Object)
            throw SpecError("field \"overrides\" must be an object");
    }

    const json::Value &apps = member(obj, "apps");
    if (apps.type() != json::Value::Type::Array)
        throw SpecError("field \"apps\" must be an array");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const json::Value &app = apps.at(i);
        if (app.type() != json::Value::Type::String)
            throw SpecError("field \"apps\" must hold strings");
        spec.apps.push_back(app.asString());
    }

    spec.seed = getSeedOr(obj, "seed", 0);
    spec.warmupCycles = getUnsignedOr(obj, "warmup_cycles", 200000);
    spec.measureCycles =
        getUnsignedOr(obj, "measure_cycles", 1000000);
    spec.insts = getUnsignedOr(obj, "insts", 20000000);
    spec.tenant = getStringOr(obj, "tenant", "default");
    const double priority =
        obj.contains("priority") ? getNumber(obj, "priority") : 0.0;
    if (!(priority >= std::numeric_limits<int>::min() &&
          priority <= std::numeric_limits<int>::max()) ||
        std::trunc(priority) != priority)
        throw SpecError("field \"priority\" must be an int");
    spec.priority = static_cast<int>(priority);
    spec.label = getStringOr(obj, "label", "");

    spec.validate();
    // Canonical form: table order, nothing the preset already says.
    if (spec.kind == JobKind::Mix)
        spec.overrides = configOverrides(spec.config(), presetOf(spec));
    return spec;
}

JobSpec
specFor(const SystemConfig &config)
{
    JobSpec spec;
    spec.scheme = schemeName(config.scheme);
    spec.overrides =
        configOverrides(config, SystemConfig::baseline(config.scheme));
    return spec;
}

MixResult
runJob(const JobSpec &spec, const RunPolicy &policy)
{
    if (spec.kind == JobKind::MissCurve)
        return missCurveJob(spec, policy.telemetry);
    return runMix(spec.config(), ExperimentSpec{spec.apps, spec.seed},
                  SimWindow{spec.warmupCycles, spec.measureCycles},
                  spec.displayLabel(), policy);
}

} // namespace service
} // namespace nuca
