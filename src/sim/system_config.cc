#include "sim/system_config.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "nuca/adaptive_nuca.hh"

namespace nuca {

namespace {

const char *const schemeNames[] = {"private", "shared", "adaptive",
                                   "random"};
const char *const replNames[] = {"lru", "fifo", "random", "nru"};

} // namespace

std::string
to_string(L3Scheme scheme)
{
    switch (scheme) {
      case L3Scheme::Private:
        return "private";
      case L3Scheme::Shared:
        return "shared";
      case L3Scheme::Adaptive:
        return "adaptive";
      case L3Scheme::RandomReplacement:
        return "random-replacement";
    }
    panic("unknown L3 scheme");
}

const char *
schemeName(L3Scheme scheme)
{
    return schemeNames[static_cast<unsigned>(scheme)];
}

SystemConfig
SystemConfig::baseline(L3Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    return cfg;
}

SystemConfig
SystemConfig::quadSizePrivate()
{
    SystemConfig cfg = baseline(L3Scheme::Private);
    // Each private cache grows to the size (and associativity) of
    // the shared cache while keeping the private hit latency: an
    // idealized upper bound, exactly as Figure 7 uses it.
    cfg.l3SizePerCoreBytes = 4ull << 20;
    cfg.l3LocalAssoc = 16;
    return cfg;
}

SystemConfig
SystemConfig::large8MB(L3Scheme scheme)
{
    SystemConfig cfg = baseline(scheme);
    // 8 MB total: 2 MB per core. The paper keeps the 4 MB timing
    // model for a simple comparison (Section 4.4).
    cfg.l3SizePerCoreBytes = 2ull << 20;
    return cfg;
}

SystemConfig
SystemConfig::scaledTech(L3Scheme scheme)
{
    SystemConfig cfg = baseline(scheme);
    cfg.coreMem.l2i.hitLatency = 11;
    cfg.coreMem.l2d.hitLatency = 11;
    cfg.l3LocalLatency = 16;
    cfg.l3SharedLatency = 24;
    cfg.memFirstChunkPrivate = 330;
    cfg.memFirstChunkShared = 338;
    return cfg;
}

namespace {

// The codec's ranges. JSON numbers are doubles, exact to 2^53. The
// other caps lie far beyond any machine the paper models: past them
// a job could only exhaust host memory or overflow cycle arithmetic.
constexpr std::uint64_t exactMax = 1ull << 53;
constexpr std::uint64_t cycleMax = 1ull << 20;
constexpr std::uint64_t entryMax = 1ull << 24;
constexpr std::uint64_t simulatedBytesMax = 2ull << 30;

#define NUCA_FIELD(json, member, type, lo, hi, names)                   \
    ConfigField                                                         \
    {                                                                   \
        json, ConfigField::Type::type, lo, hi, names,                   \
            [](const SystemConfig &c) {                                 \
                return static_cast<std::uint64_t>(c.member);            \
            },                                                          \
            [](SystemConfig &c, std::uint64_t v) {                      \
                c.member = static_cast<decltype(c.member)>(v);          \
            }                                                           \
    }
// The field kinds, by the range the codec accepts.
#define U32(json, member, lo, hi) NUCA_FIELD(json, member, U32, lo, hi, nullptr)
#define U64(json, member, lo, hi) NUCA_FIELD(json, member, U64, lo, hi, nullptr)
#define COUNT(json, member) U32(json, member, 1, entryMax)
#define WIDTH(json, member) U32(json, member, 1, 64)
#define CYCLES(json, member, lo) U64(json, member, lo, cycleMax)
#define BYTES(json, member) U64(json, member, 1, simulatedBytesMax)
#define FLAG(json, member) NUCA_FIELD(json, member, Bool, 0, 1, nullptr)
#define CACHE(json, m)                                                  \
    BYTES(json ".size_bytes", m.sizeBytes), COUNT(json ".assoc", m.assoc), \
        CYCLES(json ".hit_latency", m.hitLatency, 0),                   \
        COUNT(json ".mshrs", m.mshrs)

std::string
cacheError(const std::string &what, std::uint64_t bytes,
           std::uint64_t assoc)
{
    if (assoc == 0)
        return what + " has zero associativity";
    if (bytes == 0 || bytes % (assoc * blockBytes) != 0)
        return what + " size is not a multiple of assoc * " +
               std::to_string(blockBytes) + " bytes";
    if (!isPowerOf2(bytes / (assoc * blockBytes)))
        return what + " needs a power-of-two set count";
    return {};
}

/** An overrides member's value as a field value, or ConfigError. */
std::uint64_t
fieldValue(const ConfigField &field, const json::Value &v)
{
    const std::string where = std::string("override \"") + field.name;
    if (field.type == ConfigField::Type::Bool) {
        if (v.type() != json::Value::Type::Bool)
            throw ConfigError(where + "\" must be a bool");
        return v.asBool() ? 1 : 0;
    }
    if (field.type == ConfigField::Type::Enum) {
        std::string want;
        for (std::uint64_t value = field.min; value <= field.max; ++value) {
            if (v.type() == json::Value::Type::String &&
                v.asString() == field.names[value])
                return value;
            want += std::string(value == 0 ? "" : "|") + field.names[value];
        }
        throw ConfigError(where + "\" must be one of " + want);
    }
    const auto count = v.asCount();
    if (!count || *count < field.min || *count > field.max)
        throw ConfigError(where + "\" must be an integer in [" +
                          std::to_string(field.min) + ", " +
                          std::to_string(field.max) + "]");
    return *count;
}

} // namespace

const std::vector<ConfigField> &
configFields()
{
    static const std::vector<ConfigField> fields = {
        U32("num_cores", numCores, 1, 64),
        NUCA_FIELD("scheme", scheme, Enum, 0, 3, schemeNames),
        COUNT("core.ruu_size", core.ruuSize),
        COUNT("core.lsq_size", core.lsqSize),
        COUNT("core.fetch_queue_size", core.fetchQueueSize),
        WIDTH("core.fetch_width", core.fetchWidth),
        WIDTH("core.dispatch_width", core.dispatchWidth),
        WIDTH("core.issue_width", core.issueWidth),
        WIDTH("core.commit_width", core.commitWidth),
        CYCLES("core.mispredict_penalty", core.mispredictPenalty, 0),
        COUNT("core.predictor.bimodal_entries", core.predictor.bimodalEntries),
        COUNT("core.predictor.history_entries", core.predictor.historyEntries),
        U32("core.predictor.history_bits", core.predictor.historyBits, 1, 16),
        COUNT("core.predictor.chooser_entries", core.predictor.chooserEntries),
        COUNT("core.predictor.btb_entries", core.predictor.btbEntries),
        COUNT("core.predictor.btb_assoc", core.predictor.btbAssoc),
        WIDTH("core.func_units.int_alus", core.funcUnits.intAlus),
        WIDTH("core.func_units.fp_alus", core.funcUnits.fpAlus),
        WIDTH("core.func_units.int_mult_div", core.funcUnits.intMultDiv),
        WIDTH("core.func_units.fp_mult_div", core.funcUnits.fpMultDiv),
        WIDTH("core.func_units.mem_ports", core.funcUnits.memPorts),
        CACHE("core_mem.l1i", coreMem.l1i),
        CACHE("core_mem.l1d", coreMem.l1d),
        CACHE("core_mem.l2i", coreMem.l2i),
        CACHE("core_mem.l2d", coreMem.l2d),
        COUNT("core_mem.tlb_entries", coreMem.tlbEntries),
        CYCLES("core_mem.tlb_miss_penalty", coreMem.tlbMissPenalty, 0),
        FLAG("core_mem.enable_prefetcher", coreMem.enablePrefetcher),
        COUNT("core_mem.prefetcher.table_entries",
              coreMem.prefetcher.tableEntries),
        WIDTH("core_mem.prefetcher.degree", coreMem.prefetcher.degree),
        U32("core_mem.prefetcher.confidence_threshold",
            coreMem.prefetcher.confidenceThreshold, 0, 64),
        FLAG("core_mem.prefetcher.zone_streams",
             coreMem.prefetcher.zoneStreams),
        U32("core_mem.prefetcher.zone_entries",
            coreMem.prefetcher.zoneEntries, 0, entryMax),
        BYTES("l3_size_per_core_bytes", l3SizePerCoreBytes),
        U32("l3_local_assoc", l3LocalAssoc, 1, 255),
        CYCLES("l3_local_latency", l3LocalLatency, 1),
        CYCLES("l3_shared_latency", l3SharedLatency, 1),
        CYCLES("mem_first_chunk_shared", memFirstChunkShared, 1),
        CYCLES("mem_first_chunk_private", memFirstChunkPrivate, 1),
        U64("epoch_misses", epochMisses, 1, exactMax),
        U32("shadow_sample_shift", shadowSampleShift, 0, 31),
        FLAG("adaptation_enabled", adaptationEnabled),
        NUCA_FIELD("l3_repl_policy", l3ReplPolicy, Enum, 0, 3, replNames),
        U64("scheme_seed", schemeSeed, 0, exactMax),
    };
    return fields;
}

#undef CACHE
#undef FLAG
#undef BYTES
#undef CYCLES
#undef WIDTH
#undef COUNT
#undef U64
#undef U32
#undef NUCA_FIELD

json::Value
configOverrides(const SystemConfig &config, const SystemConfig &preset)
{
    json::Value out = json::Value::object();
    for (const ConfigField &field : configFields()) {
        const std::uint64_t value = field.get(config);
        if (value == field.get(preset))
            continue;
        if (value < field.min || value > field.max)
            throw ConfigError(std::string("field \"") + field.name +
                              "\" = " + std::to_string(value) +
                              " is outside the codec's range");
        switch (field.type) {
          case ConfigField::Type::Bool:
            out.set(field.name, value != 0);
            break;
          case ConfigField::Type::Enum:
            out.set(field.name, field.names[value]);
            break;
          default:
            out.set(field.name, value);
        }
    }
    return out;
}

SystemConfig
applyConfigOverrides(SystemConfig preset, const json::Value &overrides)
{
    if (overrides.type() != json::Value::Type::Object)
        throw ConfigError("overrides must be a JSON object");
    const auto &fields = configFields();
    for (const auto &[name, value] : overrides.members()) {
        const auto field = std::find_if(
            fields.begin(), fields.end(),
            [&](const ConfigField &f) { return name == f.name; });
        if (field == fields.end())
            throw ConfigError("unknown config field \"" + name + "\"");
        field->set(preset, fieldValue(*field, value));
    }
    if (const std::string error = configError(preset); !error.empty())
        throw ConfigError(error);
    return preset;
}

std::string
configError(const SystemConfig &c)
{
    const std::uint64_t n = c.numCores;
    const auto &mem = c.coreMem;
    const auto &bp = c.core.predictor;
    for (const auto &[what, level] :
         {std::pair{"l1i", mem.l1i}, std::pair{"l1d", mem.l1d},
          std::pair{"l2i", mem.l2i}, std::pair{"l2d", mem.l2d}}) {
        if (auto error = cacheError(what, level.sizeBytes, level.assoc);
            !error.empty())
            return error;
    }
    if (n * (mem.l1i.sizeBytes + mem.l1d.sizeBytes + mem.l2i.sizeBytes +
             mem.l2d.sizeBytes + c.l3SizePerCoreBytes) >
        simulatedBytesMax)
        return "total cache capacity exceeds 2 GiB";
    if (!isPowerOf2(bp.bimodalEntries) ||
        !isPowerOf2(bp.historyEntries) || !isPowerOf2(bp.chooserEntries))
        return "predictor tables must be powers of two";
    if (bp.btbEntries % bp.btbAssoc != 0)
        return "BTB associativity must divide its entry count";
    const auto &pf = mem.prefetcher;
    if (mem.enablePrefetcher && !isPowerOf2(pf.tableEntries))
        return "prefetcher table must be a power of two";
    if (mem.enablePrefetcher && pf.zoneStreams && pf.zoneEntries == 0)
        return "zone stream detection needs entries";

    const std::uint64_t assoc = c.l3LocalAssoc;
    switch (c.scheme) {
      case L3Scheme::Private:
        return cacheError("l3", c.l3SizePerCoreBytes, assoc);
      case L3Scheme::Shared:
        return cacheError("l3", c.l3SizePerCoreBytes * n, assoc * n);
      case L3Scheme::RandomReplacement:
        if (n < 2)
            return "random replacement needs >= 2 cores";
        return cacheError("l3", c.l3SizePerCoreBytes, assoc);
      case L3Scheme::Adaptive: {
          if (n < 2 || n > AdaptiveNuca::maxCores)
              return "adaptive NUCA needs 2 to " +
                     std::to_string(AdaptiveNuca::maxCores) + " cores";
          if (n * assoc > 255)
              return "adaptive NUCA global sets hold at most 255 ways";
          // Each core's initial quota (its local ways) must reach the
          // sharing engine's minimum quota of 2.
          if (assoc < 2)
              return "adaptive NUCA needs l3_local_assoc >= 2";
          const std::uint64_t sets =
              c.l3SizePerCoreBytes / (assoc * blockBytes);
          if (!isPowerOf2(sets))
              return "adaptive NUCA needs a power-of-two set count";
          if (c.shadowSampleShift >= ceilLog2(sets) + 1)
              return "shadow sampling divisor exceeds the set count";
          return {};
      }
    }
    return "unknown L3 scheme";
}

} // namespace nuca
