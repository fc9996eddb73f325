/**
 * @file
 * Whole-system configurations: Table 1's baseline in each of the
 * four last-level cache organizations, plus the variants the
 * evaluation section uses (the 4x-sized private caches of Figure 7,
 * the 8 MB L3 of Figure 9 and the technology-scaled timing of
 * Figure 10).
 *
 * A configuration is also data: configFields() lists every field
 * once, in the order the checkpoint layer's config digest encodes
 * them, and the JSON overrides codec (a sweep job's "overrides")
 * walks the same list.
 */

#ifndef NUCA_SIM_SYSTEM_CONFIG_HH
#define NUCA_SIM_SYSTEM_CONFIG_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "base/types.hh"
#include "cache/set_assoc_cache.hh"
#include "cpu/memory_system.hh"
#include "cpu/ooo_core.hh"
#include "sim/json_writer.hh"

namespace nuca {

/** Which last-level cache organization a system uses. */
enum class L3Scheme
{
    Private,
    Shared,
    Adaptive,
    RandomReplacement,
};

/** Printable name of a scheme. */
std::string to_string(L3Scheme scheme);

/** A scheme's name in job specs and config overrides:
 *  private|shared|adaptive|random. */
const char *schemeName(L3Scheme scheme);

/** Every parameter needed to build a CmpSystem. */
struct SystemConfig
{
    unsigned numCores = 4;
    L3Scheme scheme = L3Scheme::Adaptive;

    OooCoreParams core{};
    CoreMemoryParams coreMem{};

    /** L3 geometry: capacity is per core for the distributed
     * organizations and numCores * this for the shared one. */
    std::uint64_t l3SizePerCoreBytes = 1ull << 20;
    unsigned l3LocalAssoc = 4;
    Cycle l3LocalLatency = 14;
    Cycle l3SharedLatency = 19;

    /** First-chunk memory latency; Table 1 gives the pure-private
     * organization a 2-cycle shorter path. */
    Cycle memFirstChunkShared = 260;
    Cycle memFirstChunkPrivate = 258;

    /** Adaptive-scheme knobs. */
    Counter epochMisses = 2000;
    unsigned shadowSampleShift = 0;
    /** Ablation: freeze the adaptive quotas at the 75/25 split. */
    bool adaptationEnabled = true;

    /** L3 replacement policy for the private/shared baselines
     * (ablation study; the paper uses LRU throughout). */
    ReplPolicy l3ReplPolicy = ReplPolicy::Lru;

    /** Seed for any randomized scheme component (spill targets). */
    std::uint64_t schemeSeed = 7;

    /** Table 1 baseline for the given organization. */
    static SystemConfig baseline(L3Scheme scheme);

    /**
     * Figure 7's idealized comparison point: every core owns a
     * private cache as large as the whole shared cache (4 MB),
     * with the private timing.
     */
    static SystemConfig quadSizePrivate();

    /** Figure 9: 8 MB total L3 (2 MB per core), same timing. */
    static SystemConfig large8MB(L3Scheme scheme);

    /**
     * Figure 10: future technology — core 30% faster, so caches and
     * memory are relatively slower: L2 9 -> 11 cycles, L3 14/19 ->
     * 16/24, memory 258/260 -> 330/338.
     */
    static SystemConfig scaledTech(L3Scheme scheme);
};

/** One field of SystemConfig, as the digest and the codec see it. */
struct ConfigField
{
    /** Wire width in the digest; Enum is a U32 named in JSON. */
    enum class Type { U32, U64, Bool, Enum };

    /** JSON name: snake_case, nested structs joined by '.'. */
    const char *name;
    Type type;
    /** Inclusive range the codec accepts (an Enum's value index). */
    std::uint64_t min;
    std::uint64_t max;
    /** An Enum's value names, indexed by value; else nullptr. */
    const char *const *names;
    std::uint64_t (*get)(const SystemConfig &);
    void (*set)(SystemConfig &, std::uint64_t);
};

/** Every SystemConfig field, in the config digest's order. */
const std::vector<ConfigField> &configFields();

/** A malformed or unbuildable configuration from the codec. */
class ConfigError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * The fields of @p config that differ from @p preset, as a JSON
 * object of name -> value in table order (empty when they agree).
 * @throws ConfigError for a value the codec would refuse to read.
 */
json::Value configOverrides(const SystemConfig &config,
                            const SystemConfig &preset);

/**
 * @p preset with @p overrides applied. @throws ConfigError on a
 * non-object, an unknown name, a value of the wrong type or out of
 * range, or a result that CmpSystem would refuse (configError).
 */
SystemConfig applyConfigOverrides(SystemConfig preset,
                                  const json::Value &overrides);

/**
 * Why building a CmpSystem from @p config would stop the process
 * (the components' fatal checks, restated); empty when it builds.
 */
std::string configError(const SystemConfig &config);

} // namespace nuca

#endif // NUCA_SIM_SYSTEM_CONFIG_HH
