/**
 * @file
 * Whole-system configurations: Table 1's baseline in each of the
 * four last-level cache organizations, plus the variants the
 * evaluation section uses (the 4x-sized private caches of Figure 7,
 * the 8 MB L3 of Figure 9 and the technology-scaled timing of
 * Figure 10).
 */

#ifndef NUCA_SIM_SYSTEM_CONFIG_HH
#define NUCA_SIM_SYSTEM_CONFIG_HH

#include <string>

#include "base/types.hh"
#include "cache/set_assoc_cache.hh"
#include "cpu/memory_system.hh"
#include "cpu/ooo_core.hh"

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

} // namespace nuca

#endif // NUCA_SIM_SYSTEM_CONFIG_HH
