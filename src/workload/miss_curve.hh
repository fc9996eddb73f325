/**
 * @file
 * The functional L3 miss-vs-associativity replay behind Figure 3,
 * extracted so both the fig03 bench harness and the service daemon
 * (miss_curve jobs) run the identical computation.
 *
 * An application's reference stream is filtered through functional
 * L1D/L2D caches (Table 1 geometry); the L2 misses walk one LRU stack
 * of missCurveWays tags per L3 set (Mattson's stack-distance pass).
 * By LRU's inclusion property a reference found at stack depth d
 * hits in every LRU cache of the same sets with more than d ways, so
 * one histogram of hit depths gives the miss count of all
 * associativities 1..missCurveWays at once. Timing is irrelevant to
 * the curve, so the replay is purely functional and fast, and it is
 * bit-deterministic: the same (profile, insts) always yields the
 * same counts.
 */

#ifndef NUCA_WORKLOAD_MISS_CURVE_HH
#define NUCA_WORKLOAD_MISS_CURVE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.hh"
#include "workload/profile.hh"

namespace nuca {

/** L3 sets of the replayed cache (Table 1's 4 MB at 16 ways). */
constexpr unsigned missCurveSets = 4096;
/** Deepest associativity counted: the curve has this many points. */
constexpr unsigned missCurveWays = 16;
/** SynthWorkload seed of every replay. */
constexpr std::uint64_t missCurveSeed = 2024;

/**
 * Periodic observer: called with the instruction count and the
 * misses-per-way counters accumulated so far. The bench harness
 * hangs its telemetry sink off this; the daemon passes none.
 */
using MissCurveSampleFn = std::function<void(
    std::uint64_t inst, const std::vector<Counter> &missesPerWay)>;

/**
 * Replay @p profile for @p insts instructions and return the L3 miss
 * count per associativity (index w = w+1 ways). When @p sample is
 * set and @p samplePeriod nonzero, it fires every samplePeriod
 * instructions (skipping instruction 0) and once more at the end —
 * the exact cadence fig03's telemetry always had.
 */
std::vector<Counter>
l3MissCurve(const WorkloadProfile &profile, std::uint64_t insts,
            const MissCurveSampleFn &sample = {},
            std::uint64_t samplePeriod = 0);

} // namespace nuca

#endif // NUCA_WORKLOAD_MISS_CURVE_HH
