#include "workload/miss_curve.hh"

#include <algorithm>
#include <array>

#include "base/stats.hh"
#include "cache/set_assoc_cache.hh"
#include "workload/synth_workload.hh"

namespace nuca {

std::vector<Counter>
l3MissCurve(const WorkloadProfile &profile, std::uint64_t insts,
            const MissCurveSampleFn &sample, std::uint64_t samplePeriod)
{
    static_assert((missCurveSets & (missCurveSets - 1)) == 0,
                  "set index is a mask of the block number");
    stats::Group root("fig3");
    SetAssocCache l1(root, "l1d", 64ull << 10, 2);
    SetAssocCache l2(root, "l2d", 256ull << 10, 4);

    // Per set, its block numbers from MRU (depth 0) down; an empty
    // slot holds a block number no address maps to.
    constexpr Addr empty = ~Addr{0};
    std::vector<Addr> stacks(
        static_cast<std::size_t>(missCurveSets) * missCurveWays, empty);
    std::array<Counter, missCurveWays> hitsAtDepth{};
    Counter l3Accesses = 0;

    const auto counts = [&] {
        std::vector<Counter> curve;
        curve.reserve(missCurveWays);
        Counter misses = l3Accesses;
        for (const Counter hits : hitsAtDepth) {
            misses -= hits;
            curve.push_back(misses);
        }
        return curve;
    };
    const bool sampling = sample && samplePeriod != 0;

    SynthWorkload workload(profile, 0, missCurveSeed);
    for (std::uint64_t i = 0; i < insts; ++i) {
        const SynthInst inst = workload.next();
        if (sampling && i > 0 && i % samplePeriod == 0)
            sample(i, counts());
        if (!inst.isMem())
            continue;
        const bool is_write = inst.isStore();
        if (l1.access(inst.effAddr, is_write))
            continue;
        l1.fill(inst.effAddr, is_write, 0);
        if (l2.access(inst.effAddr, false))
            continue;
        l2.fill(inst.effAddr, false, 0);

        ++l3Accesses;
        const Addr block = blockNumber(inst.effAddr);
        Addr *const stack =
            &stacks[static_cast<std::size_t>(block & (missCurveSets - 1)) *
                    missCurveWays];
        Addr *const end = stack + missCurveWays;
        Addr *found = std::find(stack, end, block);
        if (found != end)
            ++hitsAtDepth[found - stack];
        else
            found = end - 1; // a miss at every depth: drop the LRU tag
        std::copy_backward(stack, found, found + 1);
        stack[0] = block;
    }
    if (sampling)
        sample(insts, counts());

    return counts();
}

} // namespace nuca
