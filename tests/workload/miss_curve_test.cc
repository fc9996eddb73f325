/**
 * @file
 * The one-pass stack-distance miss curve against its oracle: one
 * standalone LRU SetAssocCache per associativity, all probed by the
 * same L2 misses. By LRU's inclusion property both must give the same
 * counts, at the end of the replay and at every sample.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "cache/set_assoc_cache.hh"
#include "workload/miss_curve.hh"
#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

namespace nuca {
namespace {

/** The 16-cache replay l3MissCurve used before its stack-distance
 *  pass, kept as the reference. */
std::vector<Counter>
sixteenCacheCurve(const WorkloadProfile &profile, std::uint64_t insts,
                  const MissCurveSampleFn &sample = {},
                  std::uint64_t samplePeriod = 0)
{
    stats::Group root("fig3");
    SetAssocCache l1(root, "l1d", 64ull << 10, 2);
    SetAssocCache l2(root, "l2d", 256ull << 10, 4);
    std::vector<std::unique_ptr<SetAssocCache>> l3s;
    for (unsigned ways = 1; ways <= missCurveWays; ++ways) {
        l3s.push_back(std::make_unique<SetAssocCache>(
            root, "l3_" + std::to_string(ways),
            static_cast<std::uint64_t>(ways) * missCurveSets *
                blockBytes,
            ways));
    }

    const auto counts = [&] {
        std::vector<Counter> curve;
        curve.reserve(l3s.size());
        for (const auto &l3 : l3s)
            curve.push_back(l3->misses());
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
        for (auto &l3 : l3s) {
            if (!l3->access(inst.effAddr, false))
                l3->fill(inst.effAddr, false, 0);
        }
    }
    if (sampling)
        sample(insts, counts());

    return counts();
}

using Samples = std::vector<std::pair<std::uint64_t, std::vector<Counter>>>;

/** A sample hook that records every call into @p out. */
MissCurveSampleFn
recordInto(Samples &out)
{
    return [&out](std::uint64_t inst, const std::vector<Counter> &misses) {
        out.emplace_back(inst, misses);
    };
}

const WorkloadProfile &
profileOf(const std::string &app)
{
    const WorkloadProfile *profile = findProfile(app);
    if (profile == nullptr)
        throw std::runtime_error("no profile " + app);
    return *profile;
}

constexpr std::uint64_t insts = 1000000;

// Cache-hungry (mcf, ammp, art, swim), saturating (gzip) and
// L2-resident (wupwise) applications: deep and shallow stack hits.
class MissCurveOracle : public testing::TestWithParam<std::string>
{
};

TEST_P(MissCurveOracle, FinalCurveAndSamplesMatch)
{
    const WorkloadProfile &profile = profileOf(GetParam());
    // 300 000 does not divide the instruction count, so the final
    // sample falls between two periods.
    Samples got, want;
    const std::vector<Counter> curve =
        l3MissCurve(profile, insts, recordInto(got), 300000);
    const std::vector<Counter> oracle =
        sixteenCacheCurve(profile, insts, recordInto(want), 300000);

    ASSERT_EQ(curve.size(), missCurveWays);
    EXPECT_EQ(curve, oracle);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got.back().first, insts);
    EXPECT_EQ(got.back().second, curve);
}

INSTANTIATE_TEST_SUITE_P(Apps, MissCurveOracle,
                         testing::Values("mcf", "swim", "ammp", "gzip",
                                         "art", "wupwise"),
                         [](const auto &info) { return info.param; });

TEST(MissCurve, DividingPeriodSamplesEachMultipleOnce)
{
    // The in-loop hook fires at 250 k, 500 k and 750 k; instruction
    // 1 M is past the loop, so only the final call reports it.
    const WorkloadProfile &profile = profileOf("parser");
    Samples got, want;
    l3MissCurve(profile, insts, recordInto(got), 250000);
    sixteenCacheCurve(profile, insts, recordInto(want), 250000);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got.front().first, 250000u);
    EXPECT_EQ(got.back().first, insts);
    EXPECT_EQ(got, want);
}

TEST(MissCurve, NoHookOrPeriodZeroSamplesNothing)
{
    const WorkloadProfile &profile = profileOf("twolf");
    const std::vector<Counter> oracle = sixteenCacheCurve(profile, insts);
    EXPECT_EQ(l3MissCurve(profile, insts), oracle);

    Samples got;
    EXPECT_EQ(l3MissCurve(profile, insts, recordInto(got), 0), oracle);
    EXPECT_TRUE(got.empty());
}

TEST(MissCurve, NoInstructionsNoMisses)
{
    EXPECT_EQ(l3MissCurve(profileOf("mcf"), 0),
              std::vector<Counter>(missCurveWays, 0));
}

} // namespace
} // namespace nuca
