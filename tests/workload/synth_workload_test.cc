/** @file Unit tests for the synthetic workload generator. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "workload/spec_profiles.hh"
#include "workload/synth_workload.hh"

namespace nuca {
namespace {

WorkloadProfile
simpleProfile()
{
    WorkloadProfile p;
    p.name = "test";
    p.loadFrac = 0.30;
    p.storeFrac = 0.10;
    p.branchFrac = 0.10;
    p.fpFrac = 0.5;
    p.meanDepDist = 10;
    p.regions = {{64 * 1024, 1.0, RegionPattern::Random}};
    return p;
}

TEST(SynthWorkload, InstructionMixMatchesProfile)
{
    SynthWorkload workload(simpleProfile(), 0, 42);
    std::map<OpClass, unsigned> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[workload.next().op];

    EXPECT_NEAR(counts[OpClass::Load] / double(n), 0.30, 0.01);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), 0.10, 0.01);
    EXPECT_NEAR(counts[OpClass::Branch] / double(n), 0.10, 0.01);
    // Half of the remaining ALU work is floating point.
    const double alu = 1.0 - 0.5;
    const double fp = (counts[OpClass::FpAlu] +
                       counts[OpClass::FpMult] +
                       counts[OpClass::FpDiv]) /
                      double(n);
    EXPECT_NEAR(fp, alu * 0.5, 0.02);
}

TEST(SynthWorkload, DeterministicForSameSeed)
{
    SynthWorkload a(simpleProfile(), 0, 7), b(simpleProfile(), 0, 7);
    for (int i = 0; i < 10000; ++i) {
        const auto ia = a.next();
        const auto ib = b.next();
        ASSERT_EQ(ia.op, ib.op);
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.effAddr, ib.effAddr);
        ASSERT_EQ(ia.taken, ib.taken);
        ASSERT_EQ(ia.depDist[0], ib.depDist[0]);
    }
}

TEST(SynthWorkload, DifferentSeedsModelDifferentPhases)
{
    SynthWorkload a(simpleProfile(), 0, 1), b(simpleProfile(), 0, 2);
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().op == b.next().op)
            ++same;
    }
    EXPECT_LT(same, 900u);
}

TEST(SynthWorkload, CoresHaveDisjointAddressSpaces)
{
    SynthWorkload c0(simpleProfile(), 0, 7);
    SynthWorkload c1(simpleProfile(), 1, 7);
    EXPECT_NE(c0.dataBase(), c1.dataBase());
    Addr min0 = ~0ull, max0 = 0, min1 = ~0ull, max1 = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto i0 = c0.next();
        const auto i1 = c1.next();
        if (i0.isMem()) {
            min0 = std::min(min0, i0.effAddr);
            max0 = std::max(max0, i0.effAddr);
        }
        if (i1.isMem()) {
            min1 = std::min(min1, i1.effAddr);
            max1 = std::max(max1, i1.effAddr);
        }
    }
    EXPECT_LT(max0, min1); // fully disjoint ranges
}

TEST(SynthWorkload, DepDistancesBoundedAndMeanRoughlyMatches)
{
    auto profile = simpleProfile();
    profile.meanDepDist = 8;
    SynthWorkload workload(profile, 0, 3);
    double sum = 0;
    unsigned count = 0;
    for (int i = 0; i < 100000; ++i) {
        const auto inst = workload.next();
        for (auto d : inst.depDist) {
            if (d == 0)
                continue;
            ASSERT_GE(d, 1u);
            ASSERT_LE(d, 64u);
            sum += d;
            ++count;
        }
    }
    ASSERT_GT(count, 0u);
    // Truncated geometric with mean 8 (cap 64 trims the tail a bit).
    EXPECT_NEAR(sum / count, 8.0, 1.0);
}

TEST(SynthWorkload, PointerChasingAddsLoadLoadDependences)
{
    auto chasing = simpleProfile();
    chasing.loadChainFrac = 1.0;
    SynthWorkload workload(chasing, 0, 5);
    // With chain fraction 1, every load after the first depends on
    // the previous load exactly.
    int last_load = -1;
    int idx = 0;
    unsigned checked = 0;
    for (int i = 0; i < 20000; ++i, ++idx) {
        const auto inst = workload.next();
        if (inst.isLoad()) {
            if (last_load >= 0 && idx - last_load <= 64) {
                ASSERT_EQ(inst.depDist[0],
                          static_cast<unsigned>(idx - last_load));
                ++checked;
            }
            last_load = idx;
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST(SynthWorkload, BranchPcsAreStablePerSite)
{
    SynthWorkload workload(simpleProfile(), 0, 9);
    // Collect branch PCs; the set must be bounded by the number of
    // sites so the predictor can learn.
    std::map<Addr, unsigned> pcs;
    for (int i = 0; i < 50000; ++i) {
        const auto inst = workload.next();
        if (inst.isBranch())
            ++pcs[inst.pc];
    }
    EXPECT_LE(pcs.size(),
              static_cast<std::size_t>(
                  simpleProfile().branches.numSites));
    EXPECT_GE(pcs.size(), 4u);
}

TEST(SynthWorkload, PcStaysInsideCodeFootprint)
{
    auto profile = simpleProfile();
    profile.codeFootprintBytes = 8 * 1024;
    SynthWorkload workload(profile, 2, 11);
    const Addr code_base = workload.dataBase() - (1ull << 32);
    for (int i = 0; i < 50000; ++i) {
        const auto inst = workload.next();
        ASSERT_GE(inst.pc, code_base);
        ASSERT_LT(inst.pc, code_base + profile.codeFootprintBytes);
        if (inst.isBranch() && inst.taken) {
            ASSERT_GE(inst.target, code_base);
            ASSERT_LT(inst.target,
                      code_base + profile.codeFootprintBytes);
        }
    }
}

/** The benchmark's busy_tick shape: an L1-resident cyclic working
 * set under a mostly-ALU stream. */
WorkloadProfile
computeShape()
{
    WorkloadProfile p;
    p.name = "compute";
    p.loadFrac = 0.20;
    p.storeFrac = 0.08;
    p.branchFrac = 0.15;
    p.fpFrac = 0.30;
    p.mulDivFrac = 0.05;
    p.meanDepDist = 16.0;
    p.codeFootprintBytes = 16ull << 10;
    p.regions = {MemRegion{48ull << 10, 1.0, RegionPattern::Cyclic}};
    return p;
}

/** The benchmark's latency_chase shape: nearly every load depends on
 * the previous one across 64 MB. */
WorkloadProfile
pchaseShape()
{
    WorkloadProfile p;
    p.name = "pchase";
    p.loadFrac = 0.40;
    p.storeFrac = 0.02;
    p.branchFrac = 0.08;
    p.meanDepDist = 3.0;
    p.loadChainFrac = 0.95;
    p.codeFootprintBytes = 8ull << 10;
    p.regions = {MemRegion{64ull << 20, 1.0, RegionPattern::Random}};
    p.llcIntensive = true;
    return p;
}

/** FNV-1a over every field of the first @p n instructions. */
std::uint64_t
streamDigest(const WorkloadProfile &profile, std::uint64_t n)
{
    SynthWorkload workload(profile, 1, 0x5eed);
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto inst = workload.next();
        mix(static_cast<std::uint64_t>(inst.op));
        mix(inst.pc);
        mix(inst.effAddr);
        mix(inst.depDist[0]);
        mix(inst.depDist[1]);
        mix(inst.taken);
        mix(inst.target);
    }
    return h;
}

/**
 * Pins the exact instruction stream of every SPEC profile and of the
 * benchmark's two custom shapes. The generator's samplers are
 * table-driven fast paths that must return what the plain formulas
 * (log inversion, binary search) return for every draw, so any
 * change to these digests is a model change, not an optimisation.
 */
TEST(SynthStreamDigest, FirstInstructionsArePinned)
{
    // Recorded from the log-inversion / binary-search generator.
    const std::map<std::string, std::uint64_t> pinned = {
        {"mcf", 0x88e346067d4356full},
        {"gzip", 0xa959359ec0a8a1ebull},
        {"vpr", 0x45d9f30629ce3b33ull},
        {"twolf", 0xe79fa8d33c21acc6ull},
        {"parser", 0x5917d2b3d2042511ull},
        {"bzip2", 0x9a068a5ff4d5fbcfull},
        {"gap", 0x42ed3b34f2106e9aull},
        {"ammp", 0xbb3ebee8e7a52878ull},
        {"art", 0x4bbfce1121d02838ull},
        {"swim", 0x56c15b0d26a77c50ull},
        {"lucas", 0xae8b2887d47c64bull},
        {"equake", 0x82f41394f937aee4ull},
        {"galgel", 0x532e0614473d8302ull},
        {"apsi", 0xf6b207a2b8d640a5ull},
        {"gcc", 0xea14a2fc2e6d4c9eull},
        {"crafty", 0x633375c7914f0969ull},
        {"eon", 0x21762c28cfbc51fdull},
        {"perlbmk", 0x27efb853e9b96e35ull},
        {"wupwise", 0xe2126aaa3ee86531ull},
        {"mgrid", 0x6689b870a6f46b1dull},
        {"applu", 0x8484b1056dbbe5caull},
        {"mesa", 0x6d0b9a31a79aa8b7ull},
        {"facerec", 0xd2e7366a59aa4ea6ull},
        {"fma3d", 0xa2b99546ad080c3dull},
        {"compute", 0x3d13e701d6951c19ull},
        {"pchase", 0x92f6143c311388ddull},
    };
    std::vector<WorkloadProfile> profiles = specProfiles();
    profiles.push_back(computeShape());
    profiles.push_back(pchaseShape());
    for (const auto &profile : profiles) {
        const std::uint64_t got = streamDigest(profile, 200000);
        const auto it = pinned.find(profile.name);
        const std::uint64_t want = it == pinned.end() ? 0 : it->second;
        EXPECT_EQ(got, want)
            << "{\"" << profile.name << "\", 0x" << std::hex << got
            << "ull},";
    }
}

} // namespace
} // namespace nuca
