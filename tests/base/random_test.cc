/** @file Unit and statistical tests for the RNG and distributions. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "base/random.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversFullRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.between(5, 9);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 9u);
        saw_lo |= v == 5;
        saw_hi |= v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.real();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(3);
    unsigned hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(GeometricTable, GeometricMeanMatches)
{
    Rng rng(17);
    const GeometricTable geometric(0.2, 1u << 20);
    double sum = 0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(geometric.sample(rng));
    // Mean failures before success = (1-p)/p = 4.
    EXPECT_NEAR(sum / trials, 4.0, 0.1);
}

TEST(GeometricTable, GeometricRespectsCap)
{
    Rng rng(19);
    const GeometricTable geometric(0.001, 50);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LE(geometric.sample(rng), 50u);
}

/** The inversion formula the table must reproduce draw for draw. */
std::uint64_t
referenceGeometric(double p, std::uint64_t cap, double u)
{
    if (p >= 1.0)
        return 0;
    u = std::max(u, 0x1.0p-60);
    const double draws = std::floor(std::log(u) / std::log1p(-p));
    if (draws >= static_cast<double>(cap))
        return cap;
    return static_cast<std::uint64_t>(draws);
}

/**
 * Exactness, not just distribution: every double within 4096 ULPs of
 * each threshold (1-p)^k (where the formula's floor flips, and where
 * the table's guard bands sit), the edges of [0, 1), and 10^7 random
 * uniforms must draw what the formula draws. The p values are the
 * dependence-distance probabilities of every SPEC profile plus the
 * extremes.
 */
TEST(GeometricTable, MatchesFormulaAtEveryBoundary)
{
    std::set<double> ps = {0.999, 1.0};
    for (const auto &profile : specProfiles())
        ps.insert(1.0 / std::max(profile.meanDepDist, 1.0));
    ps.insert(1.0 / 16.0); // busy_tick's compute shape
    ps.insert(1.0 / 3.0);  // latency_chase's pchase shape
    const std::uint64_t cap = 63; // the generator's distance cap

    Rng rng(2718);
    std::uint64_t checked = 0;
    for (const double p : ps) {
        const GeometricTable table(p, cap);
        const auto expectSame = [&](double u) {
            ASSERT_EQ(table.fromUniform(u), referenceGeometric(p, cap, u))
                << "p " << p << " u " << u;
            ++checked;
        };
        for (const double u : {0.0, 0x1.0p-1074, 0x1.0p-61, 0x1.0p-60,
                               0x1.0p-59, 0.5, 1.0 - 0x1.0p-53})
            expectSame(u);
        if (p < 1.0) {
            for (std::uint64_t k = 1; k <= cap + 1; ++k) {
                const double t = std::exp(static_cast<double>(k) *
                                          std::log1p(-p));
                double lo = t, hi = t;
                for (int i = 0; i < 4096; ++i) {
                    lo = std::nextafter(lo, 0.0);
                    hi = std::nextafter(hi, 1.0);
                }
                for (double u = lo; u <= hi && u < 1.0;
                     u = std::nextafter(u, 1.0))
                    expectSame(u);
            }
        }
        for (int i = 0; i < 10000000 / static_cast<int>(ps.size()); ++i)
            expectSame(rng.real());
    }
    EXPECT_GT(checked, 10000000u);
}

TEST(GeometricTable, CertainSuccessDrawsNothing)
{
    Rng a(5), b(5);
    const GeometricTable geometric(1.0, 63);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(geometric.sample(a), 0u);
    EXPECT_EQ(a.next(), b.next());
}

TEST(GeometricTable, LongTailsFallBackToTheFormula)
{
    // Small p with a huge cap outgrows the table: draws past its end
    // must still come out of the formula exactly.
    Rng rng(23);
    for (const double p : {0.001, 0.2}) {
        const GeometricTable table(p, 1u << 20);
        for (int i = 0; i < 200000; ++i) {
            const double u = rng.real();
            ASSERT_EQ(table.fromUniform(u),
                      referenceGeometric(p, 1u << 20, u))
                << "p " << p << " u " << u;
        }
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.split();
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (parent.next() == child.next())
            ++same;
    }
    EXPECT_LT(same, 2u);
}

TEST(AliasTable, SingleOutcome)
{
    AliasTable table({5.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, ProbabilitiesNormalized)
{
    AliasTable table({1.0, 3.0, 6.0});
    EXPECT_NEAR(table.probabilityOf(0), 0.1, 1e-12);
    EXPECT_NEAR(table.probabilityOf(1), 0.3, 1e-12);
    EXPECT_NEAR(table.probabilityOf(2), 0.6, 1e-12);
}

TEST(AliasTable, EmpiricalFrequenciesMatchWeights)
{
    const std::vector<double> weights = {1, 2, 3, 4, 10};
    AliasTable table(weights);
    Rng rng(42);
    std::vector<unsigned> counts(weights.size(), 0);
    const int trials = 400000;
    for (int i = 0; i < trials; ++i)
        ++counts[table.sample(rng)];
    for (std::size_t i = 0; i < weights.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(counts[i]) / trials,
                    table.probabilityOf(static_cast<unsigned>(i)),
                    0.01)
            << "outcome " << i;
    }
}

TEST(AliasTable, ZeroWeightOutcomeNeverDrawn)
{
    AliasTable table({1.0, 0.0, 1.0});
    Rng rng(8);
    for (int i = 0; i < 50000; ++i)
        ASSERT_NE(table.sample(rng), 1u);
}

TEST(ZipfSampler, RankZeroIsMostPopular)
{
    ZipfSampler zipf(64, 1.1);
    Rng rng(4);
    std::vector<unsigned> counts(64, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[63]);
}

TEST(ZipfSampler, ExponentZeroIsUniform)
{
    ZipfSampler zipf(10, 0.0);
    Rng rng(6);
    std::vector<unsigned> counts(10, 0);
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        ++counts[zipf.sample(rng)];
    for (const auto c : counts)
        EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
}

/**
 * The guide table plus forward scan must return std::lower_bound's
 * rank for every u: each CDF entry, its neighbouring doubles, the
 * guide buckets' own edges, and random u, over several shapes.
 */
TEST(ZipfSampler, MatchesLowerBound)
{
    Rng rng(99);
    for (const unsigned n : {1u, 2u, 3u, 10u, 64u, 100u, 1000u}) {
        for (const double s : {0.0, 0.5, 1.1, 2.0}) {
            const ZipfSampler zipf(n, s);
            std::vector<double> cdf(n);
            double acc = 0.0;
            for (unsigned k = 0; k < n; ++k) {
                acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
                cdf[k] = acc;
            }
            for (auto &v : cdf)
                v /= acc;
            const auto reference = [&](double u) {
                const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
                return it == cdf.end()
                           ? n - 1
                           : static_cast<unsigned>(it - cdf.begin());
            };
            const auto expectSame = [&](double u) {
                ASSERT_EQ(zipf.fromUniform(u), reference(u))
                    << "n " << n << " s " << s << " u " << u;
            };
            std::vector<double> probes = {0.0, 1.0 - 0x1.0p-53};
            for (const double c : cdf) {
                double lo = c, hi = c;
                for (int i = 0; i < 4; ++i) {
                    lo = std::nextafter(lo, 0.0);
                    hi = std::nextafter(hi, 1.0);
                }
                for (double u = lo; u <= hi && u < 1.0;
                     u = std::nextafter(u, 1.0))
                    probes.push_back(u);
            }
            for (unsigned g = 0; g < 4 * n; ++g) {
                const double edge = static_cast<double>(g) / (4.0 * n);
                probes.push_back(edge);
                probes.push_back(std::nextafter(edge, 0.0));
            }
            for (int i = 0; i < 20000; ++i)
                probes.push_back(rng.real());
            for (const double u : probes)
                expectSame(u);
        }
    }
}

/** Property sweep: alias-table sampling matches its declared
 * distribution for a variety of shapes. */
class AliasTableShapes
    : public ::testing::TestWithParam<std::vector<double>>
{};

TEST_P(AliasTableShapes, SamplesMatchDeclaredProbabilities)
{
    const auto weights = GetParam();
    AliasTable table(weights);
    Rng rng(1234);
    std::vector<unsigned> counts(weights.size(), 0);
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        ++counts[table.sample(rng)];
    for (std::size_t i = 0; i < weights.size(); ++i) {
        EXPECT_NEAR(static_cast<double>(counts[i]) / trials,
                    table.probabilityOf(static_cast<unsigned>(i)),
                    0.012);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AliasTableShapes,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{0.9, 0.05, 0.05},
                      std::vector<double>{1, 2, 4, 8, 16, 32},
                      std::vector<double>{5, 0, 5, 0, 5},
                      std::vector<double>(100, 1.0)));

} // namespace
} // namespace nuca
