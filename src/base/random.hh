/**
 * @file
 * Deterministic pseudo-random number generation and the discrete
 * distributions the workload generators rely on.
 *
 * Every stochastic decision in the simulator (workload draws, spill
 * targets, experiment mixes) flows from an explicitly seeded Rng so
 * identical seeds reproduce identical simulations bit-for-bit across
 * platforms. std::mt19937 and <random> distributions are avoided
 * because their outputs are not specified identically across standard
 * library implementations.
 */

#ifndef NUCA_BASE_RANDOM_HH
#define NUCA_BASE_RANDOM_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace nuca {

class Serializer;
class Deserializer;

/**
 * xoshiro256** generator with a splitmix64-based seeding routine.
 * Fast, high quality, and fully portable.
 */
class Rng
{
  public:
    /** Seed the generator; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Multiply-shift rejection-free mapping (Lemire); bias is
        // negligible (< 2^-64 * bound) for simulation purposes.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::between with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

    /** Derive an independent child stream (for per-core generators). */
    Rng split();

    /** Checkpoint the generator state (four 64-bit words). */
    void checkpoint(Serializer &s) const;
    /** Restore a state written by checkpoint(). */
    void restore(Deserializer &d);

  private:
    std::uint64_t s_[4];
};

/**
 * Geometric draws: the number of failures before the first success
 * with per-trial success probability p in (0, 1], capped at `cap`.
 * Mean (1-p)/p before the cap.
 *
 * The draw is the inversion formula
 *     min(floor(log(max(u, 2^-60)) / log1p(-p)), cap)
 * over one uniform u = Rng::real(), and sample() returns exactly
 * what that formula returns for every u, without calling log() for
 * nearly all of them. The result is k exactly when u lies between
 * the thresholds (1-p)^(k+1) and (1-p)^k, so the table holds each
 * threshold with a relative guard band of 2^-30 on either side, plus
 * a guide array indexed by u * size that points at the first
 * threshold worth comparing. Outside every band the formula's
 * rounding (libm's log within 1 ULP, the division within half an
 * ULP: a relative error near 2^-44 at worst) cannot move the floor
 * across an integer, so the table's answer is the formula's answer;
 * inside a band, sample() evaluates the formula itself.
 *
 * With p >= 1 every draw is 0 and sample() consumes no randomness.
 */
class GeometricTable
{
  public:
    /** @pre 0 < p <= 1 */
    GeometricTable(double p, std::uint64_t cap);

    /** One geometric draw (no draw at all when p >= 1). */
    std::uint64_t
    sample(Rng &rng) const
    {
        return degenerate_ ? 0 : fromUniform(rng.real());
    }

    /** The draw for a given uniform @p u in [0, 1). */
    std::uint64_t
    fromUniform(double u) const
    {
        if (degenerate_)
            return 0;
        u = u < minUniform ? minUniform : u;
        // Every band before guide_[g] lies wholly above u, and so
        // does every band the scan steps over: the draw is at least
        // the count k of bands above u.
        std::size_t k = guide_[static_cast<std::size_t>(u * guideScale_)];
        while (k < bands_.size() && bands_[k].lo > u)
            ++k;
        if (k == bands_.size())
            return belowAll_ == useFormula ? formula(u) : belowAll_;
        // u is below band k-1 and, unless it falls inside band k,
        // above it: the draw is exactly k.
        return bands_[k].hi < u ? k : formula(u);
    }

  private:
    /** The smallest uniform the formula sees (log(0) guard). */
    static constexpr double minUniform = 0x1.0p-60;
    /** belowAll_ value: a u below every band needs the formula. */
    static constexpr std::uint64_t useFormula = ~std::uint64_t{0};

    /** A threshold (1-p)^k widened by the guard band. */
    struct Band
    {
        double lo;
        double hi;
    };

    /** The inversion formula itself (u already clamped). */
    std::uint64_t formula(double u) const;

    bool degenerate_ = true;
    std::uint64_t cap_ = 0;
    double logDenom_ = 0.0;
    /** bands_[j] brackets (1-p)^(j+1); strictly decreasing. */
    std::vector<Band> bands_;
    /** Draw for a u below every band, or useFormula when the table
     * was truncated before reaching the cap. */
    std::uint64_t belowAll_ = 0;
    /** guide_[g]: how many bands lie wholly above (g+1)/size. */
    std::vector<std::uint16_t> guide_;
    double guideScale_ = 0.0;
};

/**
 * Walker alias table: O(1) sampling from an arbitrary fixed discrete
 * distribution. Used on every workload memory reference to pick which
 * reuse region an access targets, so it has to be fast.
 */
class AliasTable
{
  public:
    AliasTable() = default;

    /**
     * Build the table from (unnormalized, non-negative) weights.
     * @pre at least one weight is positive.
     */
    explicit AliasTable(const std::vector<double> &weights);

    /** Draw an index with probability proportional to its weight. */
    unsigned
    sample(Rng &rng) const
    {
        panic_if(prob_.empty(), "sampling from an empty AliasTable");
        const auto i =
            static_cast<unsigned>(rng.below(prob_.size()));
        return rng.real() < prob_[i] ? i : alias_[i];
    }

    /** Number of outcomes. */
    std::size_t size() const { return prob_.size(); }

    /** Normalized probability of outcome @p i (for tests/inspection). */
    double probabilityOf(unsigned i) const;

  private:
    std::vector<double> prob_;
    std::vector<unsigned> alias_;
    std::vector<double> normWeights_;
};

/**
 * Zipf(s) sampler over ranks {0, ..., n-1}: P(k) proportional to
 * 1/(k+1)^s. The draw is the first rank whose CDF entry is >= u,
 * i.e. std::lower_bound over the precomputed CDF, and it returns
 * exactly that rank. A guide table of about 4n entries, guide[g] =
 * lower_bound(cdf, g / size), starts a short forward scan instead of
 * a binary search, whose unpredictable branches cost more than the
 * scan on the per-branch hot path.
 */
class ZipfSampler
{
  public:
    ZipfSampler() = default;

    /** @pre n > 0, s >= 0 */
    ZipfSampler(unsigned n, double s);

    /** Draw a rank in [0, n). */
    unsigned
    sample(Rng &rng) const
    {
        panic_if(cdf_.empty(), "sampling from an empty ZipfSampler");
        return fromUniform(rng.real());
    }

    /** The rank drawn for a given uniform @p u in [0, 1). */
    unsigned
    fromUniform(double u) const
    {
        const auto last = static_cast<unsigned>(cdf_.size() - 1);
        unsigned i = guide_[static_cast<std::size_t>(u * guideScale_)];
        while (i < last && cdf_[i] < u)
            ++i;
        return i;
    }

    unsigned size() const { return static_cast<unsigned>(cdf_.size()); }

  private:
    std::vector<double> cdf_;
    std::vector<unsigned> guide_;
    double guideScale_ = 0.0;
};

} // namespace nuca

#endif // NUCA_BASE_RANDOM_HH
