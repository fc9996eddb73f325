#include "base/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "serialize/serializer.hh"

namespace nuca {

namespace {

/** splitmix64 step; standard seeding companion for xoshiro. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro must not start from the all-zero state; splitmix64
    // cannot produce four zero outputs from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

void
Rng::checkpoint(Serializer &s) const
{
    for (const auto word : s_)
        s.putU64(word);
}

void
Rng::restore(Deserializer &d)
{
    for (auto &word : s_)
        word = d.getU64();
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        throw CheckpointError("Rng restore: all-zero state");
}

Rng
Rng::split()
{
    // A fresh generator seeded from this stream's output; streams are
    // decorrelated through the splitmix64 scrambler in the ctor.
    return Rng(next());
}

GeometricTable::GeometricTable(double p, std::uint64_t cap)
    : degenerate_(false), cap_(cap)
{
    panic_if(p <= 0.0 || p > 1.0, "geometric probability out of (0,1]");
    if (p >= 1.0) {
        degenerate_ = true;
        return;
    }
    logDenom_ = std::log1p(-p);

    // Thresholds (1-p)^k by repeated multiplication: after k steps
    // the relative error is near k * 2^-52, far inside the 2^-30
    // band for any table this size. The table stops at the cap, at
    // the first threshold every clamped u lies above (the draw can
    // never reach it), or at the size limit, below which the
    // formula answers.
    constexpr double guard = 0x1.0p-30;
    constexpr std::size_t maxBands = 4096;
    const double q = 1.0 - p;
    double t = q;
    belowAll_ = useFormula;
    bands_.reserve(std::min<std::uint64_t>(cap_, maxBands));
    while (bands_.size() < maxBands) {
        if (bands_.size() == cap_) {
            belowAll_ = cap_;
            break;
        }
        if (t * (1.0 + guard) < minUniform) {
            belowAll_ = bands_.size();
            break;
        }
        bands_.push_back(Band{t * (1.0 - guard), t * (1.0 + guard)});
        t *= q;
    }

    // Guide: for bucket g (u in [g, g+1) / size), the number of
    // bands whose lower edge is at or above (g+1) / size, i.e. with
    // floor(lo * size) > g (the product is exact: size is a power of
    // two). Those floors descend with k, so band k owns the buckets
    // from its floor up to the previous band's: one pass of fills.
    const std::size_t size =
        std::bit_ceil(std::max<std::size_t>(64, 4 * bands_.size()));
    guideScale_ = static_cast<double>(size);
    guide_.resize(size);
    std::size_t above = size;
    for (std::size_t k = 0; k < bands_.size(); ++k) {
        const auto floor_k =
            static_cast<std::size_t>(bands_[k].lo * guideScale_);
        std::fill(guide_.begin() + floor_k, guide_.begin() + above,
                  static_cast<std::uint16_t>(k));
        above = floor_k;
    }
    std::fill(guide_.begin(), guide_.begin() + above,
              static_cast<std::uint16_t>(bands_.size()));
}

std::uint64_t
GeometricTable::formula(double u) const
{
    const double draws = std::floor(std::log(u) / logDenom_);
    if (draws >= static_cast<double>(cap_))
        return cap_;
    return static_cast<std::uint64_t>(draws);
}

AliasTable::AliasTable(const std::vector<double> &weights)
{
    panic_if(weights.empty(), "AliasTable built from no weights");
    double total = 0.0;
    for (double w : weights) {
        panic_if(w < 0.0, "AliasTable weight is negative");
        total += w;
    }
    panic_if(total <= 0.0, "AliasTable weights sum to zero");

    const auto n = weights.size();
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    normWeights_.resize(n);

    // Scaled probabilities: mean 1.0.
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
        normWeights_[i] = weights[i] / total;
        scaled[i] = normWeights_[i] * static_cast<double>(n);
    }

    std::vector<unsigned> small, large;
    for (std::size_t i = 0; i < n; ++i) {
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<unsigned>(i));
    }

    while (!small.empty() && !large.empty()) {
        const unsigned s = small.back();
        small.pop_back();
        const unsigned l = large.back();
        large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Residual buckets are full-probability (floating-point leftovers).
    for (unsigned i : large)
        prob_[i] = 1.0;
    for (unsigned i : small)
        prob_[i] = 1.0;
}

double
AliasTable::probabilityOf(unsigned i) const
{
    panic_if(i >= normWeights_.size(), "AliasTable index out of range");
    return normWeights_[i];
}

ZipfSampler::ZipfSampler(unsigned n, double s)
{
    panic_if(n == 0, "ZipfSampler over zero ranks");
    panic_if(s < 0.0, "ZipfSampler exponent is negative");
    cdf_.resize(n);
    double acc = 0.0;
    for (unsigned k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;

    // guide_[g] = lower_bound(cdf, g / size), capped at n - 1: the
    // number of entries i < n - 1 with cdf[i] < g / size, i.e. with
    // floor(cdf[i] * size) < g. A power-of-two size keeps u * size
    // and these products exact, so u >= g / size holds for the
    // bucket g that u indexes and the scan from guide_[g] cannot
    // start past the lower bound. Entry i is first counted at bucket
    // floor(cdf[i] * size) + 1, which ascends with i, so the buckets
    // between two entries' starts take one fill.
    const std::size_t size = std::bit_ceil(std::size_t{4} * n);
    guideScale_ = static_cast<double>(size);
    guide_.resize(size);
    std::size_t from = 0;
    for (unsigned i = 0; i + 1 < n; ++i) {
        const auto counted_from = std::min(
            size, static_cast<std::size_t>(cdf_[i] * guideScale_) + 1);
        std::fill(guide_.begin() + from, guide_.begin() + counted_from,
                  i);
        from = counted_from;
    }
    std::fill(guide_.begin() + from, guide_.end(), n - 1);
}

} // namespace nuca
