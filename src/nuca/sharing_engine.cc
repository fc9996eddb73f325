#include "nuca/sharing_engine.hh"

#include <algorithm>
#include <string>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "serialize/serializer.hh"

namespace nuca {

SharingEngine::SharingEngine(stats::Group &parent,
                             const SharingEngineParams &params)
    : params_(params),
      statsGroup_(parent, "sharing_engine"),
      repartitions_(statsGroup_, "repartitions",
                    "quota moves performed"),
      epochsEvaluated_(statsGroup_, "epochs",
                       "re-evaluation periods completed"),
      shadowHitsTotal_(statsGroup_, "shadow_hits",
                       "lifetime shadow-tag hits (unscaled)"),
      lruHitsTotal_(statsGroup_, "lru_hits",
                    "lifetime own-LRU-block hits at quota"),
      quotaIncreases_(statsGroup_, "quota_increases",
                      "times each core gained a block per set",
                      params.numCores),
      quotaDecreases_(statsGroup_, "quota_decreases",
                      "times each core lost a block per set",
                      params.numCores)
{
    fatal_if(params_.numCores < 2, "sharing engine needs >= 2 cores");
    fatal_if(params_.localAssoc == 0,
             "local associativity must be nonzero");
    fatal_if(params_.numSets == 0, "set count must be nonzero");
    fatal_if(params_.totalWays != params_.numCores * params_.localAssoc,
             "totalWays must equal numCores * localAssoc");
    fatal_if(params_.minQuota < 2,
             "minQuota below 2 violates the guaranteed private+shared "
             "block per set");
    fatal_if((params_.numCores - 1) * params_.minQuota >=
                 params_.totalWays,
             "minQuota leaves no quota headroom: (numCores-1)*minQuota "
             "must stay below totalWays");
    fatal_if(params_.initialQuota < params_.minQuota,
             "initial quota below the minimum quota");
    fatal_if(params_.initialQuota * params_.numCores !=
                 params_.totalWays,
             "initial quotas must sum to the total ways per set");
    fatal_if(params_.epochMisses == 0, "epoch length must be positive");
    fatal_if(params_.shadowSampleShift >=
                 ceilLog2(params_.numSets) + 1,
             "shadow sampling divisor exceeds the set count");

    maxQuota_ = params_.totalWays -
                (params_.numCores - 1) * params_.minQuota;
    sampledSets_ =
        std::max(1u, params_.numSets >> params_.shadowSampleShift);
    shadowScale_ = params_.numSets / sampledSets_;

    const std::size_t regs =
        static_cast<std::size_t>(sampledSets_) * params_.numCores;
    shadowTags_.assign(regs, 0);
    shadowValid_.assign(regs, 0);
    quotas_.assign(params_.numCores, params_.initialQuota);
    shadowHits_.assign(params_.numCores, 0);
    lruHits_.assign(params_.numCores, 0);
}

unsigned
SharingEngine::quota(CoreId core) const
{
    panic_if(core < 0 ||
                 static_cast<unsigned>(core) >= params_.numCores,
             "core id out of range");
    return quotas_[static_cast<std::size_t>(core)];
}

unsigned
SharingEngine::privateWays(CoreId core) const
{
    const unsigned q = quota(core);
    // quota >= minQuota >= 2, so q - 1 >= 1 always holds.
    return std::min(q - 1, params_.localAssoc);
}

void
SharingEngine::recordEviction(unsigned set, CoreId owner, Addr tag)
{
    panic_if(set >= params_.numSets, "set index out of range");
    if (!setIsSampled(set) || owner == invalidCore)
        return;
    const std::size_t i = static_cast<std::size_t>(set) *
                              params_.numCores +
                          static_cast<std::size_t>(owner);
    shadowTags_[i] = tag;
    shadowValid_[i] = 1;
}

bool
SharingEngine::observeMiss(unsigned set, CoreId core, Addr tag)
{
    panic_if(set >= params_.numSets, "set index out of range");
    bool shadow_hit = false;
    if (setIsSampled(set)) {
        const std::size_t i =
            static_cast<std::size_t>(set) * params_.numCores +
            static_cast<std::size_t>(core);
        if (shadowValid_[i] && shadowTags_[i] == tag) {
            shadow_hit = true;
            ++shadowHits_[static_cast<std::size_t>(core)];
            ++shadowHitsTotal_;
        }
    }

    if (++epochMissCount_ >= params_.epochMisses) {
        repartitionNow();
        epochMissCount_ = 0;
    }
    return shadow_hit;
}

void
SharingEngine::countLruHit(CoreId core)
{
    panic_if(core < 0 ||
                 static_cast<unsigned>(core) >= params_.numCores,
             "core id out of range");
    ++lruHits_[static_cast<std::size_t>(core)];
    ++lruHitsTotal_;
}

Counter
SharingEngine::shadowHitsOf(CoreId core) const
{
    return shadowHits_[static_cast<std::size_t>(core)];
}

Counter
SharingEngine::lruHitsOf(CoreId core) const
{
    return lruHits_[static_cast<std::size_t>(core)];
}

void
SharingEngine::repartitionNow()
{
    ++epochsEvaluated_;

    // Snapshot the pre-decision state for the observer before the
    // epoch counters are consumed; skipped entirely when nobody is
    // listening.
    RepartitionEvent event;
    if (observer_) {
        event.epoch = epochsEvaluated_.value();
        event.quotaBefore = quotas_;
        event.shadowHits = shadowHits_;
        event.lruHits = lruHits_;
    }

    // Highest gain from growing: most shadow-tag hits. Lowest loss
    // from shrinking: fewest hits in own LRU blocks. Shadow hits are
    // scaled up when only a subset of sets carries shadow tags
    // because LRU hits are counted in every set (Section 4.6).
    //
    // Both scans break ties strictly, which would structurally favor
    // whichever core is visited first: a symmetric workload with
    // permanently tied counters would drain quota toward core 0
    // epoch after epoch. Rotating the scan start across epochs keeps
    // ties fair without disturbing any decision where the counters
    // actually differ.
    const unsigned n = params_.numCores;
    unsigned gainer = scanStart_;
    for (unsigned k = 1; k < n; ++k) {
        const unsigned c = (scanStart_ + k) % n;
        if (shadowHits_[c] > shadowHits_[gainer])
            gainer = c;
    }
    // The loser is the core (other than the gainer — a core cannot
    // trade with itself) whose hits in its own LRU blocks are
    // fewest, i.e. the one that loses least from shrinking. Cores
    // already at the minimum quota cannot donate, so they are
    // skipped: otherwise a single fully-squeezed core would block
    // all further adaptation for the rest of the run.
    int loser = -1;
    for (unsigned k = 0; k < n; ++k) {
        const unsigned c = (scanStart_ + k) % n;
        if (c == gainer || quotas_[c] <= params_.minQuota)
            continue;
        if (loser < 0 ||
            lruHits_[c] < lruHits_[static_cast<unsigned>(loser)]) {
            loser = static_cast<int>(c);
        }
    }
    scanStart_ = (scanStart_ + 1) % n;

    const Counter gain = shadowHits_[gainer] * shadowScale_;

    bool moved = false;
    if (params_.adaptationEnabled && loser >= 0 &&
        gain > lruHits_[static_cast<unsigned>(loser)] &&
        quotas_[gainer] < maxQuota_) {
        ++quotas_[gainer];
        --quotas_[static_cast<unsigned>(loser)];
        ++repartitions_;
        ++quotaIncreases_[gainer];
        ++quotaDecreases_[static_cast<unsigned>(loser)];
        moved = true;
    }

    std::fill(shadowHits_.begin(), shadowHits_.end(), 0);
    std::fill(lruHits_.begin(), lruHits_.end(), 0);

    if (observer_) {
        event.quotaAfter = quotas_;
        event.gainer = static_cast<int>(gainer);
        event.loser = loser;
        event.scaledGain = gain;
        event.moved = moved;
        observer_(event);
    }
}

std::uint64_t
SharingEngine::shadowTagBits() const
{
    return static_cast<std::uint64_t>(sampledSets_) *
           params_.numCores * params_.tagBits;
}

std::uint64_t
SharingEngine::coreIdBits() const
{
    const std::uint64_t total_blocks =
        static_cast<std::uint64_t>(params_.numSets) *
        params_.totalWays;
    return ceilLog2(params_.numCores) * total_blocks;
}

std::uint64_t
SharingEngine::storageCostBits() const
{
    // Two counters plus one quota register per core (Section 2.7's
    // "p * 3 * w").
    const std::uint64_t counter_bits =
        static_cast<std::uint64_t>(params_.numCores) * 3 *
        params_.counterBits;
    return shadowTagBits() + coreIdBits() + counter_bits;
}

void
SharingEngine::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("SENG"));
    s.putU64(shadowTags_.size());
    auto w = s.record(shadowTags_.size() * (8 + 1));
    for (std::size_t i = 0; i < shadowTags_.size(); ++i) {
        w.putU64(shadowTags_[i]);
        w.putBool(shadowValid_[i] != 0);
    }
    s.putU64(quotas_.size());
    for (const auto q : quotas_)
        s.putU32(q);
    s.putVecU64(shadowHits_);
    s.putVecU64(lruHits_);
    s.putU64(epochMissCount_);
    s.putU32(scanStart_);
}

void
SharingEngine::restore(Deserializer &d)
{
    d.expectTag(fourcc("SENG"), "sharing engine");
    if (d.getU64() != shadowTags_.size())
        throw CheckpointError("shadow tag array size mismatch");
    auto r = d.record(shadowTags_.size() * (8 + 1));
    for (std::size_t i = 0; i < shadowTags_.size(); ++i) {
        shadowTags_[i] = r.getU64();
        shadowValid_[i] = r.getBool() ? 1 : 0;
    }
    if (d.getU64() != quotas_.size())
        throw CheckpointError("quota vector size mismatch");
    for (auto &q : quotas_)
        q = d.getU32();
    d.getVecU64(shadowHits_, "shadow hits");
    d.getVecU64(lruHits_, "LRU hits");
    epochMissCount_ = d.getU64();
    scanStart_ = d.getU32();
    if (const char *defect = stateDefect())
        throw CheckpointError(std::string("sharing engine: ") + defect);
}

const char *
SharingEngine::stateDefect() const
{
    std::uint64_t sum = 0; // wide enough for any restored quotas
    for (const auto q : quotas_) {
        if (q < params_.minQuota)
            return "quota below the minimum quota";
        sum += q;
    }
    // Each quota is at least minQuota, so this also bounds every
    // quota by maxQuota_.
    if (sum != params_.totalWays)
        return "quotas no longer sum to the total ways per set";
    if (scanStart_ >= params_.numCores)
        return "repartition scan starts past the last core";
    return nullptr;
}

} // namespace nuca
