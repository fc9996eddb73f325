/**
 * @file
 * The sharing engine of the adaptive scheme (paper Section 2): the
 * per-core partitioning parameters, the shadow-tag gain estimator,
 * the LRU-hit loss estimator, and the periodic repartitioning step.
 *
 * The engine is deliberately independent of the cache structure it
 * controls: the AdaptiveNuca organization feeds it events (misses,
 * LRU hits, evictions) and reads back the per-core quotas. That makes
 * the estimator testable in isolation and reusable.
 */

#ifndef NUCA_NUCA_SHARING_ENGINE_HH
#define NUCA_NUCA_SHARING_ENGINE_HH

#include <functional>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace nuca {

/**
 * Everything one epoch-end re-evaluation decided, captured for
 * telemetry before the epoch counters are cleared. Delivered to the
 * observer registered with SharingEngine::setRepartitionObserver on
 * every evaluation — also when no quota moved, so traces show the
 * epochs where the estimators vetoed a move.
 */
struct RepartitionEvent
{
    /** 1-based index of the completed evaluation period. */
    std::uint64_t epoch = 0;
    std::vector<unsigned> quotaBefore;
    std::vector<unsigned> quotaAfter;
    /** Per-core hits in the shadow tags this epoch (unscaled). */
    std::vector<Counter> shadowHits;
    /** Per-core hits in the LRU blocks this epoch. */
    std::vector<Counter> lruHits;
    /** Core selected by the gain scan. */
    int gainer = -1;
    /** Core selected by the loss scan; -1 when no core could donate. */
    int loser = -1;
    /** Scaled gain of the gainer (shadow hits * sampling factor). */
    Counter scaledGain = 0;
    /** True when a block of quota actually moved. */
    bool moved = false;
};

/** Configuration of the sharing engine. */
struct SharingEngineParams
{
    unsigned numCores = 4;
    /** Sets of the (conceptually global) last-level cache. */
    unsigned numSets = 4096;
    /** Ways per global set (sum over all local caches). */
    unsigned totalWays = 16;
    /** Ways of one core's local cache. */
    unsigned localAssoc = 4;
    /**
     * Initial per-core quota of blocks per set. The paper's initial
     * split (75% private, 25% shared) corresponds to a quota equal
     * to the local associativity: privateWays = quota - 1 = 3 of 4.
     */
    unsigned initialQuota = 4;
    /**
     * Minimum quota: 1 private block plus the guaranteed 1 shared
     * block per set (paper Sections 2.2 and 2.4).
     */
    unsigned minQuota = 2;
    /** L3 misses between re-evaluations (paper: 2000). */
    Counter epochMisses = 2000;
    /**
     * log2 of the shadow-tag sampling divisor: 0 monitors every set,
     * 4 monitors the 1/16 of sets with the lowest index (paper
     * Section 4.6).
     */
    unsigned shadowSampleShift = 0;
    /** Tag width in bits, for the Section 2.7 storage-cost report. */
    unsigned tagBits = 36;
    /** Counter/register width in bits for the storage-cost report. */
    unsigned counterBits = 16;
    /**
     * Ablation knob: when false, the estimators still count but the
     * quotas never move — the organization degenerates to a static
     * equal partitioning with lazy sharing of spare capacity.
     */
    bool adaptationEnabled = true;
};

/** Gain/loss estimators plus the repartitioning policy. */
class SharingEngine
{
  public:
    SharingEngine(stats::Group &parent,
                  const SharingEngineParams &params);

    /** Current per-set block quota of @p core. */
    unsigned quota(CoreId core) const;

    /**
     * Ways of @p core's local cache that are private (protected):
     * min(quota - 1, localAssoc), never below 1. The remaining local
     * ways are the core's contribution to the shared partition.
     */
    unsigned privateWays(CoreId core) const;

    /** Largest quota any single core may reach. */
    unsigned maxQuota() const { return maxQuota_; }

    /** True if @p set carries shadow tags. */
    bool setIsSampled(unsigned set) const { return set < sampledSets_; }

    /** Number of sets carrying shadow tags. */
    unsigned sampledSets() const { return sampledSets_; }

    /**
     * Record an eviction from the L3: the victim's tag is stored in
     * the shadow tag of its owner for that set (if sampled).
     */
    void recordEviction(unsigned set, CoreId owner, Addr tag);

    /**
     * Process an L3 miss: check the requester's shadow tag (counting
     * a shadow hit on a match), advance the epoch, and repartition
     * when the epoch ends.
     *
     * @return true if the miss hit in the shadow tag, i.e. one more
     *         block per set would have avoided it.
     */
    bool observeMiss(unsigned set, CoreId core, Addr tag);

    /**
     * Count a hit on the requesting core's own LRU block while the
     * core is at (or beyond) its quota: the hit that would become a
     * miss with one block per set less.
     */
    void countLruHit(CoreId core);

    /** Shadow-tag hits of the current epoch (unscaled). */
    Counter shadowHitsOf(CoreId core) const;
    /** LRU-block hits of the current epoch. */
    Counter lruHitsOf(CoreId core) const;

    /** Total repartitioning moves performed. */
    Counter repartitions() const { return repartitions_.value(); }

    /** Misses observed inside the current epoch (for tests). */
    Counter epochProgress() const { return epochMissCount_; }

    /**
     * Extra storage the scheme needs, in bits (paper Section 2.7):
     * shadow tags + per-block core IDs + per-core counters/registers.
     */
    std::uint64_t storageCostBits() const;
    /** Shadow-tag share of storageCostBits(). */
    std::uint64_t shadowTagBits() const;
    /** Core-ID share of storageCostBits(). */
    std::uint64_t coreIdBits() const;

    /**
     * Force an immediate re-evaluation (tests / instrumentation);
     * normally driven by observeMiss reaching the epoch length.
     */
    void repartitionNow();

    /**
     * Register a callback invoked at the end of every repartitionNow
     * with the epoch's decision. Purely observational: the engine's
     * behaviour is identical with or without an observer, and with
     * none registered the hook costs one branch per epoch. Pass an
     * empty function to detach.
     */
    void setRepartitionObserver(
        std::function<void(const RepartitionEvent &)> observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Checkpoint the partitioning state: quotas, shadow tags, epoch
     * counters, and the tie-break scan position. The observer is a
     * wiring concern and is not part of the snapshot.
     */
    void checkpoint(Serializer &s) const;
    /** Restore a checkpoint of an identically configured engine.
     * Throws CheckpointError for a state stateDefect() rejects. */
    void restore(Deserializer &d);

    /**
     * The first defect of the partitioning state, or nullptr: a
     * quota below the minimum, quotas that do not sum to the set's
     * ways, or a scan start that names no core.
     */
    const char *stateDefect() const;

  private:
    SharingEngineParams params_;
    unsigned maxQuota_;
    unsigned sampledSets_;
    /** Scale factor applied to shadow hits when sampling. */
    Counter shadowScale_;

    /**
     * sampledSets_ x numCores shadow registers, split into parallel
     * tag/valid arrays so the per-miss probe touches two packed
     * lines instead of one padded struct per register. The
     * checkpoint keeps the legacy interleaved (tag, valid) order.
     */
    std::vector<Addr> shadowTags_;
    std::vector<std::uint8_t> shadowValid_;
    std::vector<unsigned> quotas_;
    std::vector<Counter> shadowHits_;
    std::vector<Counter> lruHits_;
    Counter epochMissCount_ = 0;
    /**
     * First core visited by the gainer/loser scans, advanced each
     * epoch so strict tie-breaking does not structurally favor low
     * core IDs (symmetric workloads would otherwise drift quota
     * toward core 0).
     */
    unsigned scanStart_ = 0;

    /** Telemetry hook; empty (and free) by default. */
    std::function<void(const RepartitionEvent &)> observer_;

    stats::Group statsGroup_;
    stats::Scalar repartitions_;
    stats::Scalar epochsEvaluated_;
    stats::Scalar shadowHitsTotal_;
    stats::Scalar lruHitsTotal_;
    stats::Vector quotaIncreases_;
    stats::Vector quotaDecreases_;
};

} // namespace nuca

#endif // NUCA_NUCA_SHARING_ENGINE_HH
