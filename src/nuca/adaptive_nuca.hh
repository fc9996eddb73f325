/**
 * @file
 * The paper's proposed last-level cache organization: per-core local
 * caches whose sets form one global NUCA set, split into per-core
 * private partitions and a common shared partition whose per-core
 * usage is bounded by dynamically adapted quotas (paper Section 2).
 *
 * Physical model. Each of the four local caches contributes
 * `localAssoc` slots to every global set; slot s belongs to (is
 * physically inside) core s/localAssoc's local cache. A hit in the
 * requester's own local cache costs 14 cycles, a hit in a neighbor's
 * cache 19 cycles (Table 1). Blocks move between caches only through
 * the events the paper describes: the neighbor-hit swap and the
 * demotion of a private-LRU block into the shared partition.
 *
 * Partition model. Every slot is labeled private or shared. Private
 * blocks live in their owner's local cache and are protected from
 * other cores' replacements. The paper also makes them "inaccessible
 * by the other cores" (Section 2); on its multiprogrammed mixes no
 * two cores share an address, so no other core ever asks for one.
 * Here any core may hit any block: a line that threads do share is
 * pulled over by the neighbor-hit swap, never duplicated, so a set
 * holds each tag at most once. The per-core quota (`max blocks in
 * set`, adapted by the SharingEngine) bounds the number of blocks a
 * core may keep per global set; Algorithm 1 enforces it lazily by
 * preferring victims whose owner is over quota.
 */

#ifndef NUCA_NUCA_ADAPTIVE_NUCA_HH
#define NUCA_NUCA_ADAPTIVE_NUCA_HH

#include <optional>
#include <type_traits>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "cache/cache_block.hh"
#include "mem/main_memory.hh"
#include "nuca/l3_organization.hh"
#include "nuca/sharing_engine.hh"

namespace nuca {

/** Configuration of the adaptive NUCA organization. */
struct AdaptiveNucaParams
{
    unsigned numCores = 4;
    std::uint64_t sizePerCoreBytes = 1ull << 20;
    unsigned localAssoc = 4;
    Cycle localHitLatency = 14;
    Cycle remoteHitLatency = 19;
    /** Misses between quota re-evaluations. */
    Counter epochMisses = 2000;
    /** log2 of the shadow-tag sampling divisor (0 = every set). */
    unsigned shadowSampleShift = 0;
    /** Ablation: freeze the quotas at the initial equal split. */
    bool adaptationEnabled = true;
};

/** The adaptive shared/private NUCA L3. */
class AdaptiveNuca : public L3Organization
{
  public:
    /** Cores the five owner bits of a slot's state byte can name. */
    static constexpr unsigned maxCores = 32;

    AdaptiveNuca(stats::Group &parent,
                 const AdaptiveNucaParams &params, MainMemory &memory);

    L3Result access(const MemRequest &req, Cycle now) override;
    void writebackFromL2(CoreId core, Addr addr, Cycle now) override;
    std::string schemeName() const override { return "adaptive"; }
    void checkStructure() const override { checkInvariants(); }
    bool injectLruCorruption() override;
    void checkpoint(Serializer &s) const override;
    void restore(Deserializer &d) override;
    /** Banks are the per-core local caches; a remote hit counts
     * against the bank physically holding the block. */
    bool enableHeatmap() override;
    const L3Heatmap *heatmap() const override { return &heat_; }
    /** Per-core histogram of owned blocks per global set — each
     * core's actual footprint against its quota. */
    std::vector<std::vector<std::uint64_t>>
    occupancyHistograms() const override;

    /** The sharing engine (quotas, estimators). */
    SharingEngine &engine() { return engine_; }
    const SharingEngine &engine() const { return engine_; }

    unsigned numSets() const { return numSets_; }
    unsigned totalWays() const { return totalWays_; }
    unsigned localAssoc() const { return params_.localAssoc; }

    /** Home core of a slot index within a set. */
    CoreId homeOf(unsigned slot) const;

    /** A slot's block state, materialized from the tag arrays
     * (tests/inspection). */
    CacheBlock blockAt(unsigned set, unsigned slot) const;
    /** A slot's partition label (tests/inspection). */
    bool slotIsShared(unsigned set, unsigned slot) const;

    /** Valid blocks owned by @p core in @p set (private + shared). */
    unsigned ownedCount(unsigned set, CoreId core) const;
    /** Valid private-labeled blocks of @p core in @p set. */
    unsigned privateCount(unsigned set, CoreId core) const;

    /**
     * Verify structural invariants over every set; panics on
     * violation. Used by the property tests after random workloads.
     */
    void checkInvariants() const;

    Counter localHitsOf(CoreId core) const;
    Counter remoteHitsOf(CoreId core) const;
    Counter missesOf(CoreId core) const;
    Counter misses() const { return misses_.total(); }

  private:
    /** Packed per-slot state byte: valid, dirty and shared bits, and
     * the owner in the top five bits. An invalid slot's byte is 0. */
    static constexpr std::uint8_t stValid = 1;
    static constexpr std::uint8_t stDirty = 2;
    static constexpr std::uint8_t stShared = 4;
    static constexpr unsigned stOwnerShift = 3;

    static std::uint8_t
    packState(CoreId owner, bool dirty, bool shared)
    {
        return static_cast<std::uint8_t>(
            stValid | (dirty ? stDirty : 0) | (shared ? stShared : 0) |
            (static_cast<unsigned>(owner) << stOwnerShift));
    }
    static CoreId
    ownerOf(std::uint8_t st)
    {
        return static_cast<CoreId>(st >> stOwnerShift);
    }

    /**
     * One global set's record, laid out contiguously: the tags and
     * use stamps (8 bytes per slot each), then one signature byte and
     * one state byte per slot, then the per-core owned and private
     * block counts. Records are cache-line aligned, so a miss that
     * works on one set touches only that set's lines.
     */
    template <typename Word, typename Byte>
    struct BasicSetRef
    {
        Word *tag;
        Word *use;
        Byte *sig;
        Byte *st;
        /** Derived: valid blocks of each core (private + shared). */
        Byte *owned;
        /** Derived: valid private-labeled blocks of each core. */
        Byte *priv;

        /** A writable view reads as a read-only one. */
        operator BasicSetRef<const Word, const Byte>() const
            requires(!std::is_const_v<Word>)
        {
            return {tag, use, sig, st, owned, priv};
        }
    };
    using SetRef = BasicSetRef<std::uint64_t, std::uint8_t>;
    using ConstSetRef =
        BasicSetRef<const std::uint64_t, const std::uint8_t>;

    SetRef ref(unsigned set);
    ConstSetRef ref(unsigned set) const;

    /**
     * One-byte tag signature of a valid slot, 0 for invalid slots.
     * The top bit is always set for valid entries (so 0 can never
     * collide with a real signature) and the low seven bits mix tag
     * bits from above the set index, which is constant within a set.
     * Tag probes scan these bytes eight at a time and only compare
     * the full tags of the rare signature matches.
     */
    static std::uint8_t
    sigOf(Addr tag)
    {
        return static_cast<std::uint8_t>(
            0x80u | ((tag ^ (tag >> 7) ^ (tag >> 14)) & 0x7f));
    }

    /** Add (@p delta +1) or remove (-1) valid slot @p s's block in
     * the set's derived counts. */
    static void tally(SetRef r, unsigned s, int delta);
    /**
     * Make slot @p s of @p r a valid block with a fresh use stamp,
     * keeping the signature and the derived counts in sync. Every
     * slot write goes through fill, clearSlot or relabel.
     */
    void fill(SetRef r, unsigned s, Addr tag, CoreId owner, bool dirty,
              bool shared);
    /** Clear slot @p s back to the empty state (tag and stamp stay,
     * as the checkpoint has always carried them). */
    void clearSlot(SetRef r, unsigned s);
    /** Change the partition label of valid slot @p s; promotion
     * (@p shared false) also hands the block to @p owner. */
    void relabel(SetRef r, unsigned s, bool shared, CoreId owner);

    unsigned setIndex(Addr addr) const;
    std::uint64_t nextStamp() { return ++stampCounter_; }

    /** The first structural defect of @p set, or nullptr. Shared by
     * checkInvariants (which panics) and restore (which throws). */
    const char *setDefect(unsigned set) const;

    /** Slot holding @p tag, or -1. Any core may hit any block. */
    int find(unsigned set, Addr tag) const;
    /** The slot of @p core's local cache that takes an incoming
     * block: the first invalid one, else the private-LRU block, else
     * the local shared-LRU block; -1 if none. */
    int localVictim(ConstSetRef r, CoreId core) const;
    /** LRU private-labeled slot of @p core, or -1. */
    int privateLruSlot(ConstSetRef r, CoreId core) const;

    /** Evict the block in @p slot: shadow-tag record + writeback. */
    void evictSlot(unsigned set, SetRef r, unsigned slot, Cycle now);

    /**
     * Install a block fetched from memory into @p core's private
     * partition, demoting/evicting per Section 2.4. One pass over the
     * requester's local slots finds the destination; when that
     * displaces a block, one pass over the set finds an invalid slot
     * or Algorithm 1's victim, with the over-quota owners taken from
     * the derived counts.
     */
    void insertFromMemory(unsigned set, CoreId core, Addr tag,
                          bool dirty, Cycle now);

    /** Demote @p core's private-LRU blocks in place until the
     * private partition respects privateWays(core). */
    void enforcePrivateCap(SetRef r, CoreId core);

    /** Run the LRU-hit loss estimator for a hit on @p slot. */
    void maybeCountLruHit(ConstSetRef r, unsigned slot, CoreId core);

    AdaptiveNucaParams params_;
    MainMemory &memory_;
    unsigned numSets_;
    unsigned totalWays_;
    unsigned indexMask_;
    std::uint64_t stampCounter_ = 0;

    /** Bytes between consecutive set records (a multiple of 64). */
    std::size_t setStride_;
    /** Byte offsets of the record's arrays (see BasicSetRef). */
    std::size_t sigOffset_;
    std::size_t stOffset_;
    std::size_t ownedOffset_;
    std::size_t privOffset_;
    /** Backing store of the set records; records_ is its first
     * 64-byte boundary. */
    std::vector<std::uint64_t> storage_;
    std::uint8_t *records_ = nullptr;

    L3Heatmap heat_;

    stats::Group statsGroup_;
    SharingEngine engine_;
    stats::Vector localHits_;
    stats::Vector remoteHits_;
    stats::Vector misses_;
    stats::Scalar demotions_;
    stats::Scalar promotions_;
    stats::Scalar swaps_;
    stats::Scalar evictions_;
    stats::Scalar overQuotaEvictions_;
};

} // namespace nuca

#endif // NUCA_NUCA_ADAPTIVE_NUCA_HH
