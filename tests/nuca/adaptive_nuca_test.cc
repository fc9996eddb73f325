/** @file
 * Unit and property tests for the adaptive shared/private NUCA
 * organization — the paper's core mechanism.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "base/random.hh"
#include "mem/main_memory.hh"
#include "nuca/adaptive_nuca.hh"
#include "serialize/serializer.hh"
#include "sim/checkpoint.hh"

namespace nuca {
namespace {

/** A small adaptive L3: 64 KB per core, 4-way -> 256 global sets. */
struct Fixture
{
    Fixture(Counter epoch_misses = 1u << 30,
            unsigned sample_shift = 0)
        : root("test"), memory(root, "memory", MainMemoryParams{})
    {
        AdaptiveNucaParams params;
        params.numCores = 4;
        params.sizePerCoreBytes = 64 * 1024;
        params.localAssoc = 4;
        params.epochMisses = epoch_misses;
        params.shadowSampleShift = sample_shift;
        nuca = std::make_unique<AdaptiveNuca>(root, params, memory);
    }

    /** Address mapping to @p set with tag index @p t. */
    Addr
    addr(unsigned set, std::uint64_t t) const
    {
        return (t * nuca->numSets() + set) * blockBytes;
    }

    L3Result
    read(CoreId core, Addr a, Cycle now = 0)
    {
        return nuca->access(MemRequest{core, a, MemOp::Read}, now);
    }

    stats::Group root;
    MainMemory memory;
    std::unique_ptr<AdaptiveNuca> nuca;
};

TEST(AdaptiveNuca, GeometryMatchesConfiguration)
{
    Fixture f;
    EXPECT_EQ(f.nuca->numSets(), 256u);
    EXPECT_EQ(f.nuca->totalWays(), 16u);
    EXPECT_EQ(f.nuca->localAssoc(), 4u);
    EXPECT_EQ(f.nuca->homeOf(0), 0);
    EXPECT_EQ(f.nuca->homeOf(3), 0);
    EXPECT_EQ(f.nuca->homeOf(4), 1);
    EXPECT_EQ(f.nuca->homeOf(15), 3);
}

TEST(AdaptiveNuca, PaperBaselineGeometry)
{
    stats::Group root("t");
    MainMemory memory(root, "memory", MainMemoryParams{});
    AdaptiveNuca nuca(root, AdaptiveNucaParams{}, memory);
    // 1 MB per core, 4-way, 64 B -> 4096 sets of 16 global ways.
    EXPECT_EQ(nuca.numSets(), 4096u);
    EXPECT_EQ(nuca.totalWays(), 16u);
}

TEST(AdaptiveNuca, MissFetchesFromMemoryAndInstallsPrivate)
{
    Fixture f;
    const Addr a = f.addr(7, 1);
    const auto res = f.read(0, a, 100);
    EXPECT_EQ(res.where, L3Result::Where::Miss);
    EXPECT_EQ(res.ready, 100u + 260u);
    EXPECT_EQ(f.nuca->missesOf(0), 1u);

    // The block sits in core 0's local slots, private, owned by 0.
    EXPECT_EQ(f.nuca->ownedCount(7, 0), 1u);
    EXPECT_EQ(f.nuca->privateCount(7, 0), 1u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, LocalHitIsFast)
{
    Fixture f;
    const Addr a = f.addr(3, 1);
    f.read(1, a, 0);
    const auto res = f.read(1, a, 1000);
    EXPECT_EQ(res.where, L3Result::Where::LocalHit);
    EXPECT_EQ(res.ready, 1000u + 14u);
    EXPECT_EQ(f.nuca->localHitsOf(1), 1u);
}

TEST(AdaptiveNuca, PrivatePartitionCapDemotesLru)
{
    Fixture f;
    // Four fills by core 0 into one set: private ways = 3, so after
    // the fourth fill the oldest block is demoted to shared.
    for (unsigned t = 0; t < 4; ++t)
        f.read(0, f.addr(5, t), t * 1000);
    EXPECT_EQ(f.nuca->ownedCount(5, 0), 4u);
    EXPECT_EQ(f.nuca->privateCount(5, 0), 3u);
    // The demoted block (first inserted) is the shared-labeled one.
    unsigned shared_count = 0;
    for (unsigned s = 0; s < 16; ++s) {
        if (f.nuca->blockAt(5, s).valid && f.nuca->slotIsShared(5, s))
            ++shared_count;
    }
    EXPECT_EQ(shared_count, 1u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, IdleNeighborsCapacityIsBorrowable)
{
    Fixture f;
    // With three idle cores, a single active core may spread its
    // blocks over the whole global set: quotas are enforced lazily,
    // only when an eviction is needed (Section 2.5).
    for (unsigned t = 0; t < 16; ++t)
        f.read(0, f.addr(9, t), t * 1000);
    EXPECT_EQ(f.nuca->ownedCount(9, 0), 16u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, CompetitionReclaimsOverQuotaCapacity)
{
    Fixture f;
    // Core 0 floods one set far past its quota...
    for (unsigned t = 0; t < 20; ++t)
        f.read(0, f.addr(9, t), t * 1000);
    EXPECT_EQ(f.nuca->ownedCount(9, 0), 16u);
    // ...then the other cores claim their space: Algorithm 1 evicts
    // the over-quota owner's blocks first, one per insertion.
    Cycle now = 100000;
    for (CoreId c = 1; c < 4; ++c) {
        for (unsigned i = 0; i < 4; ++i)
            f.read(c, f.addr(9, 100 * static_cast<unsigned>(c) + i),
                   now += 100);
    }
    EXPECT_EQ(f.nuca->ownedCount(9, 0), 4u);
    for (CoreId c = 1; c < 4; ++c)
        EXPECT_EQ(f.nuca->ownedCount(9, c), 4u) << "core " << c;
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, RemoteHitSwapsBlocks)
{
    Fixture f;
    const Addr a = f.addr(2, 1);
    // Core 0 loads a and three more blocks so `a` is demoted into
    // the shared partition (visible to everyone).
    for (unsigned t = 1; t <= 4; ++t)
        f.read(0, f.addr(2, t), t * 10);
    // `a` (tag 1, the oldest) is now shared. Core 1 reads it.
    const auto res = f.read(1, a, 1000);
    EXPECT_EQ(res.where, L3Result::Where::RemoteHit);
    EXPECT_EQ(res.ready, 1000u + 19u);
    EXPECT_EQ(f.nuca->remoteHitsOf(1), 1u);

    // The block now lives in core 1's local cache as private...
    bool found_in_core1 = false;
    for (unsigned s = 4; s < 8; ++s) {
        const auto &blk = f.nuca->blockAt(2, s);
        if (blk.valid && blk.tag == blockNumber(a)) {
            found_in_core1 = true;
            EXPECT_FALSE(f.nuca->slotIsShared(2, s));
            EXPECT_EQ(blk.owner, 1);
        }
    }
    EXPECT_TRUE(found_in_core1);
    f.nuca->checkInvariants();

    // ...and a subsequent access by core 1 is a fast local hit.
    const auto again = f.read(1, a, 2000);
    EXPECT_EQ(again.where, L3Result::Where::LocalHit);
}

TEST(AdaptiveNuca, PrivateBlocksVisibleToOtherCores)
{
    Fixture f;
    const Addr a = f.addr(4, 1);
    f.read(0, a, 0); // private to core 0
    // Core 1 hits it remotely and pulls it over instead of fetching
    // a second copy: the set holds the tag once, in core 1's cache.
    const auto res = f.read(1, a, 100);
    EXPECT_EQ(res.where, L3Result::Where::RemoteHit);
    EXPECT_EQ(f.nuca->missesOf(1), 0u);
    EXPECT_EQ(f.nuca->ownedCount(4, 0), 0u);
    EXPECT_EQ(f.nuca->privateCount(4, 1), 1u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, SharedBlockInLocalCachePromotedOnHit)
{
    Fixture f;
    // Fill 4 blocks so the oldest is demoted to shared (staying in
    // core 0's local cache), then hit it again.
    for (unsigned t = 0; t < 4; ++t)
        f.read(0, f.addr(6, t), t * 10);
    const auto res = f.read(0, f.addr(6, 0), 500);
    EXPECT_EQ(res.where, L3Result::Where::LocalHit);
    // It is private again; some other block was demoted to respect
    // the cap.
    EXPECT_EQ(f.nuca->privateCount(6, 0), 3u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, ShadowTagHitsUnderCyclicThrash)
{
    Fixture f;
    // Cycling capacity+1 = 17 blocks through a 16-slot set is the
    // textbook +1-block scenario: every miss evicts exactly the
    // block the next miss needs, so the miss tag matches the shadow
    // register and the gain estimator fills up.
    Cycle now = 0;
    for (int round = 0; round < 6; ++round) {
        for (unsigned t = 0; t < 17; ++t)
            f.read(0, f.addr(11, t), now += 10);
    }
    EXPECT_GT(f.nuca->engine().shadowHitsOf(0), 0u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, LruHitCountedAtQuota)
{
    Fixture f;
    // Core 0 at quota 4 with 4 blocks; hitting its least recently
    // used block counts towards the loss estimator.
    for (unsigned t = 0; t < 4; ++t)
        f.read(0, f.addr(13, t), t * 10);
    const Counter before = f.nuca->engine().lruHitsOf(0);
    f.read(0, f.addr(13, 0), 500); // tag 0 is core 0's LRU block
    EXPECT_EQ(f.nuca->engine().lruHitsOf(0), before + 1);
    // A hit on the MRU block does not count.
    const Counter mid = f.nuca->engine().lruHitsOf(0);
    f.read(0, f.addr(13, 0), 600); // tag 0 is now MRU
    EXPECT_EQ(f.nuca->engine().lruHitsOf(0), mid);
}

TEST(AdaptiveNuca, LruHitNotCountedUnderQuota)
{
    Fixture f;
    // Two blocks only (quota is 4): hits on the LRU block are free.
    f.read(0, f.addr(14, 0), 0);
    f.read(0, f.addr(14, 1), 10);
    f.read(0, f.addr(14, 0), 20);
    EXPECT_EQ(f.nuca->engine().lruHitsOf(0), 0u);
}

TEST(AdaptiveNuca, DirtyEvictionWritesBack)
{
    Fixture f;
    // Write-install a block, then push it out of the set entirely.
    f.nuca->access(MemRequest{0, f.addr(1, 0), MemOp::Write}, 0);
    for (unsigned t = 1; t <= 20; ++t)
        f.read(0, f.addr(1, t), t * 10);
    EXPECT_GE(f.memory.writebacks(), 1u);
}

TEST(AdaptiveNuca, WritebackFromL2MarksDirty)
{
    Fixture f;
    const Addr a = f.addr(8, 1);
    f.read(0, a, 0);
    f.nuca->writebackFromL2(0, a, 100);
    // Evicting it must now produce a memory writeback.
    const Counter before = f.memory.writebacks();
    for (unsigned t = 2; t <= 24; ++t)
        f.read(0, f.addr(8, t), t * 10);
    EXPECT_GT(f.memory.writebacks(), before);
}

TEST(AdaptiveNuca, WritebackFromL2MissedGoesToMemory)
{
    Fixture f;
    const Counter before = f.memory.writebacks();
    f.nuca->writebackFromL2(0, f.addr(8, 42), 100);
    EXPECT_EQ(f.memory.writebacks(), before + 1);
}

TEST(AdaptiveNuca, QuotaShrinkIsLazy)
{
    Fixture f;
    // Core 0 fills 4 blocks, then loses quota to core 1 through two
    // forced repartitions. The blocks stay valid until evicted.
    for (unsigned t = 0; t < 4; ++t)
        f.read(0, f.addr(3, t), t * 10);

    auto &engine = f.nuca->engine();
    for (int round = 0; round < 2; ++round) {
        engine.recordEviction(0, 1, 0x900 + round);
        engine.observeMiss(0, 1, 0x900 + round);
        engine.countLruHit(2);
        engine.countLruHit(2);
        engine.countLruHit(3);
        engine.countLruHit(3);
        engine.repartitionNow();
    }
    EXPECT_EQ(engine.quota(1), 6u);
    EXPECT_EQ(engine.quota(0), 2u);

    // Lazy: core 0 still holds its four blocks.
    EXPECT_EQ(f.nuca->ownedCount(3, 0), 4u);
    // They are all still hittable.
    const auto res = f.read(0, f.addr(3, 0), 5000);
    EXPECT_TRUE(res.isHit());
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, OverQuotaVictimPreferredByAlgorithm1)
{
    Fixture f;
    // Fill the whole set: each core inserts 4 blocks.
    unsigned t = 0;
    for (CoreId c = 0; c < 4; ++c) {
        for (unsigned i = 0; i < 4; ++i) {
            f.read(c, f.addr(10, t), t * 10);
            ++t;
        }
    }
    // Shrink core 0's quota to 2 (core 1 gains).
    auto &engine = f.nuca->engine();
    for (int round = 0; round < 2; ++round) {
        engine.recordEviction(0, 1, 0x800 + round);
        engine.observeMiss(0, 1, 0x800 + round);
        engine.countLruHit(2);
        engine.countLruHit(2);
        engine.countLruHit(3);
        engine.countLruHit(3);
        engine.repartitionNow();
    }
    ASSERT_EQ(engine.quota(0), 2u);

    // Core 2 inserts a new block; Algorithm 1 must evict one of
    // core 0's (over-quota) shared blocks, not core 3's.
    const unsigned before0 = f.nuca->ownedCount(10, 0);
    f.read(2, f.addr(10, 100), 9999);
    EXPECT_LT(f.nuca->ownedCount(10, 0), before0);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, EpochRepartitionsDuringOperation)
{
    Fixture f(/*epoch_misses=*/50);
    // Core 0 thrashes (needs more space), cores 1-3 idle: after a
    // few epochs core 0's quota must grow.
    Rng rng(5);
    Cycle now = 0;
    for (int i = 0; i < 3000; ++i) {
        const auto set = static_cast<unsigned>(rng.below(64));
        const auto tag = rng.below(24);
        f.read(0, f.addr(set, tag), now);
        now += 50;
    }
    EXPECT_GT(f.nuca->engine().quota(0), 4u);
    f.nuca->checkInvariants();
}

TEST(AdaptiveNuca, SampledShadowTagsOnlyLowSets)
{
    Fixture f(1u << 30, /*sample_shift=*/4);
    EXPECT_EQ(f.nuca->engine().sampledSets(), 16u);
    // Evict + re-miss in a high set: no shadow hit counted.
    for (unsigned t = 0; t < 8; ++t)
        f.read(0, f.addr(200, t), t * 10);
    f.read(0, f.addr(200, 0), 1000);
    f.read(0, f.addr(200, 1), 1100);
    EXPECT_EQ(f.nuca->engine().shadowHitsOf(0), 0u);
}

/**
 * Property: after tens of thousands of random accesses from all
 * cores, every structural invariant holds and stats are consistent.
 */
class AdaptiveNucaStress : public ::testing::TestWithParam<unsigned>
{};

TEST_P(AdaptiveNucaStress, InvariantsSurviveRandomTraffic)
{
    Fixture f(/*epoch_misses=*/200);
    Rng rng(GetParam());
    Cycle now = 0;
    Counter hits = 0, misses = 0;
    for (int i = 0; i < 40000; ++i) {
        const auto core = static_cast<CoreId>(rng.below(4));
        const auto set = static_cast<unsigned>(rng.below(32));
        // Per-core disjoint tags, like multiprogrammed workloads.
        const auto tag =
            rng.below(12) + 100 * static_cast<unsigned>(core);
        const bool write = rng.chance(0.2);
        const auto res = f.nuca->access(
            MemRequest{core, f.addr(set, tag),
                       write ? MemOp::Write : MemOp::Read},
            now);
        (res.isHit() ? hits : misses) += 1;
        now += 10;
    }
    f.nuca->checkInvariants();

    Counter counted_misses = 0, counted_hits = 0;
    for (CoreId c = 0; c < 4; ++c) {
        counted_misses += f.nuca->missesOf(c);
        counted_hits +=
            f.nuca->localHitsOf(c) + f.nuca->remoteHitsOf(c);
    }
    EXPECT_EQ(counted_misses, misses);
    EXPECT_EQ(counted_hits, hits);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveNucaStress,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

/** What one pinned-traffic run produced, as digests. */
struct TrafficDigest
{
    std::uint64_t accesses = 0;
    std::uint64_t stats = 0;
    std::uint64_t checkpoint = 0;
};

/**
 * Drive a 4-core, 64-set adaptive L3 with @p steps seeded reads,
 * writes and L2 writebacks and digest every access's (Where, ready),
 * the stats dump and the checkpoint bytes. Each core walks a private
 * footprint (sizes 10, 2, 6 and 24 lines per set, rotated between
 * the cores at half time so quota flows both ways). Blocks demoted
 * into a neighbour's cache give the swaps and promotions. With
 * @p shared_lines one access in eight also goes to a few hot lines
 * every core reads. The run asserts that every event
 * kind of the scheme happened, so the digests cover them all.
 */
TrafficDigest
runPinnedTraffic(unsigned sample_shift, bool shared_lines,
                 std::uint64_t seed, int steps)
{
    stats::Group root("digest");
    MainMemory memory(root, "memory", MainMemoryParams{});
    AdaptiveNucaParams params;
    params.numCores = 4;
    params.sizePerCoreBytes = 16 * 1024;
    params.localAssoc = 4;
    params.epochMisses = 64;
    params.shadowSampleShift = sample_shift;
    AdaptiveNuca nuca(root, params, memory);
    const unsigned sets = nuca.numSets();

    const std::uint64_t footprint[4] = {10, 2, 6, 24};
    Rng rng(seed);
    std::vector<std::uint8_t> trace;
    trace.reserve(static_cast<std::size_t>(steps) * 9);
    Cycle now = 0;
    for (int i = 0; i < steps; ++i) {
        const auto core = static_cast<CoreId>(rng.below(4));
        const auto set = static_cast<unsigned>(rng.below(sets));
        const std::size_t which =
            (static_cast<std::size_t>(core) + (i >= steps / 2 ? 1 : 0)) %
            4;
        std::uint64_t tag;
        if (shared_lines && rng.below(8) == 0) {
            tag = 1000 + rng.below(3); // shared hot lines
        } else {
            tag = 100 * (static_cast<std::uint64_t>(core) + 1) +
                  rng.below(footprint[which]);
        }
        const Addr addr = (tag * sets + set) * blockBytes;
        now += 1 + rng.below(8);
        const auto kind = rng.below(20);
        if (kind == 0) {
            nuca.writebackFromL2(core, addr, now);
            continue;
        }
        const auto res = nuca.access(
            MemRequest{core, addr, kind < 5 ? MemOp::Write : MemOp::Read},
            now);
        trace.push_back(static_cast<std::uint8_t>(res.where));
        for (int b = 0; b < 8; ++b)
            trace.push_back(static_cast<std::uint8_t>(res.ready >> (8 * b)));
    }
    nuca.checkInvariants();

    const stats::Snapshot snap(root);
    for (const char *name :
         {"digest.l3_adaptive.swaps", "digest.l3_adaptive.promotions",
          "digest.l3_adaptive.demotions",
          "digest.l3_adaptive.over_quota_evictions",
          "digest.l3_adaptive.sharing_engine.repartitions"}) {
        EXPECT_GT(snap.value(name).value_or(0), 0.0) << name;
    }

    TrafficDigest out;
    out.accesses = hashBytes(trace.data(), trace.size());
    std::ostringstream dump;
    root.dump(dump);
    const std::string text = dump.str();
    out.stats = hashBytes(reinterpret_cast<const std::uint8_t *>(text.data()),
                          text.size());
    Serializer s;
    nuca.checkpoint(s);
    out.checkpoint = hashBytes(s.bytes().data(), s.size());
    return out;
}

TEST(AdaptiveNucaDigest, RandomTrafficIsPinned)
{
    // Recorded from the struct-of-arrays implementation, before the
    // per-set record replaced it. Any change to a hit/miss outcome,
    // a ready cycle, a counter or a checkpoint byte shows up here.
    const struct
    {
        unsigned shift;
        bool remote;
        TrafficDigest pinned;
    } runs[] = {
        {0, false,
         {0x2a8886cc034e0978ull, 0xde5b7921f89bf224ull,
          0x2e0b76afdd16ab47ull}},
        {2, false,
         {0x7515972f2975e7d8ull, 0x70b5483d38aac54aull,
          0xa19fd957deedc089ull}},
        {0, true,
         {0xfe370a28300f0b6cull, 0xa26a82d9b29037b6ull,
          0x4522891d036fa91cull}},
    };
    for (const auto &run : runs) {
        const TrafficDigest got =
            runPinnedTraffic(run.shift, run.remote, 20070201, 350000);
        EXPECT_EQ(got.accesses, run.pinned.accesses)
            << "shift " << run.shift << " remote " << run.remote;
        EXPECT_EQ(got.stats, run.pinned.stats)
            << "shift " << run.shift << " remote " << run.remote;
        EXPECT_EQ(got.checkpoint, run.pinned.checkpoint)
            << "shift " << run.shift << " remote " << run.remote;
    }
}

} // namespace
} // namespace nuca
