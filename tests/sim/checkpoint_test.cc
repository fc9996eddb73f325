/**
 * @file
 * Checkpoint/restore: per-component round-trips, whole-system
 * bit-identical resume, structural-mismatch refusal, and the
 * content-addressed warmup cache + mid-run resume behind runMix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/random.hh"
#include "cache/cache_set.hh"
#include "cache/mshr.hh"
#include "cache/tlb.hh"
#include "nuca/adaptive_nuca.hh"
#include "nuca/sharing_engine.hh"
#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/env_config.hh"
#include "sim/experiment.hh"
#include "sim/robustness.hh"
#include "support/mutation.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace {

TEST(ComponentCheckpoint, RngStreamResumes)
{
    Rng a(42);
    for (int i = 0; i < 100; ++i)
        a.next();

    Serializer s;
    a.checkpoint(s);
    Rng b(7); // deliberately different state
    Deserializer d(s.bytes());
    b.restore(d);

    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(ComponentCheckpoint, RngRejectsAllZeroState)
{
    Serializer s;
    for (int i = 0; i < 4; ++i)
        s.putU64(0);
    Rng r(1);
    Deserializer d(s.bytes());
    EXPECT_THROW(r.restore(d), CheckpointError);
}

TEST(ComponentCheckpoint, CacheSetRoundTripsLruStamps)
{
    CacheSet a(4);
    auto blk = a.block(1);
    blk.tag = 0xabc;
    blk.valid = true;
    blk.dirty = true;
    blk.owner = 2;
    blk.lastUse = 77;
    a.block(3).valid = true;
    a.block(3).tag = 0x123;
    a.block(3).lastUse = 12;

    Serializer s;
    a.checkpoint(s);
    CacheSet b(4);
    Deserializer d(s.bytes());
    b.restore(d);

    EXPECT_EQ(b.findTag(0xabc), 1);
    EXPECT_EQ(b.block(1).lastUse, 77u);
    EXPECT_TRUE(b.block(1).dirty);
    EXPECT_EQ(b.block(1).owner, 2);
    EXPECT_EQ(b.lruWay(), 3);
    EXPECT_FALSE(b.block(0).valid);
}

TEST(ComponentCheckpoint, CacheSetRefusesAssocMismatch)
{
    CacheSet a(4);
    Serializer s;
    a.checkpoint(s);
    CacheSet b(8);
    Deserializer d(s.bytes());
    EXPECT_THROW(b.restore(d), CheckpointError);
}

TEST(ComponentCheckpoint, MshrFileRoundTripsEntries)
{
    stats::Group g("g");
    MshrFile a(g, "a", 4);
    a.reserve(0x1000, 10);
    a.complete(0x1000, 300);
    a.reserve(0x2000, 20);

    Serializer s;
    a.checkpoint(s);
    stats::Group g2("g2");
    MshrFile b(g2, "b", 4);
    Deserializer d(s.bytes());
    b.restore(d);

    EXPECT_EQ(b.inFlight(50), 2u);
    // The merged lookup sees the primary's ready cycle.
    EXPECT_EQ(b.lookup(0x1000, 50), 300u);
}

TEST(ComponentCheckpoint, TlbRoundTripsTranslations)
{
    stats::Group g("g");
    Tlb a(g, "a", 8, 30);
    for (Addr page = 0; page < 5; ++page)
        a.translate(page << 12);

    Serializer s;
    a.checkpoint(s);
    stats::Group g2("g2");
    Tlb b(g2, "b", 8, 30);
    Deserializer d(s.bytes());
    b.restore(d);

    // Re-translating a restored page is a hit (costs 0 cycles).
    EXPECT_EQ(b.translate(3ull << 12), 0u);
    EXPECT_EQ(b.translate(0x100ull << 12), 30u);
}

TEST(ComponentCheckpoint, SharingEngineRoundTripsEpochState)
{
    SharingEngineParams p;
    p.numCores = 4;
    p.numSets = 64;
    p.totalWays = 16;
    p.localAssoc = 4;
    p.initialQuota = 4;
    p.epochMisses = 1000;

    stats::Group g("g");
    SharingEngine a(g, p);
    a.recordEviction(3, 1, 0xdead);
    a.observeMiss(3, 1, 0xdead); // shadow hit for core 1
    a.countLruHit(2);
    a.observeMiss(5, 0, 0xbeef);

    Serializer s;
    a.checkpoint(s);
    stats::Group g2("g2");
    SharingEngine b(g2, p);
    Deserializer d(s.bytes());
    b.restore(d);

    EXPECT_EQ(b.epochProgress(), a.epochProgress());
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(b.quota(c), a.quota(c));
    // The shadow tag survived: the same miss hits it again.
    b.recordEviction(3, 1, 0xdead);
    EXPECT_TRUE(b.observeMiss(3, 1, 0xdead));
}

class SystemCheckpointTest : public ::testing::Test
{
  protected:
    static std::vector<WorkloadProfile>
    mixApps()
    {
        return {specProfile("art"), specProfile("mcf"),
                specProfile("gzip"), specProfile("ammp")};
    }

    static std::vector<std::uint8_t>
    snapshot(const CmpSystem &system)
    {
        Serializer s;
        system.checkpoint(s);
        return s.bytes();
    }
};

TEST_F(SystemCheckpointTest, RestoreThenRunIsBitIdentical)
{
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);
    constexpr std::uint64_t seed = 99;
    constexpr Cycle before = 60000, after = 40000;

    // Reference: one uninterrupted run.
    CmpSystem whole(config, mixApps(), seed);
    whole.run(before + after);

    // Candidate: run, snapshot, restore into a fresh system, resume.
    CmpSystem first(config, mixApps(), seed);
    first.run(before);
    const auto bytes = snapshot(first);

    CmpSystem resumed(config, mixApps(), seed);
    Deserializer d(bytes.data(), bytes.size());
    resumed.restore(d);
    d.expectEnd("system payload");
    EXPECT_EQ(resumed.now(), before);
    resumed.run(after);

    EXPECT_EQ(resumed.now(), whole.now());
    EXPECT_EQ(resumed.ipcs(), whole.ipcs());
    // The strongest form: every bit of simulated state agrees.
    EXPECT_EQ(snapshot(resumed), snapshot(whole));
}

TEST_F(SystemCheckpointTest, EverySchemeRoundTrips)
{
    for (const auto scheme :
         {L3Scheme::Private, L3Scheme::Shared, L3Scheme::Adaptive,
          L3Scheme::RandomReplacement}) {
        const SystemConfig config = SystemConfig::baseline(scheme);
        CmpSystem a(config, mixApps(), 5);
        a.run(30000);
        const auto bytes = snapshot(a);

        CmpSystem b(config, mixApps(), 5);
        Deserializer d(bytes.data(), bytes.size());
        b.restore(d);
        a.run(10000);
        b.run(10000);
        EXPECT_EQ(snapshot(a), snapshot(b))
            << "scheme " << to_string(scheme);
    }
}

TEST_F(SystemCheckpointTest, RestoreRefusesDifferentStructure)
{
    CmpSystem a(SystemConfig::baseline(L3Scheme::Shared), mixApps(),
                3);
    a.run(5000);
    const auto bytes = snapshot(a);

    CmpSystem b(SystemConfig::baseline(L3Scheme::Private), mixApps(),
                3);
    Deserializer d(bytes.data(), bytes.size());
    EXPECT_THROW(b.restore(d), CheckpointError);
}

TEST_F(SystemCheckpointTest, RestoreRefusesTruncatedPayload)
{
    CmpSystem a(SystemConfig::baseline(L3Scheme::Private), mixApps(),
                3);
    a.run(5000);
    auto bytes = snapshot(a);
    bytes.resize(bytes.size() / 2);

    CmpSystem b(SystemConfig::baseline(L3Scheme::Private), mixApps(),
                3);
    Deserializer d(bytes.data(), bytes.size());
    EXPECT_THROW(b.restore(d), CheckpointError);
}

/**
 * The checkpoint wire format, pinned. The digests were recorded from
 * the byte-at-a-time codec that the word-at-a-time one replaced; any
 * change to an encoder's bytes (or to the simulation that feeds it)
 * shows up here before it reaches a cached artifact on disk.
 */
class CheckpointCodec : public ::testing::Test
{
  protected:
    /** Two cores with shrunken caches: every component is present
     * but the payload stays a few tens of kilobytes. */
    static SystemConfig
    smallConfig(L3Scheme scheme)
    {
        SystemConfig c = SystemConfig::baseline(scheme);
        c.numCores = 2;
        c.coreMem.l1i.sizeBytes = 4 << 10;
        c.coreMem.l1d.sizeBytes = 4 << 10;
        c.coreMem.l2i.sizeBytes = 8 << 10;
        c.coreMem.l2d.sizeBytes = 8 << 10;
        c.l3SizePerCoreBytes = 16 << 10;
        c.epochMisses = 200;
        return c;
    }

    static std::vector<WorkloadProfile>
    smallApps()
    {
        return {specProfile("mcf"), specProfile("art")};
    }

    static std::vector<std::uint8_t>
    smallPayload(L3Scheme scheme)
    {
        CmpSystem system(smallConfig(scheme), smallApps(), 17);
        system.run(20000);
        Serializer s;
        system.checkpoint(s);
        return s.bytes();
    }

    /**
     * End offsets of every per-set record of every SACC section:
     * after the tag, a u64 stamp counter, four u64 Rng words and a
     * u64 set count, each set is a u64 associativity followed by
     * 35 bytes per way.
     */
    static std::vector<std::size_t>
    setRecordEnds(const std::vector<std::uint8_t> &bytes)
    {
        constexpr std::uint32_t tag = fourcc("SACC");
        std::vector<std::size_t> ends;
        for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
            Deserializer d(bytes.data() + at, bytes.size() - at);
            if (d.getU32() != tag)
                continue;
            std::vector<std::size_t> found;
            try {
                for (int i = 0; i < 5; ++i)
                    d.getU64();
                const std::uint64_t sets = d.getU64();
                for (std::uint64_t set = 0; set < sets; ++set) {
                    const std::uint64_t assoc = d.getU64();
                    if (assoc == 0 || assoc > 64 ||
                        assoc * 35 > d.remaining())
                        throw CheckpointError("not a set record");
                    d.record(assoc * 35);
                    found.push_back(bytes.size() - d.remaining());
                }
            } catch (const CheckpointError &) {
                continue; // "SACC" by chance inside some other value
            }
            ends.insert(ends.end(), found.begin(), found.end());
        }
        return ends;
    }
};

TEST_F(CheckpointCodec, SystemPayloadDigestsArePinned)
{
    const struct
    {
        L3Scheme scheme;
        std::size_t size;
        std::uint64_t digest;
    } pinned[] = {
        {L3Scheme::Private, 120244, 0x4534d27009cf3e07ull},
        {L3Scheme::Shared, 119636, 0xe486a944ec7c7d88ull},
        {L3Scheme::Adaptive, 120980, 0xfb00786fc4db0c11ull},
        {L3Scheme::RandomReplacement, 120340, 0xa30e9e16b1359062ull},
    };
    for (const auto &pin : pinned) {
        const auto bytes = smallPayload(pin.scheme);
        EXPECT_EQ(bytes.size(), pin.size)
            << "scheme " << to_string(pin.scheme);
        EXPECT_EQ(hashBytes(bytes.data(), bytes.size()), pin.digest)
            << "scheme " << to_string(pin.scheme);
    }
}

TEST_F(CheckpointCodec, EveryPrimitiveEncodingIsPinned)
{
    Serializer s;
    s.putU8(0xa5);
    s.putU16(0xbeef);
    s.putU32(0xdeadbeefu);
    s.putU64(0x0123456789abcdefull);
    s.putI64(-2);
    s.putBool(true);
    s.putBool(false);
    s.putDouble(-1.5e-300);
    s.putString("NUCA");
    s.putString("");
    s.putTag(fourcc("PINS"));
    s.putVecU64({0, 1, ~std::uint64_t{0}, 0x8000000000000001ull});
    s.putVecU64({});
    s.putVecDouble({0.25, -0.0, 6.02214076e23});
    EXPECT_EQ(s.size(), 1u + 2 + 4 + 8 + 8 + 1 + 1 + 8 + 12 + 8 + 4 +
                            40 + 8 + 32);
    EXPECT_EQ(hashBytes(s.bytes().data(), s.size()),
              0x14443bc913a7708bull);
}

TEST_F(CheckpointCodec, ConfigKeysArePinned)
{
    // The config digest names every warm-up artifact, every resume
    // sidecar record and every daemon result-cache entry: a changed
    // byte in the encoding silently orphans them all.
    const std::vector<std::string> apps = {"mcf", "gzip", "ammp", "art"};
    const auto runKeyOf = [&](const SystemConfig &config) {
        return runKey(config, apps, 20070201, 300000, 300000);
    };
    const struct
    {
        SystemConfig (*preset)(L3Scheme);
        L3Scheme scheme;
        std::uint64_t config;
        std::uint64_t run;
    } pinned[] = {
        {SystemConfig::baseline, L3Scheme::Private,
         0xb32e0cfb81f47000ull, 0xb9e45cca2bcfa3c5ull},
        {SystemConfig::baseline, L3Scheme::Shared,
         0xddc4d043b30fee23ull, 0x10187a1e0ff7657eull},
        {SystemConfig::baseline, L3Scheme::Adaptive,
         0x36c648a74c437c92ull, 0xeadd2f83767b39fbull},
        {SystemConfig::baseline, L3Scheme::RandomReplacement,
         0x3149ac94ffa474e5ull, 0xb729de980309198cull},
        {SystemConfig::large8MB, L3Scheme::Private,
         0x57fe6c5a18934870ull, 0x8b30081137a67675ull},
        {SystemConfig::large8MB, L3Scheme::Shared,
         0x72accf33c5ce4b13ull, 0x390947878539aaaeull},
        {SystemConfig::large8MB, L3Scheme::Adaptive,
         0x97f1e6e0a0b124c2ull, 0xe3e8252dadfc5f2bull},
        {SystemConfig::large8MB, L3Scheme::RandomReplacement,
         0xc035aded27565135ull, 0x3cb6258cd5bc191cull},
        {SystemConfig::scaledTech, L3Scheme::Private,
         0x35917b95a68cb5e9ull, 0xdfe252f1712bd9d0ull},
        {SystemConfig::scaledTech, L3Scheme::Shared,
         0x12e2432d0d3b2606ull, 0x9f013a952982b80full},
        {SystemConfig::scaledTech, L3Scheme::Adaptive,
         0xf2bc20738595360full, 0xf9cc91157a7d0c2aull},
        {SystemConfig::scaledTech, L3Scheme::RandomReplacement,
         0x9e5387b948ec853cull, 0xb6824b57e0971241ull},
    };
    for (const auto &pin : pinned) {
        const SystemConfig config = pin.preset(pin.scheme);
        EXPECT_EQ(configHash(config), pin.config)
            << to_string(pin.scheme);
        EXPECT_EQ(runKeyOf(config), pin.run) << to_string(pin.scheme);
    }
    const SystemConfig quad = SystemConfig::quadSizePrivate();
    EXPECT_EQ(configHash(quad), 0x1030ed9259f8b3f4ull);
    EXPECT_EQ(runKeyOf(quad), 0xe19df283d7980749ull);
}

TEST_F(CheckpointCodec, EveryTruncatedPrefixIsRefused)
{
    // Private keeps its L3 in SACC sections too; adaptive has the
    // NUCA slot array instead.
    for (const auto scheme : {L3Scheme::Private, L3Scheme::Adaptive}) {
        const auto bytes = smallPayload(scheme);
        const auto ends = setRecordEnds(bytes);
        // 2 cores x (L1I, L1D, L2I, L2D) x 32 sets, + 2 x 64 L3 sets
        // under private.
        ASSERT_EQ(ends.size(),
                  scheme == L3Scheme::Private ? 384u : 256u);

        std::vector<std::size_t> lengths;
        for (std::size_t n = 0; n < bytes.size(); n += 61)
            lengths.push_back(n);
        for (const auto end : ends) {
            for (std::size_t n = end >= 40 ? end - 40 : 0;
                 n <= end && n < bytes.size(); ++n)
                lengths.push_back(n);
        }
        lengths.push_back(bytes.size() - 1);

        CmpSystem target(smallConfig(scheme), smallApps(), 17);
        for (const auto n : lengths) {
            Deserializer d(bytes.data(), n);
            EXPECT_THROW(
                {
                    target.restore(d);
                    d.expectEnd("truncated payload");
                },
                CheckpointError)
                << to_string(scheme) << ": prefix of " << n << " of "
                << bytes.size() << " bytes";
        }

        // The whole payload still restores into the same system.
        Deserializer whole(bytes);
        EXPECT_NO_THROW(target.restore(whole));
        EXPECT_TRUE(whole.atEnd());
    }
}

TEST_F(CheckpointCodec, CorruptLengthFallsBackToSimulation)
{
    const SystemConfig config = smallConfig(L3Scheme::Shared);
    const std::uint64_t hash = configHash(config);
    const std::string path =
        ::testing::TempDir() + "ckpt_codec_length.ckpt";
    CmpSystem system(config, smallApps(), 17);
    system.run(5000);
    saveCheckpoint(system, path, hash);
    const auto fileSize = std::filesystem::file_size(path);

    // The u64 payload length follows magic, version and config hash.
    for (const std::uint64_t length :
         {std::uint64_t{1} << 62, std::uint64_t{fileSize} + 1}) {
        saveCheckpoint(system, path, hash);
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        for (int i = 0; i < 8; ++i)
            f.put(static_cast<char>(length >> (8 * i)));
        f.close();
        EXPECT_THROW(readCheckpointFile(path, hash), CheckpointError)
            << "length " << length;
        EXPECT_FALSE(tryRestoreCheckpoint(system, path, hash))
            << "length " << length;
    }
    std::remove(path.c_str());
}

/**
 * Byte mutations of the adaptive L3's section of a system payload:
 * its header, slot records and sharing-engine state. The section is
 * restored on its own into the system's L3, so each mutant costs a
 * 20 KB decode rather than a whole-system restore.
 */
class CheckpointMutation : public CheckpointCodec
{
  protected:
    /** Offsets of the NUCA section's parts in a payload. */
    struct NucaSection
    {
        std::size_t begin = 0;  // "NUCA" tag
        std::size_t slots = 0;  // first slot record
        std::size_t engine = 0; // "SENG" tag
        std::size_t end = 0;
    };

    /** Wire size of one adaptive slot record. */
    static constexpr std::size_t slotBytes = 36;

    /**
     * Find the section: the tag, a u64 stamp counter, a u64 slot
     * count equal to @p slots, the slot records, then the engine's
     * tag, shadow registers (9 bytes each), u32 quotas, two u64
     * vectors, the u64 epoch count and the u32 scan start.
     */
    static NucaSection
    findNuca(const std::vector<std::uint8_t> &bytes, std::uint64_t slots)
    {
        for (std::size_t at = 0; at + 20 <= bytes.size(); ++at) {
            Deserializer d(bytes.data() + at, bytes.size() - at);
            if (d.getU32() != fourcc("NUCA"))
                continue;
            d.getU64();
            if (d.getU64() != slots)
                continue;
            NucaSection sec;
            sec.begin = at;
            sec.slots = at + 20;
            sec.engine = sec.slots + slots * slotBytes;
            Deserializer e(bytes.data() + sec.engine,
                           bytes.size() - sec.engine);
            e.expectTag(fourcc("SENG"), "sharing engine");
            e.record(e.getU64() * 9);
            e.record(e.getU64() * 4);
            e.record(e.getU64() * 8);
            e.record(e.getU64() * 8);
            e.getU64();
            e.getU32();
            sec.end = bytes.size() - e.remaining();
            return sec;
        }
        ADD_FAILURE() << "no NUCA section in the payload";
        return {};
    }

    static void
    putU64At(std::vector<std::uint8_t> &bytes, std::size_t at,
             std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
};

TEST_F(CheckpointMutation, NucaSectionSurvivesByteFlips)
{
    const auto payload = smallPayload(L3Scheme::Adaptive);
    CmpSystem target(smallConfig(L3Scheme::Adaptive), smallApps(), 17);
    const auto &nuca = dynamic_cast<const AdaptiveNuca &>(target.l3());
    const NucaSection sec =
        findNuca(payload, std::uint64_t{nuca.numSets()} *
                              nuca.totalWays());
    ASSERT_GT(sec.end, sec.engine);
    const std::vector<std::uint8_t> section(
        payload.begin() + static_cast<std::ptrdiff_t>(sec.begin),
        payload.begin() + static_cast<std::ptrdiff_t>(sec.end));

    // Every byte of the header, the first 8 sets' slots and the
    // engine; a stride coprime to the slot size over the other sets,
    // so every field of a slot record gets hit somewhere.
    const std::size_t first8 =
        sec.slots + 8 * nuca.totalWays() * slotBytes;
    std::vector<std::size_t> offsets;
    for (std::size_t i = sec.begin; i < first8; ++i)
        offsets.push_back(i - sec.begin);
    for (std::size_t i = first8; i < sec.engine; i += 29)
        offsets.push_back(i - sec.begin);
    for (std::size_t i = sec.engine; i < sec.end; ++i)
        offsets.push_back(i - sec.begin);

    std::size_t refused = 0, accepted = 0;
    for (const std::size_t at : offsets) {
        forEachFlipAt(section, at, [&](const std::vector<std::uint8_t>
                                           &mutant,
                                       const std::string &what) {
            Deserializer d(mutant);
            try {
                target.l3().restore(d);
            } catch (const CheckpointError &) {
                ++refused;
                return;
            }
            ++accepted;
            EXPECT_TRUE(d.atEnd()) << what;
            // Panics (failing the test) on any structural defect...
            target.checkStructuralInvariants();
            // ...and whatever passed must be safe to simulate on.
            target.run(64);
        });
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(accepted, 0u);
}

TEST_F(CheckpointMutation, OwnerOutsideTheCoresIsRefused)
{
    auto payload = smallPayload(L3Scheme::Adaptive);
    CmpSystem target(smallConfig(L3Scheme::Adaptive), smallApps(), 17);
    const auto &nuca = dynamic_cast<const AdaptiveNuca &>(target.l3());
    const std::uint64_t slots =
        std::uint64_t{nuca.numSets()} * nuca.totalWays();
    const NucaSection sec = findNuca(payload, slots);

    // Give the first valid block core 7 of a 2-core system: the next
    // miss in its set would index the per-core tallies and the
    // shadow tags with it.
    std::size_t at = sec.slots;
    while (at < sec.engine && payload[at + 8] == 0)
        at += slotBytes;
    ASSERT_LT(at, sec.engine) << "no valid slot";
    putU64At(payload, at + 10, 7);
    Deserializer d(payload);
    EXPECT_THROW(target.restore(d), CheckpointError);
}

TEST_F(CheckpointMutation, DuplicatePrivateTagAcrossCoresIsRefused)
{
    auto payload = smallPayload(L3Scheme::Adaptive);
    CmpSystem target(smallConfig(L3Scheme::Adaptive), smallApps(), 17);
    const auto &nuca = dynamic_cast<const AdaptiveNuca &>(target.l3());
    const unsigned ways = nuca.totalWays();
    const NucaSection sec =
        findNuca(payload, std::uint64_t{nuca.numSets()} * ways);

    // Find a set with a valid private block in each core's local
    // cache, then give core 1's block core 0's tag. Any core may hit
    // any block, so the second copy could never be looked up.
    const auto record = [&](unsigned set, unsigned slot) {
        return sec.slots + (std::size_t{set} * ways + slot) * slotBytes;
    };
    const auto privateIn = [&](unsigned set, unsigned core) {
        for (unsigned w = 0; w < nuca.localAssoc(); ++w) {
            const unsigned slot = core * nuca.localAssoc() + w;
            const std::size_t at = record(set, slot);
            if (payload[at + 8] != 0 && payload[at + 35] == 0)
                return static_cast<int>(slot);
        }
        return -1;
    };
    bool planted = false;
    for (unsigned set = 0; set < nuca.numSets() && !planted; ++set) {
        const int a = privateIn(set, 0);
        const int b = privateIn(set, 1);
        if (a < 0 || b < 0)
            continue;
        const std::size_t from = record(set, static_cast<unsigned>(a));
        const std::size_t to = record(set, static_cast<unsigned>(b));
        std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(from),
                    8, payload.begin() + static_cast<std::ptrdiff_t>(to));
        planted = true;
    }
    ASSERT_TRUE(planted) << "no set with private blocks of both cores";
    Deserializer d(payload);
    EXPECT_THROW(target.restore(d), CheckpointError);
}

TEST_F(CheckpointMutation, EngineScanStartAndQuotasAreChecked)
{
    const auto payload = smallPayload(L3Scheme::Adaptive);
    CmpSystem target(smallConfig(L3Scheme::Adaptive), smallApps(), 17);
    const auto &nuca = dynamic_cast<const AdaptiveNuca &>(target.l3());
    const NucaSection sec = findNuca(
        payload, std::uint64_t{nuca.numSets()} * nuca.totalWays());

    // The scan start is the section's last u32; 2 names no core.
    auto bad_scan = payload;
    bad_scan[sec.end - 4] = 2;
    Deserializer d1(bad_scan);
    EXPECT_THROW(target.restore(d1), CheckpointError);

    // The quotas (two u32, at most 6 each) follow the shadow
    // registers: moving one way between the cores keeps the sum,
    // adding one breaks it.
    std::size_t quotas = sec.engine + 4;
    quotas += 8 + 9 * (payload[quotas] | (payload[quotas + 1] << 8));
    quotas += 8;
    const std::size_t donor = payload[quotas] > 2 ? quotas : quotas + 4;
    const std::size_t taker = donor == quotas ? quotas + 4 : quotas;
    auto moved = payload;
    --moved[donor];
    ++moved[taker];
    Deserializer d2(moved);
    EXPECT_NO_THROW(target.restore(d2));
    auto unbalanced = payload;
    ++unbalanced[quotas];
    Deserializer d3(unbalanced);
    EXPECT_THROW(target.restore(d3), CheckpointError);
}

TEST(ConfigHash, SensitiveToEveryAxisItMustCover)
{
    const SystemConfig base = SystemConfig::baseline(L3Scheme::Adaptive);
    const std::uint64_t h = configHash(base);
    EXPECT_EQ(h, configHash(base)); // deterministic

    SystemConfig other = base;
    other.epochMisses += 1;
    EXPECT_NE(configHash(other), h);
    other = base;
    other.scheme = L3Scheme::Shared;
    EXPECT_NE(configHash(other), h);
    other = base;
    other.coreMem.l2d.sizeBytes *= 2;
    EXPECT_NE(configHash(other), h);
    other = base;
    other.core.ruuSize += 1;
    EXPECT_NE(configHash(other), h);

    // Workload identity and window length key the artifact name.
    const std::vector<std::string> apps = {"art", "mcf", "gzip",
                                           "ammp"};
    const auto k = warmupKey(base, apps, 1, 1000);
    EXPECT_NE(warmupKey(base, apps, 2, 1000), k);
    EXPECT_NE(warmupKey(base, apps, 1, 1001), k);
    auto swapped = apps;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(warmupKey(base, swapped, 1, 1000), k);
    EXPECT_NE(runKey(base, apps, 1, 1000, 500),
              runKey(base, apps, 1, 1000, 501));
}

/** runMix under a private temp checkpoint dir; cleans the files. */
class WarmupCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "ckpt_cache_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        spec_.apps = {"art", "mcf", "gzip", "ammp"};
        spec_.seed = 1234;
        window_.warmupCycles = 20000;
        window_.measureCycles = 30000;
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** A run policy that caches checkpoints under dir_. */
    RunPolicy
    cached() const
    {
        RunPolicy policy;
        policy.ckpt.dir = dir_;
        return policy;
    }

    std::string dir_;
    SystemConfig config_ = SystemConfig::baseline(L3Scheme::Adaptive);
    ExperimentSpec spec_;
    SimWindow window_;
};

TEST_F(WarmupCacheTest, CachedWarmupReproducesColdResult)
{
    const MixResult cold = runMix(config_, spec_, window_);

    const RunPolicy policy = cached();
    const MixResult populate =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(populate.ipc, cold.ipc);

    // The warmup artifact exists and a second run reuses it.
    const auto warm = warmupPath(
        policy.ckpt,
        warmupKey(config_, spec_.apps, spec_.seed,
                  window_.warmupCycles));
    ASSERT_TRUE(checkpointFileExists(warm));
    const auto bytes = [&] {
        std::ifstream in(warm, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string written = bytes();

    const MixResult reused =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(reused.ipc, cold.ipc);
    EXPECT_EQ(reused.l3AccessesPerKilocycle,
              cold.l3AccessesPerKilocycle);
    // Reuse must not rewrite the artifact's content (its mtime does
    // refresh — restores count as use for the LRU prune).
    EXPECT_EQ(bytes(), written);
}

TEST_F(WarmupCacheTest, CorruptArtifactFallsBackToSimulation)
{
    const RunPolicy policy = cached();
    const MixResult cold = runMix(config_, spec_, window_, "", policy);

    const auto warm = warmupPath(
        policy.ckpt,
        warmupKey(config_, spec_.apps, spec_.seed,
                  window_.warmupCycles));
    ASSERT_TRUE(checkpointFileExists(warm));
    // Truncate the artifact; the loader must warn and re-simulate.
    std::filesystem::resize_file(warm, 64);

    const MixResult fallback =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(fallback.ipc, cold.ipc);
}

TEST_F(WarmupCacheTest, PeriodicCheckpointsResumeAKilledRun)
{
    const MixResult whole = runMix(config_, spec_, window_);

    RunPolicy policy = cached();
    policy.ckpt.period = 8000;
    // Kill the job mid-measurement via the cycle budget: the last
    // periodic snapshot (warmup 20000 + chunks at 28000, 36000)
    // stays behind.
    RunPolicy killed = policy;
    killed.robust.maxCycles = 40000;
    EXPECT_THROW(runMix(config_, spec_, window_, "", killed),
                 CycleBudgetExceeded);

    const auto run = runPath(
        policy.ckpt,
        runKey(config_, spec_.apps, spec_.seed, window_.warmupCycles,
               window_.measureCycles));
    ASSERT_TRUE(checkpointFileExists(run));

    // The resumed run finishes from the snapshot and matches the
    // uninterrupted result exactly; success removes the artifact.
    policy.resume = true;
    const MixResult resumed =
        runMix(config_, spec_, window_, "", policy);
    EXPECT_EQ(resumed.ipc, whole.ipc);
    EXPECT_EQ(resumed.l3AccessesPerKilocycle,
              whole.l3AccessesPerKilocycle);
    EXPECT_FALSE(checkpointFileExists(run));
}

/** REPRO_CKPT_MAX_MB: size-capped LRU pruning of the cache dir. */
class CheckpointPruneTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "ckpt_prune_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Write a 512 KiB artifact with an mtime @p age_s back. */
    std::string
    artifact(const std::string &name, int age_s)
    {
        const std::string path = dir_ + "/" + name + ".ckpt";
        {
            std::vector<char> blob(512 * 1024, 'x');
            std::FILE *f = std::fopen(path.c_str(), "wb");
            std::fwrite(blob.data(), 1, blob.size(), f);
            std::fclose(f);
        }
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now() -
                      std::chrono::seconds(age_s));
        return path;
    }

    std::string dir_;
};

TEST_F(CheckpointPruneTest, OldestArtifactsGoFirstUnderTheCap)
{
    // Four 512 KiB artifacts = 2 MiB; a 1 MiB cap must evict the two
    // least-recently-used ones and keep the newest two.
    const std::string oldest = artifact("a", 400);
    const std::string older = artifact("b", 300);
    const std::string newer = artifact("c", 200);
    const std::string newest = artifact("d", 100);

    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.maxMb = 1;
    EXPECT_EQ(pruneCheckpointDir(cfg), 2u);
    EXPECT_FALSE(std::filesystem::exists(oldest));
    EXPECT_FALSE(std::filesystem::exists(older));
    EXPECT_TRUE(std::filesystem::exists(newer));
    EXPECT_TRUE(std::filesystem::exists(newest));
}

TEST_F(CheckpointPruneTest, NoCapMeansNoPruning)
{
    artifact("a", 400);
    artifact("b", 300);
    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.maxMb = 0; // unbounded
    EXPECT_EQ(pruneCheckpointDir(cfg), 0u);
    EXPECT_EQ(pruneCheckpointDir(CheckpointConfig{}), 0u);
}

TEST_F(CheckpointPruneTest, NonCheckpointFilesAreIgnored)
{
    artifact("a", 400);
    const std::string stranger = dir_ + "/README.txt";
    {
        std::FILE *f = std::fopen(stranger.c_str(), "wb");
        std::fputs("not a checkpoint", f);
        std::fclose(f);
    }
    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.maxMb = 1; // 512 KiB artifact fits: nothing to prune
    EXPECT_EQ(pruneCheckpointDir(cfg), 0u);
    EXPECT_TRUE(std::filesystem::exists(stranger));
}

TEST_F(CheckpointPruneTest, RestoreTouchKeepsHotArtifactsAlive)
{
    // tryRestoreCheckpoint bumps its artifact's mtime, so a restored
    // (hot) artifact outlives an untouched (cold) one at prune time.
    ExperimentSpec spec;
    spec.apps = {"art", "mcf", "gzip", "ammp"};
    spec.seed = 1234;
    const SimWindow window{20000, 30000};
    const SystemConfig config =
        SystemConfig::baseline(L3Scheme::Adaptive);

    RunPolicy policy;
    policy.ckpt.dir = dir_;
    // Populates the warmup artifact.
    runMix(config, spec, window, "", policy);

    const std::string warm = warmupPath(
        policy.ckpt, warmupKey(config, spec.apps, spec.seed,
                       window.warmupCycles));
    ASSERT_TRUE(std::filesystem::exists(warm));
    std::filesystem::last_write_time(
        warm, std::filesystem::file_time_type::clock::now() -
                  std::chrono::hours(24));
    const auto stale = std::filesystem::last_write_time(warm);

    // A restoring run marks the artifact as used...
    runMix(config, spec, window, "", policy);
    EXPECT_GT(std::filesystem::last_write_time(warm), stale);
}

TEST(CheckpointConfigEnv, ReadsMaxMbKnob)
{
    ::setenv("REPRO_CKPT_MAX_MB", "64", 1);
    EXPECT_EQ(checkpointFromEnv().maxMb, 64u);
    ::unsetenv("REPRO_CKPT_MAX_MB");
    EXPECT_EQ(checkpointFromEnv().maxMb, 0u);
}

} // namespace
} // namespace nuca
