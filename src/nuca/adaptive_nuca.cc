#include "nuca/adaptive_nuca.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace nuca {

namespace {

SharingEngineParams
engineParamsFor(const AdaptiveNucaParams &p, unsigned num_sets)
{
    SharingEngineParams ep;
    ep.numCores = p.numCores;
    ep.numSets = num_sets;
    ep.totalWays = p.numCores * p.localAssoc;
    ep.localAssoc = p.localAssoc;
    ep.initialQuota = p.localAssoc;
    ep.epochMisses = p.epochMisses;
    ep.shadowSampleShift = p.shadowSampleShift;
    ep.adaptationEnabled = p.adaptationEnabled;
    return ep;
}

} // namespace

AdaptiveNuca::AdaptiveNuca(stats::Group &parent,
                           const AdaptiveNucaParams &params,
                           MainMemory &memory)
    : params_(params),
      memory_(memory),
      numSets_(static_cast<unsigned>(
          params.sizePerCoreBytes /
          (static_cast<std::uint64_t>(params.localAssoc) *
           blockBytes))),
      totalWays_(params.numCores * params.localAssoc),
      statsGroup_(parent, "l3_adaptive"),
      engine_(statsGroup_, engineParamsFor(params, numSets_)),
      localHits_(statsGroup_, "local_hits",
                 "hits in the requester's local cache", params.numCores),
      remoteHits_(statsGroup_, "remote_hits",
                  "hits in a neighbor's cache", params.numCores),
      misses_(statsGroup_, "misses", "misses per core",
              params.numCores),
      demotions_(statsGroup_, "demotions",
                 "private blocks demoted to the shared partition"),
      promotions_(statsGroup_, "promotions",
                  "shared blocks promoted into a private partition"),
      swaps_(statsGroup_, "swaps",
             "neighbor-hit block exchanges between caches"),
      evictions_(statsGroup_, "evictions", "blocks evicted from L3"),
      overQuotaEvictions_(statsGroup_, "over_quota_evictions",
                          "Algorithm 1 victims owned by an "
                          "over-quota core")
{
    fatal_if(params_.numCores == 0, "adaptive NUCA with no cores");
    fatal_if(params_.localHitLatency == 0 ||
                 params_.remoteHitLatency == 0,
             "adaptive NUCA hit latencies must be nonzero");
    fatal_if(!isPowerOf2(numSets_),
             "adaptive NUCA needs a power-of-two set count, got ",
             numSets_);
    fatal_if(params_.numCores > maxCores,
             "adaptive NUCA supports at most ", maxCores, " cores, got ",
             params_.numCores);
    fatal_if(totalWays_ > 255,
             "adaptive NUCA global sets hold at most 255 ways, got ",
             totalWays_);
    indexMask_ = numSets_ - 1;
    const std::size_t w = totalWays_;
    sigOffset_ = 16 * w;
    stOffset_ = sigOffset_ + w;
    ownedOffset_ = stOffset_ + w;
    privOffset_ = ownedOffset_ + params_.numCores;
    setStride_ = (privOffset_ + params_.numCores + 63) / 64 * 64;
    // Zero bytes are the empty state of every field: tag 0, stamp 0,
    // no signature, an invalid slot, no blocks counted.
    storage_.assign(numSets_ * setStride_ / 8 + 8, 0);
    const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
    records_ = reinterpret_cast<std::uint8_t *>(storage_.data()) +
               ((64 - addr % 64) % 64);
}

AdaptiveNuca::SetRef
AdaptiveNuca::ref(unsigned set)
{
    std::uint8_t *rec = records_ + set * setStride_;
    return {reinterpret_cast<std::uint64_t *>(rec),
            reinterpret_cast<std::uint64_t *>(rec + 8 * totalWays_),
            rec + sigOffset_,
            rec + stOffset_,
            rec + ownedOffset_,
            rec + privOffset_};
}

AdaptiveNuca::ConstSetRef
AdaptiveNuca::ref(unsigned set) const
{
    const std::uint8_t *rec = records_ + set * setStride_;
    return {reinterpret_cast<const std::uint64_t *>(rec),
            reinterpret_cast<const std::uint64_t *>(rec + 8 * totalWays_),
            rec + sigOffset_,
            rec + stOffset_,
            rec + ownedOffset_,
            rec + privOffset_};
}

void
AdaptiveNuca::tally(SetRef r, unsigned s, int delta)
{
    const auto owner = static_cast<std::size_t>(ownerOf(r.st[s]));
    r.owned[owner] = static_cast<std::uint8_t>(r.owned[owner] + delta);
    if (!(r.st[s] & stShared))
        r.priv[owner] = static_cast<std::uint8_t>(r.priv[owner] + delta);
}

void
AdaptiveNuca::fill(SetRef r, unsigned s, Addr tag, CoreId owner,
                   bool dirty, bool shared)
{
    if (r.st[s] & stValid)
        tally(r, s, -1);
    r.tag[s] = tag;
    r.use[s] = nextStamp();
    r.sig[s] = sigOf(tag);
    r.st[s] = packState(owner, dirty, shared);
    tally(r, s, +1);
}

void
AdaptiveNuca::clearSlot(SetRef r, unsigned s)
{
    tally(r, s, -1);
    r.sig[s] = 0;
    r.st[s] = 0;
}

void
AdaptiveNuca::relabel(SetRef r, unsigned s, bool shared, CoreId owner)
{
    tally(r, s, -1);
    r.st[s] = packState(owner, (r.st[s] & stDirty) != 0, shared);
    tally(r, s, +1);
}

unsigned
AdaptiveNuca::setIndex(Addr addr) const
{
    return static_cast<unsigned>(blockNumber(addr)) & indexMask_;
}

CoreId
AdaptiveNuca::homeOf(unsigned slot) const
{
    panic_if(slot >= totalWays_, "slot out of range");
    return static_cast<CoreId>(slot / params_.localAssoc);
}

CacheBlock
AdaptiveNuca::blockAt(unsigned set, unsigned slot) const
{
    panic_if(set >= numSets_ || slot >= totalWays_,
             "set/slot out of range");
    const ConstSetRef r = ref(set);
    const std::uint8_t st = r.st[slot];
    return CacheBlock{r.tag[slot],
                      (st & stValid) != 0,
                      (st & stDirty) != 0,
                      (st & stValid) ? ownerOf(st) : invalidCore,
                      r.use[slot],
                      0,
                      false};
}

bool
AdaptiveNuca::slotIsShared(unsigned set, unsigned slot) const
{
    panic_if(set >= numSets_ || slot >= totalWays_,
             "set/slot out of range");
    return (ref(set).st[slot] & stShared) != 0;
}

namespace {

/**
 * Bitmask of bytes in @p word equal to @p pattern's repeated byte:
 * 0x80 lands in (at least) every matching byte's high bit, in byte
 * order. Borrow propagation can additionally flag a byte *above* a
 * true match, so callers must re-verify each candidate — but no
 * match is ever missed, and candidates surface in ascending slot
 * order, which is all the probe loops rely on.
 */
std::uint64_t
matchBytes(std::uint64_t word, std::uint64_t pattern)
{
    const std::uint64_t x = word ^ pattern;
    return (x - 0x0101010101010101ull) & ~x & 0x8080808080808080ull;
}

} // namespace

int
AdaptiveNuca::find(unsigned set, Addr tag) const
{
    const ConstSetRef r = ref(set);
    // Signature pre-filter: scan the one-byte signatures eight at a
    // time and only compare the full tag on candidate slots, in the
    // same ascending-slot order the plain scan uses.
    if ((totalWays_ & 7) == 0) {
        const std::uint64_t pattern =
            sigOf(tag) * 0x0101010101010101ull;
        for (unsigned w = 0; w < totalWays_; w += 8) {
            std::uint64_t word;
            std::memcpy(&word, r.sig + w, 8);
            std::uint64_t m = matchBytes(word, pattern);
            while (m != 0) {
                const unsigned s =
                    w +
                    (static_cast<unsigned>(std::countr_zero(m)) >> 3);
                m &= m - 1;
                if ((r.st[s] & stValid) && r.tag[s] == tag)
                    return static_cast<int>(s);
            }
        }
        return -1;
    }
    for (unsigned s = 0; s < totalWays_; ++s) {
        if ((r.st[s] & stValid) && r.tag[s] == tag)
            return static_cast<int>(s);
    }
    return -1;
}

int
AdaptiveNuca::localVictim(ConstSetRef r, CoreId core) const
{
    // One pass: the first invalid slot wins outright; otherwise the
    // minimum-stamp private and shared blocks are tracked together.
    int priv_lru = -1, shared_lru = -1;
    const unsigned base =
        static_cast<unsigned>(core) * params_.localAssoc;
    for (unsigned s = base; s < base + params_.localAssoc; ++s) {
        const std::uint8_t st = r.st[s];
        if (!(st & stValid))
            return static_cast<int>(s);
        int &lru = (st & stShared) ? shared_lru : priv_lru;
        if (lru < 0 || r.use[s] < r.use[static_cast<unsigned>(lru)])
            lru = static_cast<int>(s);
    }
    return priv_lru >= 0 ? priv_lru : shared_lru;
}

int
AdaptiveNuca::privateLruSlot(ConstSetRef r, CoreId core) const
{
    int victim = -1;
    const unsigned base =
        static_cast<unsigned>(core) * params_.localAssoc;
    for (unsigned s = base; s < base + params_.localAssoc; ++s) {
        if ((r.st[s] & (stValid | stShared)) != stValid)
            continue;
        if (victim < 0 ||
            r.use[s] < r.use[static_cast<unsigned>(victim)])
            victim = static_cast<int>(s);
    }
    return victim;
}

unsigned
AdaptiveNuca::ownedCount(unsigned set, CoreId core) const
{
    return ref(set).owned[static_cast<std::size_t>(core)];
}

unsigned
AdaptiveNuca::privateCount(unsigned set, CoreId core) const
{
    return ref(set).priv[static_cast<std::size_t>(core)];
}

void
AdaptiveNuca::evictSlot(unsigned set, SetRef r, unsigned slot, Cycle now)
{
    panic_if(!(r.st[slot] & stValid), "evicting an invalid slot");
    ++evictions_;
    engine_.recordEviction(set, ownerOf(r.st[slot]), r.tag[slot]);
    if (r.st[slot] & stDirty)
        memory_.writebackBlock(r.tag[slot] << blockShift, now);
    clearSlot(r, slot);
}

void
AdaptiveNuca::enforcePrivateCap(SetRef r, CoreId core)
{
    const unsigned cap = engine_.privateWays(core);
    while (r.priv[static_cast<std::size_t>(core)] > cap) {
        const int demote = privateLruSlot(r, core);
        panic_if(demote < 0, "private count positive but no LRU");
        // In-place demotion: only the label changes (lazy
        // repartitioning, Section 2.5). The block keeps its age.
        relabel(r, static_cast<unsigned>(demote), true, core);
        ++demotions_;
    }
}

void
AdaptiveNuca::maybeCountLruHit(ConstSetRef r, unsigned slot,
                               CoreId core)
{
    // The loss estimator: a hit on the requester's own LRU block
    // while it holds at least its quota means this hit would miss
    // with one block per set less. The derived owned count answers
    // the quota half without a scan.
    if (ownerOf(r.st[slot]) != core ||
        r.owned[static_cast<std::size_t>(core)] < engine_.quota(core))
        return;
    const std::uint64_t use = r.use[slot];
    const std::uint8_t mine = packState(core, false, false);
    constexpr std::uint8_t ownerBits =
        static_cast<std::uint8_t>(~(stDirty | stShared));
    for (unsigned s = 0; s < totalWays_; ++s) {
        if ((r.st[s] & ownerBits) == mine && r.use[s] < use)
            return;
    }
    engine_.countLruHit(core);
}

bool
AdaptiveNuca::enableHeatmap()
{
    heat_.init(params_.numCores, numSets_);
    return true;
}

std::vector<std::vector<std::uint64_t>>
AdaptiveNuca::occupancyHistograms() const
{
    std::vector<std::vector<std::uint64_t>> out(params_.numCores);
    for (auto &hist : out)
        hist.assign(totalWays_ + 1, 0);
    for (unsigned set = 0; set < numSets_; ++set) {
        const ConstSetRef r = ref(set);
        for (unsigned c = 0; c < params_.numCores; ++c)
            ++out[c][r.owned[c]];
    }
    return out;
}

L3Result
AdaptiveNuca::access(const MemRequest &req, Cycle now)
{
    const unsigned set = setIndex(req.addr);
    const Addr tag = blockNumber(req.addr);
    const CoreId core = req.core;

    const int found = find(set, tag);
    if (found >= 0) {
        const SetRef r = ref(set);
        const auto fslot = static_cast<unsigned>(found);
        maybeCountLruHit(r, fslot, core);

        if (req.isWrite())
            r.st[fslot] |= stDirty;

        if (heat_.enabled())
            heat_.record(static_cast<unsigned>(homeOf(fslot)), set,
                         false);
        if (homeOf(fslot) == core) {
            // Local hit: fast. A shared-labeled block in the local
            // cache is promoted back into the private partition.
            r.use[fslot] = nextStamp();
            if (r.st[fslot] & stShared) {
                relabel(r, fslot, false, core);
                ++promotions_;
                // The promoted block is MRU, so the cap demotes an
                // older private block, never the promoted one.
                enforcePrivateCap(r, core);
            }
            ++localHits_[static_cast<std::size_t>(core)];
            return {L3Result::Where::LocalHit,
                    now + params_.localHitLatency};
        }

        // Remote hit: move the block to the requester's local cache
        // and push the requester's private-LRU block (or, lacking
        // one, the local shared-LRU block) into the vacated slot as
        // the shared partition's MRU (Section 2.3).
        const int back = localVictim(r, core);
        panic_if(back < 0, "local cache has neither an invalid, a "
                           "private, nor a shared slot");
        const auto bslot = static_cast<unsigned>(back);

        // Capture both blocks before overwriting either slot.
        const std::uint8_t d_st = r.st[bslot];
        const Addr d_tag = r.tag[bslot];
        const Addr f_tag = r.tag[fslot];
        const bool f_dirty = (r.st[fslot] & stDirty) != 0;

        fill(r, bslot, f_tag, core, f_dirty, false);
        enforcePrivateCap(r, core);

        if (d_st & stValid) {
            fill(r, fslot, d_tag, ownerOf(d_st), (d_st & stDirty) != 0,
                 true);
        } else {
            clearSlot(r, fslot);
        }
        ++swaps_;
        ++remoteHits_[static_cast<std::size_t>(core)];
        return {L3Result::Where::RemoteHit,
                now + params_.remoteHitLatency};
    }

    // Miss: estimator + epoch bookkeeping, then fetch and install.
    // The miss lands in the requester's bank: that is where
    // insertFromMemory installs the block.
    if (heat_.enabled())
        heat_.record(static_cast<unsigned>(core), set, true);
    engine_.observeMiss(set, core, tag);
    ++misses_[static_cast<std::size_t>(core)];
    const Cycle ready = memory_.fetchBlock(req.addr, now);
    insertFromMemory(set, core, tag, req.isWrite(), ready);
    return {L3Result::Where::Miss, ready};
}

void
AdaptiveNuca::insertFromMemory(unsigned set, CoreId core, Addr tag,
                               bool dirty, Cycle now)
{
    const SetRef r = ref(set);

    // The requester's local victim; new data always enters the
    // private partition as MRU (Section 2.4).
    const int dest = localVictim(r, core);
    panic_if(dest < 0, "full local cache with no victim");
    const auto dslot = static_cast<unsigned>(dest);
    if (!(r.st[dslot] & stValid)) {
        fill(r, dslot, tag, core, dirty, false);
        enforcePrivateCap(r, core);
        return;
    }

    // Capture the displaced block, then overwrite its slot with the
    // new arrival.
    const Addr d_tag = r.tag[dslot];
    const bool d_dirty = (r.st[dslot] & stDirty) != 0;
    const CoreId d_owner = ownerOf(r.st[dslot]);
    fill(r, dslot, tag, core, dirty, false);

    // The displaced block is allocated in the shared partition; the
    // shared partition makes room per Algorithm 1. Its LRU-to-MRU
    // walk returns the first shared block whose owner is over quota,
    // falling back to the shared-LRU block (step 8). "First in LRU
    // order" is the minimum (lastUse, slot), and the quota test
    // depends only on the owner, so one pass takes both minima.
    // The displaced block holds no slot yet but counts for its owner.
    unsigned over_mask = 0;
    unsigned valid = 0;
    for (unsigned c = 0; c < params_.numCores; ++c) {
        const unsigned count =
            r.owned[c] + (static_cast<CoreId>(c) == d_owner ? 1u : 0u);
        valid += r.owned[c];
        if (count > engine_.quota(static_cast<CoreId>(c)))
            over_mask |= 1u << c;
    }
    int target = -1;
    if (valid < totalWays_) {
        for (unsigned s = 0; s < totalWays_; ++s) {
            if (!(r.st[s] & stValid)) {
                target = static_cast<int>(s);
                break;
            }
        }
    } else {
        int best_any = -1, best_over = -1;
        std::uint64_t any_use = 0, over_use = 0;
        for (unsigned s = 0; s < totalWays_; ++s) {
            const std::uint8_t st = r.st[s];
            if (!(st & stShared))
                continue;
            // Strict < keeps the lower slot on (corrupted-stack)
            // stamp ties. Use stamps are unique in a healthy set.
            const std::uint64_t use = r.use[s];
            if (best_any < 0 || use < any_use) {
                best_any = static_cast<int>(s);
                any_use = use;
            }
            if (((over_mask >> (st >> stOwnerShift)) & 1u) &&
                (best_over < 0 || use < over_use)) {
                best_over = static_cast<int>(s);
                over_use = use;
            }
        }
        target = best_over >= 0 ? best_over : best_any;
        if (target < 0) {
            // No shared block exists (transient cold state): the
            // displaced block itself is evicted.
            ++evictions_;
            engine_.recordEviction(set, d_owner, d_tag);
            if (d_dirty)
                memory_.writebackBlock(d_tag << blockShift, now);
            enforcePrivateCap(r, core);
            return;
        }
        // Evicting the displaced block directly when its own core is
        // the over-quota one is represented by Algorithm 1 choosing
        // a victim of the same owner; the displaced block is younger
        // (it just left a private partition), so the in-cache block
        // is the right victim either way.
        const auto tslot = static_cast<unsigned>(target);
        if ((over_mask >> ownerOf(r.st[tslot])) & 1u)
            ++overQuotaEvictions_;
        evictSlot(set, r, tslot, now);
    }

    fill(r, static_cast<unsigned>(target), d_tag, d_owner, d_dirty,
         true); // MRU of the shared partition
    ++demotions_;
    enforcePrivateCap(r, core);
}

void
AdaptiveNuca::writebackFromL2(CoreId core, Addr addr, Cycle now)
{
    (void)core;
    const unsigned set = setIndex(addr);
    const int found = find(set, blockNumber(addr));
    if (found >= 0) {
        ref(set).st[static_cast<unsigned>(found)] |= stDirty;
        return;
    }
    memory_.writebackBlock(addr, now);
}

Counter
AdaptiveNuca::localHitsOf(CoreId core) const
{
    return localHits_.value(static_cast<std::size_t>(core));
}

Counter
AdaptiveNuca::remoteHitsOf(CoreId core) const
{
    return remoteHits_.value(static_cast<std::size_t>(core));
}

Counter
AdaptiveNuca::missesOf(CoreId core) const
{
    return misses_.value(static_cast<std::size_t>(core));
}

const char *
AdaptiveNuca::setDefect(unsigned set) const
{
    const ConstSetRef r = ref(set);
    // The derived per-core counts must match the slots: Algorithm
    // 1's over-quota victim choice and the private cap read them, so
    // a wrong tally silently redirects evictions.
    std::uint8_t owned[maxCores] = {};
    std::uint8_t priv[maxCores] = {};
    for (unsigned s = 0; s < totalWays_; ++s) {
        const std::uint8_t st = r.st[s];
        if (!(st & stValid)) {
            // An empty slot carries no state but its stale tag and
            // stamp, and the probe pre-filter must skip it.
            if (st != 0 || r.sig[s] != 0)
                return "invalid slot with block state";
            continue;
        }
        const auto owner = static_cast<unsigned>(ownerOf(st));
        if (owner >= params_.numCores)
            return "valid block with an invalid owner";
        // A private-labeled block must live in its owner's local
        // cache.
        if (!(st & stShared) && homeOf(s) != static_cast<CoreId>(owner))
            return "private block outside its owner's cache";
        // Tags must map back to this set.
        if ((static_cast<unsigned>(r.tag[s]) & indexMask_) != set)
            return "block stored in the wrong set";
        // The signature must mirror the tag: a stale one would make
        // the probe pre-filter skip a real block.
        if (r.sig[s] != sigOf(r.tag[s]))
            return "tag signature out of sync with its tag";
        // Stamps come from one counter; a stamp past it would be
        // handed out again.
        if (r.use[s] > stampCounter_)
            return "use stamp beyond the stamp counter";
        ++owned[owner];
        if (!(st & stShared))
            ++priv[owner];
    }
    for (unsigned c = 0; c < params_.numCores; ++c) {
        if (owned[c] != r.owned[c] || priv[c] != r.priv[c])
            return "per-core block counts do not match the set's "
                   "blocks";
    }
    for (unsigned a = 0; a < totalWays_; ++a) {
        if (!(r.st[a] & stValid))
            continue;
        for (unsigned b = a + 1; b < totalWays_; ++b) {
            if (!(r.st[b] & stValid))
                continue;
            // The set's LRU stack must be a strict permutation: two
            // valid blocks sharing a stamp can only be corruption,
            // and ambiguous recency breaks Algorithm 1's victim walk
            // and the LRU-hit loss estimator.
            if (r.use[b] == r.use[a])
                return "LRU stack corrupted: two valid blocks share "
                       "use stamp";
            // Every core hits the first copy the probe finds, so a
            // second copy would be stale and never looked up.
            if (r.sig[b] == r.sig[a] && r.tag[b] == r.tag[a])
                return "duplicate tag in the set";
        }
    }
    return nullptr;
}

void
AdaptiveNuca::checkInvariants() const
{
    if (const char *defect = engine_.stateDefect())
        panic(defect);
    for (unsigned set = 0; set < numSets_; ++set) {
        if (const char *defect = setDefect(set))
            panic(defect, " (set ", set, ")");
    }
}

bool
AdaptiveNuca::injectLruCorruption()
{
    // Duplicate one valid block's use stamp onto another in the
    // first set holding two valid blocks — the exact defect the
    // checkInvariants LRU-permutation pass exists to catch.
    for (unsigned set = 0; set < numSets_; ++set) {
        const SetRef r = ref(set);
        int first = -1;
        for (unsigned s = 0; s < totalWays_; ++s) {
            if (!(r.st[s] & stValid))
                continue;
            if (first < 0) {
                first = static_cast<int>(s);
                continue;
            }
            r.use[s] = r.use[static_cast<unsigned>(first)];
            return true;
        }
    }
    return false;
}

namespace {

/** Wire size of one slot: the legacy block fields (tag, valid,
 * dirty, owner, last use, insertion stamp, referenced) + shared. */
constexpr std::size_t slotBytes = 8 + 1 + 1 + 8 + 8 + 8 + 1 + 1;

} // namespace

void
AdaptiveNuca::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("NUCA"));
    s.putU64(stampCounter_);
    const std::size_t slots =
        static_cast<std::size_t>(numSets_) * totalWays_;
    s.putU64(slots);
    // Legacy per-slot order (checkpointBlock + isShared), byte-
    // identical to the old array-of-structs encoding. The adaptive
    // scheme never sets insertedAt/referenced, so they are written
    // as the constants every old checkpoint carried; an empty slot's
    // owner is invalidCore.
    auto w = s.record(slots * slotBytes);
    for (unsigned set = 0; set < numSets_; ++set) {
        const ConstSetRef r = ref(set);
        for (unsigned slot = 0; slot < totalWays_; ++slot) {
            const std::uint8_t st = r.st[slot];
            w.putU64(r.tag[slot]);
            w.putBool((st & stValid) != 0);
            w.putBool((st & stDirty) != 0);
            w.putI64((st & stValid) ? ownerOf(st) : invalidCore);
            w.putU64(r.use[slot]);
            w.putU64(0);      // insertedAt: unused by this scheme
            w.putBool(false); // referenced: unused by this scheme
            w.putBool((st & stShared) != 0);
        }
    }
    engine_.checkpoint(s);
}

void
AdaptiveNuca::restore(Deserializer &d)
{
    d.expectTag(fourcc("NUCA"), "adaptive NUCA");
    stampCounter_ = d.getU64();
    const std::size_t slots =
        static_cast<std::size_t>(numSets_) * totalWays_;
    if (d.getU64() != slots)
        throw CheckpointError("NUCA slot count mismatch");
    auto rd = d.record(slots * slotBytes);
    for (unsigned set = 0; set < numSets_; ++set) {
        const SetRef r = ref(set);
        std::fill(r.owned, r.owned + params_.numCores, 0);
        std::fill(r.priv, r.priv + params_.numCores, 0);
        for (unsigned slot = 0; slot < totalWays_; ++slot) {
            r.tag[slot] = rd.getU64();
            const bool valid = rd.getBool();
            const bool dirty = rd.getBool();
            const std::int64_t owner = rd.getI64();
            r.use[slot] = rd.getU64();
            (void)rd.getU64();  // insertedAt: unused by this scheme
            (void)rd.getBool(); // referenced: unused by this scheme
            const bool shared = rd.getBool();
            if (!valid) {
                // The packed state has no room for an empty slot's
                // flags; no run ever leaves any behind.
                if (dirty || shared || owner != invalidCore)
                    throw CheckpointError(
                        "adaptive NUCA: invalid slot with block state");
                r.st[slot] = 0;
                r.sig[slot] = 0;
                continue;
            }
            if (owner < 0 ||
                static_cast<std::uint64_t>(owner) >= params_.numCores)
                throw CheckpointError(
                    "adaptive NUCA: valid block with an invalid owner");
            r.st[slot] =
                packState(static_cast<CoreId>(owner), dirty, shared);
            // Signatures and counts are derived state, absent from
            // the wire format.
            r.sig[slot] = sigOf(r.tag[slot]);
            tally(r, slot, +1);
        }
        // A state checkInvariants would reject is refused here: the
        // next access to the set would otherwise index out of bounds
        // or pick victims from a corrupt LRU stack.
        if (const char *defect = setDefect(set))
            throw CheckpointError(std::string("adaptive NUCA: ") +
                                  defect);
    }
    engine_.restore(d);
}

} // namespace nuca
