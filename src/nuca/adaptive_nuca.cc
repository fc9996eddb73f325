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
    indexMask_ = numSets_ - 1;
    const std::size_t slots =
        static_cast<std::size_t>(numSets_) * totalWays_;
    tags_.assign(slots, 0);
    lastUse_.assign(slots, 0);
    owners_.assign(slots, invalidCore);
    valid_.assign(slots, 0);
    dirty_.assign(slots, 0);
    isShared_.assign(slots, 0);
    sig_.assign(slots, 0);
    ownedScratch_.assign(params_.numCores, 0);
}

void
AdaptiveNuca::clearSlot(std::size_t i)
{
    valid_[i] = 0;
    dirty_[i] = 0;
    owners_[i] = invalidCore;
    isShared_[i] = 0;
    sig_[i] = 0;
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
    const std::size_t i = idx(set, slot);
    return CacheBlock{tags_[i],       valid_[i] != 0, dirty_[i] != 0,
                      owners_[i],     lastUse_[i],    0,
                      false};
}

bool
AdaptiveNuca::slotIsShared(unsigned set, unsigned slot) const
{
    panic_if(set >= numSets_ || slot >= totalWays_,
             "set/slot out of range");
    return isShared_[idx(set, slot)] != 0;
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
AdaptiveNuca::findVisible(unsigned set, CoreId core, Addr tag) const
{
    const std::size_t base = idx(set, 0);
    // Signature pre-filter: scan the one-byte signatures eight at a
    // time and only compare the full tag on candidate slots. The
    // visibility rule (private blocks are visible only to the core
    // whose local cache holds them, relaxed in parallel-workload
    // mode) applies to candidates exactly as the plain scan applied
    // it to every slot, in the same ascending-slot order.
    if ((totalWays_ & 7) == 0) {
        const std::uint64_t pattern =
            sigOf(tag) * 0x0101010101010101ull;
        for (unsigned w = 0; w < totalWays_; w += 8) {
            std::uint64_t word;
            std::memcpy(&word, sig_.data() + base + w, 8);
            std::uint64_t m = matchBytes(word, pattern);
            while (m != 0) {
                const unsigned s =
                    w +
                    (static_cast<unsigned>(std::countr_zero(m)) >> 3);
                m &= m - 1;
                const std::size_t i = base + s;
                if (!valid_[i] || tags_[i] != tag)
                    continue;
                if (!isShared_[i] && homeOf(s) != core &&
                    !params_.allowRemotePrivateHits) {
                    continue;
                }
                return static_cast<int>(s);
            }
        }
        return -1;
    }
    for (unsigned s = 0; s < totalWays_; ++s) {
        const std::size_t i = base + s;
        if (!valid_[i] || tags_[i] != tag)
            continue;
        if (!isShared_[i] && homeOf(s) != core &&
            !params_.allowRemotePrivateHits) {
            continue;
        }
        return static_cast<int>(s);
    }
    return -1;
}

int
AdaptiveNuca::findAny(unsigned set, Addr tag) const
{
    const std::size_t base = idx(set, 0);
    if ((totalWays_ & 7) == 0) {
        const std::uint64_t pattern =
            sigOf(tag) * 0x0101010101010101ull;
        for (unsigned w = 0; w < totalWays_; w += 8) {
            std::uint64_t word;
            std::memcpy(&word, sig_.data() + base + w, 8);
            std::uint64_t m = matchBytes(word, pattern);
            while (m != 0) {
                const unsigned s =
                    w +
                    (static_cast<unsigned>(std::countr_zero(m)) >> 3);
                m &= m - 1;
                if (valid_[base + s] && tags_[base + s] == tag)
                    return static_cast<int>(s);
            }
        }
        return -1;
    }
    for (unsigned s = 0; s < totalWays_; ++s) {
        if (valid_[base + s] && tags_[base + s] == tag)
            return static_cast<int>(s);
    }
    return -1;
}

int
AdaptiveNuca::invalidLocalSlot(unsigned set, CoreId core) const
{
    const unsigned base =
        static_cast<unsigned>(core) * params_.localAssoc;
    for (unsigned s = base; s < base + params_.localAssoc; ++s) {
        if (!valid_[idx(set, s)])
            return static_cast<int>(s);
    }
    return -1;
}

int
AdaptiveNuca::invalidAnySlot(unsigned set) const
{
    const std::size_t base = idx(set, 0);
    for (unsigned s = 0; s < totalWays_; ++s) {
        if (!valid_[base + s])
            return static_cast<int>(s);
    }
    return -1;
}

int
AdaptiveNuca::privateLruSlot(unsigned set, CoreId core) const
{
    int victim = -1;
    const unsigned base =
        static_cast<unsigned>(core) * params_.localAssoc;
    for (unsigned s = base; s < base + params_.localAssoc; ++s) {
        const std::size_t i = idx(set, s);
        if (!valid_[i] || isShared_[i])
            continue;
        if (victim < 0 ||
            lastUse_[i] <
                lastUse_[idx(set, static_cast<unsigned>(victim))]) {
            victim = static_cast<int>(s);
        }
    }
    return victim;
}

int
AdaptiveNuca::localSharedLruSlot(unsigned set, CoreId core) const
{
    int victim = -1;
    const unsigned base =
        static_cast<unsigned>(core) * params_.localAssoc;
    for (unsigned s = base; s < base + params_.localAssoc; ++s) {
        const std::size_t i = idx(set, s);
        if (!valid_[i] || !isShared_[i])
            continue;
        if (victim < 0 ||
            lastUse_[i] <
                lastUse_[idx(set, static_cast<unsigned>(victim))]) {
            victim = static_cast<int>(s);
        }
    }
    return victim;
}

unsigned
AdaptiveNuca::ownedCount(unsigned set, CoreId core) const
{
    unsigned n = 0;
    const std::size_t base = idx(set, 0);
    for (unsigned s = 0; s < totalWays_; ++s) {
        if (valid_[base + s] && owners_[base + s] == core)
            ++n;
    }
    return n;
}

unsigned
AdaptiveNuca::privateCount(unsigned set, CoreId core) const
{
    unsigned n = 0;
    const unsigned base =
        static_cast<unsigned>(core) * params_.localAssoc;
    for (unsigned s = base; s < base + params_.localAssoc; ++s) {
        const std::size_t i = idx(set, s);
        if (valid_[i] && !isShared_[i])
            ++n;
    }
    return n;
}

bool
AdaptiveNuca::isOwnerLru(unsigned set, unsigned slot) const
{
    const std::size_t ref = idx(set, slot);
    const CoreId owner = owners_[ref];
    const std::uint64_t use = lastUse_[ref];
    const std::size_t base = idx(set, 0);
    for (unsigned s = 0; s < totalWays_; ++s) {
        const std::size_t i = base + s;
        if (i == ref)
            continue;
        if (valid_[i] && owners_[i] == owner && lastUse_[i] < use)
            return false;
    }
    return true;
}

int
AdaptiveNuca::findSharedVictim(unsigned set, CoreId extra_owner) const
{
    // Algorithm 1's LRU-to-MRU walk returns the first shared block
    // whose owner is over quota, falling back to the shared-LRU
    // block (step 8). "First in LRU order" is just "minimum
    // (lastUse, slot)", so instead of sorting the shared slots we
    // take both minima in one scan: the quota test depends only on
    // the owner, never on the walk position.
    std::vector<unsigned> &counts = ownedScratch_;
    std::fill(counts.begin(), counts.end(), 0u);
    const std::size_t base = idx(set, 0);
    for (unsigned s = 0; s < totalWays_; ++s) {
        if (valid_[base + s])
            ++counts[static_cast<std::size_t>(owners_[base + s])];
    }
    unsigned over_mask = 0;
    for (CoreId c = 0; c < static_cast<CoreId>(params_.numCores);
         ++c) {
        const unsigned count =
            counts[static_cast<std::size_t>(c)] +
            (c == extra_owner ? 1u : 0u);
        if (count > engine_.quota(c))
            over_mask |= 1u << c;
    }
    int best_any = -1, best_over = -1;
    std::uint64_t any_use = 0, over_use = 0;
    for (unsigned s = 0; s < totalWays_; ++s) {
        if (!valid_[base + s] || !isShared_[base + s])
            continue;
        // Strict < keeps the lower slot on (corrupted-stack) stamp
        // ties — the same deterministic order the old sort's
        // slot-index tie-break produced. Use stamps are unique in a
        // healthy set.
        const std::uint64_t use = lastUse_[base + s];
        if (best_any < 0 || use < any_use) {
            best_any = static_cast<int>(s);
            any_use = use;
        }
        if ((over_mask >> owners_[base + s]) & 1u) {
            if (best_over < 0 || use < over_use) {
                best_over = static_cast<int>(s);
                over_use = use;
            }
        }
    }
    return best_over >= 0 ? best_over : best_any;
}

void
AdaptiveNuca::evictSlot(unsigned set, unsigned slot, Cycle now)
{
    const std::size_t i = idx(set, slot);
    panic_if(!valid_[i], "evicting an invalid slot");
    ++evictions_;
    engine_.recordEviction(set, owners_[i], tags_[i]);
    if (dirty_[i])
        memory_.writebackBlock(tags_[i] << blockShift, now);
    clearSlot(i);
}

void
AdaptiveNuca::enforcePrivateCap(unsigned set, CoreId core)
{
    const unsigned cap = engine_.privateWays(core);
    while (privateCount(set, core) > cap) {
        const int demote = privateLruSlot(set, core);
        panic_if(demote < 0, "private count positive but no LRU");
        // In-place demotion: only the label changes (lazy
        // repartitioning, Section 2.5). The block keeps its age.
        isShared_[idx(set, static_cast<unsigned>(demote))] = 1;
        ++demotions_;
    }
}

void
AdaptiveNuca::maybeCountLruHit(unsigned set, unsigned slot,
                               CoreId core)
{
    const std::size_t ref = idx(set, slot);
    if (owners_[ref] != core)
        return;
    // The loss estimator: a hit on the requester's own LRU block
    // while it holds at least its quota means this hit would miss
    // with one block per set less. One fused scan answers both the
    // is-LRU and the owned-count question isOwnerLru + ownedCount
    // used to take separate passes over.
    const std::uint64_t use = lastUse_[ref];
    const std::size_t base = idx(set, 0);
    unsigned owned = 0;
    bool is_lru = true;
    for (unsigned s = 0; s < totalWays_; ++s) {
        const std::size_t i = base + s;
        if (!valid_[i] || owners_[i] != core)
            continue;
        ++owned;
        if (i != ref && lastUse_[i] < use)
            is_lru = false;
    }
    if (is_lru && owned >= engine_.quota(core))
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
        for (unsigned c = 0; c < params_.numCores; ++c)
            ++out[c][ownedCount(set, static_cast<CoreId>(c))];
    }
    return out;
}

L3Result
AdaptiveNuca::access(const MemRequest &req, Cycle now)
{
    const unsigned set = setIndex(req.addr);
    const Addr tag = blockNumber(req.addr);
    const CoreId core = req.core;

    const int found = findVisible(set, core, tag);
    if (found >= 0) {
        const auto fslot = static_cast<unsigned>(found);
        maybeCountLruHit(set, fslot, core);

        const std::size_t fi = idx(set, fslot);
        if (req.isWrite())
            dirty_[fi] = 1;

        if (heat_.enabled())
            heat_.record(static_cast<unsigned>(homeOf(fslot)), set,
                         false);
        if (homeOf(fslot) == core) {
            // Local hit: fast. A shared-labeled block in the local
            // cache is promoted back into the private partition.
            lastUse_[fi] = nextStamp();
            if (isShared_[fi]) {
                isShared_[fi] = 0;
                owners_[fi] = core;
                ++promotions_;
                // The promoted block is MRU, so the cap demotes an
                // older private block, never the promoted one.
                enforcePrivateCap(set, core);
            }
            ++localHits_[static_cast<std::size_t>(core)];
            return {L3Result::Where::LocalHit,
                    now + params_.localHitLatency};
        }

        // Remote hit: move the block to the requester's local cache
        // and push the requester's private-LRU block (or, lacking
        // one, the local shared-LRU block) into the vacated slot as
        // the shared partition's MRU (Section 2.3).
        int back = invalidLocalSlot(set, core);
        if (back < 0)
            back = privateLruSlot(set, core);
        if (back < 0)
            back = localSharedLruSlot(set, core);
        panic_if(back < 0, "local cache has neither an invalid, a "
                           "private, nor a shared slot");
        const std::size_t bi =
            idx(set, static_cast<unsigned>(back));

        // Capture the displaced block before overwriting its slot.
        const bool d_valid = valid_[bi] != 0;
        const Addr d_tag = tags_[bi];
        const bool d_dirty = dirty_[bi] != 0;
        const CoreId d_owner = owners_[bi];

        writeTag(bi, tags_[fi]);
        valid_[bi] = 1;
        dirty_[bi] = dirty_[fi];
        owners_[bi] = core;
        lastUse_[bi] = nextStamp();
        isShared_[bi] = 0;
        enforcePrivateCap(set, core);

        if (d_valid) {
            writeTag(fi, d_tag);
            valid_[fi] = 1;
            dirty_[fi] = d_dirty ? 1 : 0;
            owners_[fi] = d_owner;
            lastUse_[fi] = nextStamp();
            isShared_[fi] = 1;
        } else {
            clearSlot(fi);
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
    // New data always enters the requester's private partition as
    // MRU (Section 2.4).
    int dest = invalidLocalSlot(set, core);
    if (dest >= 0) {
        const std::size_t i = idx(set, static_cast<unsigned>(dest));
        writeTag(i, tag);
        valid_[i] = 1;
        dirty_[i] = dirty ? 1 : 0;
        owners_[i] = core;
        lastUse_[i] = nextStamp();
        isShared_[i] = 0;
        enforcePrivateCap(set, core);
        return;
    }

    dest = privateLruSlot(set, core);
    if (dest < 0)
        dest = localSharedLruSlot(set, core);
    panic_if(dest < 0, "full local cache with no victim");
    const std::size_t di = idx(set, static_cast<unsigned>(dest));

    // Capture the displaced block, then overwrite its slot with the
    // new arrival.
    const Addr d_tag = tags_[di];
    const bool d_valid = valid_[di] != 0;
    const bool d_dirty = dirty_[di] != 0;
    const CoreId d_owner = owners_[di];
    writeTag(di, tag);
    valid_[di] = 1;
    dirty_[di] = dirty ? 1 : 0;
    owners_[di] = core;
    lastUse_[di] = nextStamp();
    isShared_[di] = 0;

    // The displaced block is allocated in the shared partition; the
    // shared partition makes room per Algorithm 1.
    panic_if(!d_valid, "displaced block is invalid");
    int target = invalidAnySlot(set);
    if (target < 0) {
        target = findSharedVictim(set, d_owner);
        if (target < 0) {
            // No shared block exists (transient cold state): the
            // displaced block itself is evicted.
            ++evictions_;
            engine_.recordEviction(set, d_owner, d_tag);
            if (d_dirty)
                memory_.writebackBlock(d_tag << blockShift, now);
            enforcePrivateCap(set, core);
            return;
        }
        // Evicting the displaced block directly when its own core is
        // the over-quota one is represented by Algorithm 1 choosing
        // a victim of the same owner; the displaced block is younger
        // (it just left a private partition), so the in-cache block
        // is the right victim either way.
        const auto tslot = static_cast<unsigned>(target);
        const CoreId t_owner = owners_[idx(set, tslot)];
        if (ownedCount(set, t_owner) +
                (t_owner == d_owner ? 1u : 0u) >
            engine_.quota(t_owner)) {
            ++overQuotaEvictions_;
        }
        evictSlot(set, tslot, now);
    }

    const std::size_t hi = idx(set, static_cast<unsigned>(target));
    writeTag(hi, d_tag);
    valid_[hi] = 1;
    dirty_[hi] = d_dirty ? 1 : 0;
    owners_[hi] = d_owner;
    lastUse_[hi] = nextStamp(); // MRU of the shared partition
    isShared_[hi] = 1;
    ++demotions_;
    enforcePrivateCap(set, core);
}

void
AdaptiveNuca::writebackFromL2(CoreId core, Addr addr, Cycle now)
{
    (void)core;
    const unsigned set = setIndex(addr);
    const int found = findAny(set, blockNumber(addr));
    if (found >= 0) {
        dirty_[idx(set, static_cast<unsigned>(found))] = 1;
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

void
AdaptiveNuca::checkInvariants() const
{
    unsigned quota_sum = 0;
    for (unsigned c = 0; c < params_.numCores; ++c)
        quota_sum += engine_.quota(static_cast<CoreId>(c));
    panic_if(quota_sum != totalWays_,
             "quotas no longer sum to the total ways per set");

    for (unsigned set = 0; set < numSets_; ++set) {
        const std::size_t base = idx(set, 0);
        // The per-core block counts must account for exactly the
        // valid slots of the set (never more than the global
        // associativity): Algorithm 1's over-quota victim choice
        // reads these counts, so a corrupt owner tally silently
        // redirects evictions.
        unsigned owned_sum = 0;
        for (unsigned c = 0; c < params_.numCores; ++c)
            owned_sum += ownedCount(set, static_cast<CoreId>(c));
        unsigned valid_count = 0;
        for (unsigned s = 0; s < totalWays_; ++s) {
            if (valid_[base + s])
                ++valid_count;
        }
        panic_if(owned_sum != valid_count || valid_count > totalWays_,
                 "per-core block counts do not sum to the set's "
                 "valid blocks");

        for (unsigned s = 0; s < totalWays_; ++s) {
            const std::size_t i = base + s;
            if (!valid_[i])
                continue;
            panic_if(owners_[i] < 0 ||
                         static_cast<unsigned>(owners_[i]) >=
                             params_.numCores,
                     "valid block with an invalid owner");
            // A private-labeled block must live in its owner's
            // local cache.
            panic_if(!isShared_[i] && homeOf(s) != owners_[i],
                     "private block outside its owner's cache");
            // Tags must map back to this set.
            panic_if((static_cast<unsigned>(tags_[i]) & indexMask_) !=
                         set,
                     "block stored in the wrong set");
        }
        // The signature cache must mirror the tags exactly: a stale
        // entry would make the probe pre-filter skip a real block.
        for (unsigned s = 0; s < totalWays_; ++s) {
            const std::size_t i = base + s;
            panic_if(sig_[i] !=
                         (valid_[i] ? sigOf(tags_[i])
                                    : std::uint8_t{0}),
                     "tag signature out of sync with its tag");
        }
        // The set's LRU stack must be a strict permutation: use
        // stamps come from one monotonically increasing counter, so
        // two valid blocks sharing a stamp can only be corruption —
        // and ambiguous recency breaks Algorithm 1's victim walk and
        // the LRU-hit loss estimator.
        for (unsigned a = 0; a < totalWays_; ++a) {
            if (!valid_[base + a])
                continue;
            for (unsigned b = a + 1; b < totalWays_; ++b) {
                panic_if(valid_[base + b] &&
                             lastUse_[base + b] == lastUse_[base + a],
                         "LRU stack corrupted: two valid blocks "
                         "share use stamp ", lastUse_[base + a]);
            }
        }
        // No core may see two copies of one tag. Two *private*
        // copies in different cores' partitions are tolerated: they
        // can only arise when cores actually share addresses, which
        // the paper's multiprogrammed workloads never do, and each
        // core's view stays consistent.
        for (unsigned a = 0; a < totalWays_; ++a) {
            if (!valid_[base + a])
                continue;
            for (unsigned b = a + 1; b < totalWays_; ++b) {
                if (!valid_[base + b] ||
                    tags_[base + b] != tags_[base + a]) {
                    continue;
                }
                panic_if(isShared_[base + a] && isShared_[base + b],
                         "duplicate tag in the shared partition");
                panic_if(isShared_[base + a] != isShared_[base + b],
                         "tag duplicated across the shared and a "
                         "private partition");
                panic_if(homeOf(a) == homeOf(b),
                         "duplicate tag within one local cache");
            }
        }
    }
}

bool
AdaptiveNuca::injectLruCorruption()
{
    // Duplicate one valid block's use stamp onto another in the
    // first set holding two valid blocks — the exact defect the
    // checkInvariants LRU-permutation pass exists to catch.
    for (unsigned set = 0; set < numSets_; ++set) {
        const std::size_t base = idx(set, 0);
        int first = -1;
        for (unsigned s = 0; s < totalWays_; ++s) {
            if (!valid_[base + s])
                continue;
            if (first < 0) {
                first = static_cast<int>(s);
                continue;
            }
            lastUse_[base + s] =
                lastUse_[base + static_cast<unsigned>(first)];
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
    s.putU64(tags_.size());
    // Legacy per-slot order (checkpointBlock + isShared), byte-
    // identical to the old array-of-structs encoding. The adaptive
    // scheme never sets insertedAt/referenced, so they are written
    // as the constants every old checkpoint carried.
    auto w = s.record(tags_.size() * slotBytes);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        w.putU64(tags_[i]);
        w.putBool(valid_[i] != 0);
        w.putBool(dirty_[i] != 0);
        w.putI64(owners_[i]);
        w.putU64(lastUse_[i]);
        w.putU64(0);      // insertedAt: unused by this scheme
        w.putBool(false); // referenced: unused by this scheme
        w.putBool(isShared_[i] != 0);
    }
    engine_.checkpoint(s);
}

void
AdaptiveNuca::restore(Deserializer &d)
{
    d.expectTag(fourcc("NUCA"), "adaptive NUCA");
    stampCounter_ = d.getU64();
    if (d.getU64() != tags_.size())
        throw CheckpointError("NUCA slot count mismatch");
    auto r = d.record(tags_.size() * slotBytes);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        tags_[i] = r.getU64();
        valid_[i] = r.getBool() ? 1 : 0;
        dirty_[i] = r.getBool() ? 1 : 0;
        owners_[i] = static_cast<CoreId>(r.getI64());
        lastUse_[i] = r.getU64();
        (void)r.getU64();  // insertedAt: unused by this scheme
        (void)r.getBool(); // referenced: unused by this scheme
        isShared_[i] = r.getBool() ? 1 : 0;
        // Signatures are derived state, absent from the wire format.
        sig_[i] = valid_[i] ? sigOf(tags_[i]) : 0;
    }
    engine_.restore(d);
}

} // namespace nuca
