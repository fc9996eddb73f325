#include "cache/set_assoc_cache.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "serialize/serializer.hh"

namespace nuca {

const char *
to_string(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::Lru:
        return "lru";
      case ReplPolicy::Fifo:
        return "fifo";
      case ReplPolicy::Random:
        return "random";
      case ReplPolicy::Nru:
        return "nru";
    }
    panic("unknown replacement policy");
}

SetAssocCache::SetAssocCache(stats::Group &parent,
                             const std::string &name,
                             std::uint64_t size_bytes, unsigned assoc,
                             ReplPolicy policy, std::uint64_t seed)
    : policy_(policy),
      rng_(seed),
      assoc_(assoc),
      statsGroup_(parent, name),
      accesses_(statsGroup_, "accesses", "reads and writes observed"),
      misses_(statsGroup_, "misses", "accesses that missed"),
      writebacksProduced_(statsGroup_, "writebacks",
                          "dirty blocks displaced by fills")
{
    fatal_if(assoc_ == 0, "cache '", name, "' has zero associativity");
    fatal_if(size_bytes == 0 || size_bytes % (assoc_ * blockBytes) != 0,
             "cache '", name, "' size ", size_bytes,
             " is not a multiple of assoc*blockBytes");
    const std::uint64_t sets = size_bytes / (assoc_ * blockBytes);
    fatal_if(!isPowerOf2(sets), "cache '", name,
             "' needs a power-of-two set count, got ", sets);
    numSets_ = static_cast<unsigned>(sets);
    indexMask_ = numSets_ - 1;
    const std::size_t ways = baseOf(numSets_);
    tags_.assign(ways, 0);
    lastUse_.assign(ways, 0);
    insertedAt_.assign(ways, 0);
    owners_.assign(ways, invalidCore);
    valid_.assign(ways, 0);
    dirty_.assign(ways, 0);
    referenced_.assign(ways, 0);
}

unsigned
SetAssocCache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(blockNumber(addr)) & indexMask_;
}

int
SetAssocCache::findTag(std::size_t base, Addr tag) const
{
    for (unsigned w = 0; w < assoc_; ++w) {
        if (valid_[base + w] && tags_[base + w] == tag)
            return static_cast<int>(w);
    }
    return -1;
}

int
SetAssocCache::findInvalid(std::size_t base) const
{
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!valid_[base + w])
            return static_cast<int>(w);
    }
    return -1;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findTag(baseOf(setIndex(addr)), tagOf(addr)) >= 0;
}

bool
SetAssocCache::access(Addr addr, bool is_write)
{
    ++accesses_;
    const std::size_t base = baseOf(setIndex(addr));
    const int way = findTag(base, tagOf(addr));
    if (way < 0) {
        ++misses_;
        return false;
    }
    const std::size_t i = base + static_cast<unsigned>(way);
    lastUse_[i] = nextStamp();
    referenced_[i] = 1;
    if (is_write)
        dirty_[i] = 1;
    return true;
}

unsigned
SetAssocCache::victimWay(std::size_t base)
{
    switch (policy_) {
      case ReplPolicy::Lru: {
          int way = -1;
          for (unsigned w = 0; w < assoc_; ++w) {
              if (!valid_[base + w])
                  continue;
              if (way < 0 || lastUse_[base + w] <
                                 lastUse_[base +
                                          static_cast<unsigned>(way)])
                  way = static_cast<int>(w);
          }
          panic_if(way < 0, "full set with no LRU block");
          return static_cast<unsigned>(way);
      }
      case ReplPolicy::Fifo: {
          int way = -1;
          for (unsigned w = 0; w < assoc_; ++w) {
              if (!valid_[base + w])
                  continue;
              if (way < 0 ||
                  insertedAt_[base + w] <
                      insertedAt_[base + static_cast<unsigned>(way)])
                  way = static_cast<int>(w);
          }
          panic_if(way < 0, "full set with no FIFO victim");
          return static_cast<unsigned>(way);
      }
      case ReplPolicy::Random:
          return static_cast<unsigned>(rng_.below(assoc_));
      case ReplPolicy::Nru: {
          // First pass: any block with a clear reference bit. If
          // none, clear all bits and take way 0 (the classic
          // one-bit approximation).
          for (unsigned w = 0; w < assoc_; ++w) {
              if (!referenced_[base + w])
                  return w;
          }
          std::fill_n(referenced_.begin() +
                          static_cast<std::ptrdiff_t>(base),
                      assoc_, std::uint8_t{0});
          return 0;
      }
    }
    panic("unknown replacement policy");
}

std::optional<EvictedBlock>
SetAssocCache::fill(Addr addr, bool dirty, CoreId owner)
{
    const std::size_t base = baseOf(setIndex(addr));
    const Addr tag = tagOf(addr);
    panic_if(findTag(base, tag) >= 0,
             "fill of a block that is already present");

    int way = findInvalid(base);
    std::optional<EvictedBlock> victim;
    if (way < 0) {
        way = static_cast<int>(victimWay(base));
        const std::size_t i = base + static_cast<unsigned>(way);
        victim = EvictedBlock{addrOf(tags_[i]), dirty_[i] != 0,
                              owners_[i]};
        if (dirty_[i])
            ++writebacksProduced_;
    }

    const std::size_t i = base + static_cast<unsigned>(way);
    tags_[i] = tag;
    valid_[i] = 1;
    dirty_[i] = dirty ? 1 : 0;
    owners_[i] = owner;
    lastUse_[i] = nextStamp();
    insertedAt_[i] = lastUse_[i];
    referenced_[i] = 1;
    return victim;
}

std::optional<EvictedBlock>
SetAssocCache::invalidate(Addr addr)
{
    const std::size_t base = baseOf(setIndex(addr));
    const int way = findTag(base, tagOf(addr));
    if (way < 0)
        return std::nullopt;
    const std::size_t i = base + static_cast<unsigned>(way);
    EvictedBlock out{addrOf(tags_[i]), dirty_[i] != 0, owners_[i]};
    valid_[i] = 0;
    dirty_[i] = 0;
    owners_[i] = invalidCore;
    return out;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const std::size_t base = baseOf(setIndex(addr));
    const int way = findTag(base, tagOf(addr));
    if (way < 0)
        return false;
    dirty_[base + static_cast<unsigned>(way)] = 1;
    return true;
}

Addr
SetAssocCache::addrOf(Addr tag) const
{
    // Tags store the full block number, so the address is direct.
    return tag << blockShift;
}

void
SetAssocCache::checkInvariants() const
{
    for (unsigned s = 0; s < numSets_; ++s) {
        const std::size_t base = baseOf(s);
        // The LRU stack of a set is a permutation of its valid ways
        // exactly when the valid blocks' use stamps are pairwise
        // distinct (stamps come from one monotonic counter, so a
        // duplicate can only mean corruption — ties would make
        // victim selection ambiguous).
        for (unsigned a = 0; a < assoc_; ++a) {
            if (!valid_[base + a])
                continue;
            panic_if((static_cast<unsigned>(tags_[base + a]) &
                      indexMask_) != s,
                     "block stored in the wrong set");
            for (unsigned b = a + 1; b < assoc_; ++b) {
                panic_if(valid_[base + b] &&
                             lastUse_[base + a] == lastUse_[base + b],
                         "LRU stack corrupted: two valid blocks "
                         "share use stamp ", lastUse_[base + a]);
            }
        }
    }
}

bool
SetAssocCache::injectLruCorruption()
{
    for (unsigned s = 0; s < numSets_; ++s) {
        const std::size_t base = baseOf(s);
        int first = -1;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!valid_[base + w])
                continue;
            if (first < 0) {
                first = static_cast<int>(w);
                continue;
            }
            lastUse_[base + w] =
                lastUse_[base + static_cast<unsigned>(first)];
            return true;
        }
    }
    return false;
}

namespace {

/** Wire size of one way: tag, valid, dirty, owner, last use,
 * insertion stamp, referenced. */
constexpr std::size_t wayBytes = 8 + 1 + 1 + 8 + 8 + 8 + 1;

} // namespace

void
SetAssocCache::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("SACC"));
    s.putU64(stampCounter_);
    rng_.checkpoint(s);
    s.putU64(numSets_);
    // The whole tag array is one record: per set, the associativity
    // and then every way.
    auto w = s.record(numSets_ * (8 + assoc_ * wayBytes));
    for (unsigned set = 0; set < numSets_; ++set) {
        const std::size_t base = baseOf(set);
        w.putU64(assoc_);
        for (unsigned way = 0; way < assoc_; ++way) {
            const std::size_t i = base + way;
            w.putU64(tags_[i]);
            w.putBool(valid_[i] != 0);
            w.putBool(dirty_[i] != 0);
            w.putI64(owners_[i]);
            w.putU64(lastUse_[i]);
            w.putU64(insertedAt_[i]);
            w.putBool(referenced_[i] != 0);
        }
    }
}

void
SetAssocCache::restore(Deserializer &d)
{
    d.expectTag(fourcc("SACC"), "set-associative cache");
    stampCounter_ = d.getU64();
    rng_.restore(d);
    if (d.getU64() != numSets_)
        throw CheckpointError("cache set count mismatch");
    auto r = d.record(numSets_ * (8 + assoc_ * wayBytes));
    for (unsigned set = 0; set < numSets_; ++set) {
        const std::size_t base = baseOf(set);
        if (r.getU64() != assoc_)
            throw CheckpointError("cache set associativity mismatch");
        for (unsigned way = 0; way < assoc_; ++way) {
            const std::size_t i = base + way;
            tags_[i] = r.getU64();
            valid_[i] = r.getBool() ? 1 : 0;
            dirty_[i] = r.getBool() ? 1 : 0;
            owners_[i] = static_cast<CoreId>(r.getI64());
            lastUse_[i] = r.getU64();
            insertedAt_[i] = r.getU64();
            referenced_[i] = r.getBool() ? 1 : 0;
        }
    }
}

unsigned
SetAssocCache::validInSet(unsigned set) const
{
    const std::size_t base = baseOf(set);
    unsigned n = 0;
    for (unsigned w = 0; w < assoc_; ++w)
        n += valid_[base + w] ? 1 : 0;
    return n;
}

unsigned
SetAssocCache::ownedInSet(unsigned set, CoreId core) const
{
    const std::size_t base = baseOf(set);
    unsigned n = 0;
    for (unsigned w = 0; w < assoc_; ++w)
        n += (valid_[base + w] && owners_[base + w] == core) ? 1 : 0;
    return n;
}

double
SetAssocCache::missRatio() const
{
    const auto acc = accesses();
    return acc == 0 ? 0.0
                    : static_cast<double>(misses()) /
                          static_cast<double>(acc);
}

} // namespace nuca
