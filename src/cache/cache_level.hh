/**
 * @file
 * A timed cache level: a SetAssocCache plus a hit latency and an
 * MSHR file. The memory system walks levels with these primitives,
 * accumulating latency like SimpleScalar's sim-outorder does.
 */

#ifndef NUCA_CACHE_CACHE_LEVEL_HH
#define NUCA_CACHE_CACHE_LEVEL_HH

#include <optional>
#include <string>

#include "base/stats.hh"
#include "base/types.hh"
#include "cache/mshr.hh"
#include "cache/set_assoc_cache.hh"

namespace nuca {

/** Geometry and timing parameters of one cache level. */
struct CacheLevelParams
{
    std::uint64_t sizeBytes;
    unsigned assoc;
    Cycle hitLatency;
    unsigned mshrs;
};

/** A non-blocking, timed cache level. */
class CacheLevel
{
  public:
    CacheLevel(stats::Group &parent, const std::string &name,
               const CacheLevelParams &params);

    /**
     * Attempt a timed access at @p now.
     * @return the data-ready cycle on a hit, nullopt on a miss
     *         (no state change on miss).
     */
    std::optional<Cycle> tryAccess(Addr addr, bool is_write, Cycle now);

    /**
     * Check for an in-flight miss covering @p addr's block.
     * @return its data-ready cycle, or 0 if none.
     */
    Cycle inFlightReady(Addr addr, Cycle now);

    /**
     * Begin a primary miss at @p now (reserves an MSHR; may stall if
     * the file is full). @return the cycle the miss actually starts.
     */
    Cycle beginMiss(Addr addr, Cycle now);

    /** Finish the miss begun with beginMiss(). */
    void finishMiss(Addr addr, Cycle ready);

    /**
     * Install the block, returning any displaced block so the caller
     * can propagate a dirty victim down the hierarchy.
     */
    std::optional<EvictedBlock>
    fill(Addr addr, bool dirty, CoreId owner)
    {
        return cache_.fill(addr, dirty, owner);
    }

    Cycle hitLatency() const { return hitLatency_; }

    SetAssocCache &tags() { return cache_; }
    const SetAssocCache &tags() const { return cache_; }

    MshrFile &mshrs() { return mshrs_; }

    /** Checkpoint the tag array and MSHR file. */
    void
    checkpoint(Serializer &s) const
    {
        cache_.checkpoint(s);
        mshrs_.checkpoint(s);
    }

    /** Restore a checkpoint of an identically configured level. */
    void
    restore(Deserializer &d)
    {
        cache_.restore(d);
        mshrs_.restore(d);
    }

  private:
    stats::Group statsGroup_;
    SetAssocCache cache_;
    MshrFile mshrs_;
    Cycle hitLatency_;
};

} // namespace nuca

#endif // NUCA_CACHE_CACHE_LEVEL_HH
