/**
 * @file
 * Miss status holding registers for non-blocking caches.
 *
 * The timing model computes a miss's completion cycle at issue time,
 * so an MSHR entry is simply (block address -> ready cycle). The file
 * provides the two behaviours that matter for timing fidelity:
 * merging secondary misses into an in-flight primary miss, and
 * structural stalls when all entries are busy.
 */

#ifndef NUCA_CACHE_MSHR_HH
#define NUCA_CACHE_MSHR_HH

#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace nuca {

/** A file of miss status holding registers. */
class MshrFile
{
  public:
    /**
     * @param parent stats parent
     * @param name stats group name
     * @param entries number of registers (outstanding-miss bound)
     */
    MshrFile(stats::Group &parent, const std::string &name,
             unsigned entries);

    /**
     * If a miss to @p block_addr is already outstanding at @p now,
     * return its ready cycle (the secondary miss merges); otherwise
     * return 0 (0 is never a valid ready cycle because every access
     * takes at least one cycle).
     */
    Cycle lookup(Addr block_addr, Cycle now);

    /**
     * Reserve an entry for a new primary miss issued at @p now.
     * If the file is full, the miss is delayed until the earliest
     * in-flight miss retires.
     *
     * @return the cycle at which the miss can actually start.
     */
    Cycle reserve(Addr block_addr, Cycle now);

    /**
     * Record the completion time of the miss reserved earlier.
     * @pre reserve() returned for this block and complete() has not
     *      been called for it yet.
     */
    void complete(Addr block_addr, Cycle ready);

    /** Entries still in flight at @p now (after pruning). */
    unsigned inFlight(Cycle now);

    /**
     * Age in cycles of the oldest entry still present at @p now
     * (after pruning), or 0 when the file is empty. The
     * forward-progress watchdog bounds this: a healthy entry retires
     * within one memory round trip plus queueing, so an entry whose
     * age keeps growing is leaked (reserved and never completed) or
     * wedged behind a stalled channel.
     */
    Cycle oldestAge(Cycle now);

    /**
     * Validate structural invariants: occupancy within capacity, no
     * duplicate block address (duplicates must merge, never
     * re-allocate), and reserved entries carrying no ready cycle.
     * Panics on violation.
     */
    void checkInvariants() const;

    /**
     * Fault injection: plant a reserved entry (for a sentinel
     * address no real access uses) that will never complete — the
     * "leaked MSHR" defect the watchdog's age bound must catch.
     * Reduces the usable capacity by one until the end of the run.
     */
    void injectLeak(Cycle now);

    /** Checkpoint the in-flight entries. */
    void checkpoint(Serializer &s) const;
    /** Restore a checkpoint of a same-capacity file. */
    void restore(Deserializer &d);

    unsigned capacity() const { return capacity_; }

    Counter merges() const { return merges_.value(); }
    Counter structuralStalls() const { return fullStalls_.value(); }

  private:
    struct Entry
    {
        Addr blockAddr;
        Cycle ready;    // 0 while reserved but not yet completed
        Cycle issued;   // cycle reserve() admitted the miss
        bool reserved;
    };

    void prune(Cycle now);
    /** Rebuild nextReady_ from the entry list after an erase. */
    void recomputeNextReady();

    unsigned capacity_;
    std::vector<Entry> entries_;
    /**
     * Exact minimum ready cycle over the completed (non-reserved)
     * entries, ~0 when there is none. Derived state — kept exact by
     * every mutation, recomputed on restore, never checkpointed.
     * Lets prune() skip its scan while no entry is retirable.
     */
    Cycle nextReady_ = ~static_cast<Cycle>(0);

    stats::Group statsGroup_;
    stats::Scalar allocations_;
    stats::Scalar merges_;
    stats::Scalar fullStalls_;
};

} // namespace nuca

#endif // NUCA_CACHE_MSHR_HH
