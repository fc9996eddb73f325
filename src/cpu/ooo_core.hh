/**
 * @file
 * A trace-driven out-of-order core with SimpleScalar sim-outorder's
 * structure and Table 1's parameters: a 4-entry fetch queue feeding
 * 4-wide fetch/dispatch/issue/commit, a 128-entry register update
 * unit (RUU), a 64-entry load/store queue, the combined branch
 * predictor, and the functional-unit pools.
 *
 * The workload supplies the committed path only; a mispredicted
 * branch stalls fetch until the branch resolves plus the 7-cycle
 * redirect penalty (wrong-path instructions are not simulated —
 * documented deviation from sim-outorder).
 */

#ifndef NUCA_CPU_OOO_CORE_HH
#define NUCA_CPU_OOO_CORE_HH

#include <bit>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/func_units.hh"
#include "cpu/memory_system.hh"
#include "cpu/synth_inst.hh"

namespace nuca {

/** Core structure parameters (defaults: Table 1). */
struct OooCoreParams
{
    unsigned ruuSize = 128;
    unsigned lsqSize = 64;
    unsigned fetchQueueSize = 4;
    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    Cycle mispredictPenalty = 7;
    BranchPredictorParams predictor{};
    FuncUnitParams funcUnits{};
};

/** The out-of-order timing core. */
class OooCore
{
  public:
    OooCore(stats::Group &parent, const std::string &name, CoreId id,
            const OooCoreParams &params, MemorySystem &mem,
            InstSource &source);

    /** Advance the core by one clock cycle. */
    void tick(Cycle now);

    /**
     * Sentinel wake-up cycle meaning "no self-scheduled event": the
     * core only becomes runnable again through an external change
     * (or never — a deadlock the watchdog reports).
     */
    static constexpr Cycle neverWakes = ~static_cast<Cycle>(0);

    /**
     * This core's wake horizon: given tick(now) has just run, the
     * earliest cycle at which another tick could do anything beyond
     * the exactly predictable per-cycle bookkeeping that
     * skipStalledCycles() folds in. Every tick at a cycle in
     * (now, nextWakeCycle(now)) is guaranteed to commit, issue,
     * dispatch and fetch nothing, touch no cache or memory state,
     * and mutate only the per-cycle statistics — so the run loop may
     * skip this core straight to the wake-up and stay bit-identical
     * to the cycle-by-cycle reference. Returns now + 1 when the core
     * is runnable next cycle and neverWakes when only an external
     * event could restart it.
     *
     * The constraints mirror tick()'s stages one for one: the LSQ
     * release queue head, the RUU head's completion (commit), the
     * issue scheduler's sleep (issueIdleUntil_), dispatch progress
     * or its RUU/LSQ structural stalls, and fetch progress or its
     * branch-redirect / I-cache stalls.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /**
     * Fold @p count skipped ticks (cycles [first, first + count))
     * into the statistics the reference loop would have recorded
     * cycle by cycle: commit width 0, the (constant) RUU occupancy,
     * and the fetch/dispatch stall counters that apply. @pre the
     * window lies strictly inside (t, nextWakeCycle(t)) of the last
     * ticked cycle t, which makes each skipped tick's effect exactly
     * this fold.
     */
    void skipStalledCycles(Cycle first, std::uint64_t count);

    /** What one advance() batch did (decoupled scheduler). */
    struct AdvanceResult
    {
        /** Horizon computed by the last executed tick. */
        Cycle nextWake = 0;
        /** First cycle not executed (last tick + 1); the pending
         * stall span for lazy folding starts here. */
        Cycle doneThrough = 0;
        /** Real ticks executed inside the batch. */
        std::uint64_t ticks = 0;
    };

    /**
     * Run this core alone from @p start until its wake horizon
     * reaches @p limit, without returning to the outer scheduler
     * between ticks. Short internal stalls (horizon still below the
     * limit) are folded via skipStalledCycles() exactly as the
     * reference loop's lazy settling would, so a batch is
     * bit-identical to ticking the same cycles one by one. The
     * caller guarantees no other core ticks in [start, limit) —
     * that is what makes the batch's uncore accesses arrive in
     * reference order — and that no telemetry sample, robustness
     * event, or run-window end lies inside the batch. @p globalNow
     * (the system clock) is updated to each executed tick's cycle
     * before the tick runs, so anything that reads the system clock
     * mid-tick (the repartition observer) sees the same value the
     * reference loop would show it.
     */
    AdvanceResult advance(Cycle start, Cycle limit, Cycle &globalNow);

    /** Instructions committed so far. */
    Counter committed() const { return committed_.value(); }

    /** Committed loads + stores (for access-intensity metrics). */
    Counter committedMemOps() const { return committedMem_.value(); }

    /** Loads satisfied by store-to-load forwarding. */
    Counter forwardedLoads() const { return forwardedLoads_.value(); }

    BranchPredictor &predictor() { return predictor_; }
    FuncUnits &funcUnits() { return funcUnits_; }

    /** Occupancy of the RUU right now (tests/inspection). */
    unsigned ruuOccupancy() const
    {
        return static_cast<unsigned>(ruu_.size());
    }
    /** Occupancy of the LSQ right now. */
    unsigned lsqOccupancy() const { return lsqInUse_; }

    /** Issue wake-ups pending in the wheel's one-cycle buckets and
     * in its overflow heap (tests/inspection). */
    std::pair<std::size_t, std::size_t>
    pendingWakeups() const
    {
        return {wakeWheel_.bucketed(), wakeWheel_.overflowed()};
    }

    /**
     * Checkpoint the pipeline: fetch queue, RUU, completion ring,
     * LSQ accounting, fetch-stall state, and the predictor and
     * functional-unit pools. The instruction source is checkpointed
     * separately by its owner. @p now is the cycle the snapshot is
     * taken at: every cycle before it has run (ticked or folded).
     */
    void checkpoint(Serializer &s, Cycle now) const;
    /** Restore a checkpoint of an identically configured core. */
    void restore(Deserializer &d);

  private:
    struct RuuEntry
    {
        SynthInst inst;
        std::uint64_t seq;
        bool issued = false;
        Cycle doneAt = 0; // valid once issued
        /**
         * Scheduler memos. Once every producer has issued, the max
         * of their completion cycles is final (done cycles never
         * change after setDoneCycle), so readyMemo caches it and the
         * dependence list is never walked again. While some producer
         * is still unissued, waitingOn remembers the first one found:
         * the entry cannot possibly become ready before that producer
         * issues, so rescans probe one done-ring slot instead of
         * walking the whole list. Derived state — deliberately not
         * checkpointed; restore leaves both invalid and the next
         * scheduler scan recomputes identical values.
         */
        Cycle readyMemo = 0;
        std::uint64_t waitingOn = 0;
        bool readyKnown = false;
        bool hasBlocker = false;
    };

    struct FetchedInst
    {
        SynthInst inst;
        std::uint64_t seq;
        Cycle fetchedAt;
    };

    /**
     * Fixed-capacity circular buffer backing the in-order pipeline
     * queues (RUU, fetch queue). The scheduler walks every live RUU
     * entry on each active cycle, so the entries sit in one
     * contiguous power-of-two array (index masking, no deque chunk
     * indirection) small enough to stay cache-resident.
     */
    template <typename Entry>
    class StageRing
    {
      public:
        void init(std::size_t capacity)
        {
            mask_ = std::bit_ceil(capacity) - 1;
            slots_.assign(mask_ + 1, Entry{});
            head_ = count_ = 0;
        }
        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }
        Entry &operator[](std::size_t i)
        {
            return slots_[(head_ + i) & mask_];
        }
        const Entry &operator[](std::size_t i) const
        {
            return slots_[(head_ + i) & mask_];
        }
        Entry &front() { return slots_[head_]; }
        const Entry &front() const { return slots_[head_]; }
        void push_back(const Entry &e)
        {
            slots_[(head_ + count_) & mask_] = e;
            ++count_;
        }
        void pop_front()
        {
            head_ = (head_ + 1) & mask_;
            --count_;
        }
        /** Drop the @p n oldest entries in one step. */
        void pop_front(std::size_t n)
        {
            head_ = (head_ + n) & mask_;
            count_ -= n;
        }
        void clear() { head_ = count_ = 0; }

      private:
        std::vector<Entry> slots_;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
        std::size_t mask_ = 0;
    };

    static constexpr Cycle notDone = ~static_cast<Cycle>(0);

    /**
     * Completion-ring capacity. Readers only ever ask about seqs in
     * the in-flight window (RUU + fetch queue) or their direct
     * producers, and readyTime() skips producers older than that
     * window (they have provably retired), so the deepest lookup is
     * 2 * (ruuSize + fetchQueueSize) behind nextSeq_. Doubling that
     * again keeps the ring far clear of the reclaim edge while small
     * enough (a few KB) to stay cache-resident — the previous fixed
     * 64 Ki-entry ring was 512 KB per core and missed on nearly
     * every lookup.
     */
    static std::size_t doneRingSlots(const OooCoreParams &p)
    {
        return std::bit_ceil(std::size_t{4} *
                             (p.ruuSize + p.fetchQueueSize));
    }

    Cycle doneCycleOf(std::uint64_t seq) const
    {
        // Ring indexing is masked (never out of bounds); the
        // debug-only check guards against reading a slot a younger
        // instruction has already reclaimed, which would silently
        // return the wrong completion cycle.
        debug_panic_if(seq >= nextSeq_ ||
                           nextSeq_ - seq > doneRing_.size(),
                       "completion-ring lookup outside the live "
                       "window");
        return doneRing_[seq & doneRingMask_];
    }
    void
    setDoneCycle(std::uint64_t seq, Cycle c)
    {
        doneRing_[seq & doneRingMask_] = c;
    }

    void releaseLsqSlots(Cycle now);
    void commitStage(Cycle now);
    void issueStage(Cycle now);
    void dispatchStage(Cycle now);
    /** @tparam Profiled time each source_.next() (sampled ticks). */
    template <bool Profiled>
    void fetchStage(Cycle now);

    /** Scheduler slot of a sequence number. Live RUU seqs span a
     * window no wider than the RUU, so slots are collision-free. */
    std::size_t slotOf(std::uint64_t seq) const
    {
        return static_cast<std::size_t>(seq) & schedMask_;
    }
    static void
    setBit(std::vector<std::uint64_t> &m, std::size_t s)
    {
        m[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
    static void
    clearBit(std::vector<std::uint64_t> &m, std::size_t s)
    {
        m[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }

    /**
     * Sort an unissued entry into the scheduler: ready set when its
     * operands resolved at or before @p now, wake wheel when they
     * resolve at a known future cycle, the blocking producer's
     * waiter list while a producer has not issued (its completion
     * cycle is unknowable until it does).
     */
    void classifyForIssue(RuuEntry &entry, Cycle now);

    /** Reclassify the waiters parked on @p slot's entry after it
     * issued. Register consumers land in the wheel (or on another
     * blocker) — the issuer completes no earlier than next cycle.
     * Store-blocked loads re-enter the ready set at once, at a
     * strictly greater circular distance than the issuing store,
     * so the current issue walk still visits them. */
    void wakeDependents(std::size_t slot, Cycle now);

    /** Rebuild every scheduler structure from the RUU (after a
     * checkpoint restore). */
    void rebuildScheduler(Cycle now);

    /** Scheduler slot of the oldest unissued store older than the
     * entry at RUU index @p ruu_index (conservative load
     * disambiguation), or noSlot if every older store has issued. */
    std::uint32_t olderUnissuedStoreSlot(std::size_t ruu_index) const;

    /**
     * Earliest cycle the entry's register dependences are all
     * resolved, or nullopt while a producer has not issued yet (its
     * completion time is unknown); in that case @p blocker is set to
     * the unissued producer's sequence number.
     */
    std::optional<Cycle> readyTime(const RuuEntry &entry,
                                   std::uint64_t &blocker) const;

    /**
     * Find an older in-flight store writing the same 8-byte word as
     * the load at RUU index @p idx. @return true if forwarding
     * applies.
     */
    bool forwardingStore(std::size_t idx) const;

    CoreId id_;
    OooCoreParams params_;
    MemorySystem &mem_;
    InstSource &source_;

    StageRing<FetchedInst> fetchQueue_;
    StageRing<RuuEntry> ruu_;
    std::size_t doneRingMask_;
    std::vector<Cycle> doneRing_;

    std::uint64_t nextSeq_ = 0;
    unsigned lsqInUse_ = 0;
    std::priority_queue<Cycle, std::vector<Cycle>,
                        std::greater<Cycle>>
        lsqReleases_;

    /**
     * Scheduler sleep optimization: the issue stage is skipped until
     * this cycle. Set from the wake wheel's minimum when a walk
     * issues nothing and invalidated to "now" by commits,
     * dispatches, issues, and functional-unit contention.
     */
    Cycle issueIdleUntil_ = 0;

    /**
     * issueIdleUntil_ as a core that ran every empty issue pass
     * would hold it at cycle @p now. nextWakeCycle derives the issue
     * wake-up from the ready set and the wheel instead of waking for
     * those passes, so the stored value can lag; checkpoints write
     * this one, which keeps their bytes independent of that.
     */
    Cycle issueIdleForCheckpoint(Cycle now) const;

    /**
     * Event-driven issue scheduler. All four structures are derived
     * state keyed by slotOf(seq): none is checkpointed, and restore
     * sets schedNeedsRebuild_ so the next issue walk reconstructs
     * them from the RUU. The walk therefore touches only entries
     * that are ready (readySet_) or became ready this cycle
     * (wakeWheel_ drain) instead of scanning the whole window.
     */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};
    std::size_t schedMask_ = 0;
    /** Bit per slot: operands resolved, not yet issued. */
    std::vector<std::uint64_t> readySet_;
    /** Bit per slot: an unissued store (blocks younger loads). */
    std::vector<std::uint64_t> unissuedStores_;
    /** Intrusive waiter lists: depHead_[b] chains (via depNext_)
     * the slots blocked on the unissued producer in slot b — both
     * register consumers awaiting its completion time and ready
     * loads parked behind it while it is an unissued store. */
    std::vector<std::uint32_t> depHead_;
    std::vector<std::uint32_t> depNext_;

    /**
     * Calendar wheel of the entries whose operands resolve at a
     * known future cycle: 64 one-cycle buckets, each a slot bitmask
     * as wide as readySet_, an occupancy word with one bit per
     * non-empty bucket, and a small min-heap for ready cycles 64 or
     * more cycles past the last drain. A drain only ever ORs bits
     * into readySet_, so the order of wake-ups inside a cycle never
     * mattered and buckets need not keep one.
     */
    class WakeWheel
    {
      public:
        /** Size for a scheduler of @p words ready-set words. */
        void init(std::size_t words);
        /** Forget every wake-up; the window restarts after @p now. */
        void reset(Cycle now);
        /** Schedule @p slot to become ready at cycle @p ready.
         * @pre ready is past the last drain (or reset) */
        void add(Cycle ready, std::size_t slot);
        /** OR every slot ready at or before @p now into @p ready. */
        void drainInto(std::vector<std::uint64_t> &ready, Cycle now);
        /** Earliest pending ready cycle, or notDone if none. */
        Cycle earliest() const;
        /** Pending wake-ups in the buckets / in the overflow heap. */
        std::size_t bucketed() const;
        std::size_t overflowed() const { return overflow_.size(); }

      private:
        static constexpr unsigned buckets = 64;
        std::size_t words_ = 0;
        /** buckets x words_ slot bits; bucket b holds cycle c with
         * c % 64 == b and c in (drained_, drained_ + 64]. */
        std::vector<std::uint64_t> slots_;
        std::uint64_t occupied_ = 0;
        /** Every wake-up at or before this cycle has been drained. */
        Cycle drained_ = 0;
        /** (ready cycle, slot) beyond the buckets' window. */
        std::priority_queue<std::pair<Cycle, std::uint32_t>,
                            std::vector<std::pair<Cycle, std::uint32_t>>,
                            std::greater<>>
            overflow_;
    };
    WakeWheel wakeWheel_;
    bool schedNeedsRebuild_ = false;

    /**
     * Counting filter over the 8-byte words written by stores
     * currently in the RUU (hashed; counts, so collisions and
     * duplicates are exact). forwardingStore() only pays its
     * window scan when the load's word hashes to a non-zero count —
     * with disjoint per-core heaps, load/store word collisions are
     * rare, so nearly every load skips the scan. Derived state:
     * maintained at dispatch/commit, rebuilt on restore, never
     * checkpointed. A zero count proves no matching store exists;
     * a non-zero count falls back to the exact scan, so the filter
     * never changes an outcome.
     */
    static constexpr std::size_t storeFilterSlots = 1u << 11;
    static std::size_t
    storeFilterSlot(Addr word)
    {
        return static_cast<std::size_t>(
                   (word * 0x9e3779b97f4a7c15ull) >> 32) &
               (storeFilterSlots - 1);
    }
    std::vector<std::uint16_t> storeFilter_;

    /** Branch the fetch unit is stalled on, if any. */
    std::optional<std::uint64_t> fetchStallSeq_;
    /** Cycle the pending I-cache miss completes. */
    Cycle icacheReadyAt_ = 0;
    /** Instruction fetched from the source but not yet queued. */
    std::optional<SynthInst> pendingFetch_;
    /** Last instruction cache line fetched. */
    Addr lastFetchLine_ = ~static_cast<Addr>(0);

    stats::Group statsGroup_;
    BranchPredictor predictor_;
    FuncUnits funcUnits_;
    stats::Scalar committed_;
    stats::Scalar committedMem_;
    stats::Scalar fetchStallCycles_;
    stats::Scalar ruuFullStalls_;
    stats::Scalar lsqFullStalls_;
    stats::Scalar forwardedLoads_;
    /** RUU occupancy sampled once per cycle. */
    stats::Distribution ruuOccupancyDist_;
    /** Instructions committed per cycle (IPC shape). */
    stats::Distribution commitWidthDist_;
};

} // namespace nuca

#endif // NUCA_CPU_OOO_CORE_HH
