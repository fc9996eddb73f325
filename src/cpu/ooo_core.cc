#include "cpu/ooo_core.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/profiler.hh"

namespace nuca {

OooCore::OooCore(stats::Group &parent, const std::string &name,
                 CoreId id, const OooCoreParams &params,
                 MemorySystem &mem, InstSource &source)
    : id_(id),
      params_(params),
      mem_(mem),
      source_(source),
      doneRingMask_(doneRingSlots(params) - 1),
      doneRing_(doneRingMask_ + 1, 0),
      statsGroup_(parent, name),
      predictor_(statsGroup_, "bpred", params.predictor),
      funcUnits_(statsGroup_, "fu", params.funcUnits),
      committed_(statsGroup_, "committed_insts",
                 "instructions committed"),
      committedMem_(statsGroup_, "committed_mem_ops",
                    "loads and stores committed"),
      fetchStallCycles_(statsGroup_, "fetch_stall_cycles",
                        "cycles fetch was stalled on a mispredicted "
                        "branch or an I-cache miss"),
      ruuFullStalls_(statsGroup_, "ruu_full_stalls",
                     "dispatch attempts blocked by a full RUU"),
      lsqFullStalls_(statsGroup_, "lsq_full_stalls",
                     "dispatch attempts blocked by a full LSQ"),
      forwardedLoads_(statsGroup_, "forwarded_loads",
                      "loads satisfied by store-to-load forwarding"),
      ruuOccupancyDist_(statsGroup_, "ruu_occupancy",
                        "RUU entries in use, sampled per cycle", 0,
                        132, 12),
      commitWidthDist_(statsGroup_, "commit_width",
                       "instructions committed per cycle", 0, 5, 1)
{
    fatal_if(params_.ruuSize == 0 || params_.lsqSize == 0 ||
                 params_.fetchQueueSize == 0,
             "core structures must be non-empty");
    ruu_.init(params_.ruuSize);
    fetchQueue_.init(params_.fetchQueueSize);
    schedMask_ =
        std::bit_ceil(static_cast<std::size_t>(params_.ruuSize)) - 1;
    const std::size_t words = (schedMask_ + 64) / 64;
    readySet_.assign(words, 0);
    unissuedStores_.assign(words, 0);
    depHead_.assign(schedMask_ + 1, noSlot);
    depNext_.assign(schedMask_ + 1, noSlot);
    wakeWheel_.init(words);
    storeFilter_.assign(storeFilterSlots, 0);
    (void)id_;
}

void
OooCore::tick(Cycle now)
{
    // One sampling decision per tick, hoisted over the stage scopes
    // so the profiler costs one branch per tick when off and five
    // clock reads per 2^shift ticks when on.
    const bool profTick = prof::samplePoint(prof::Phase::CoreTick);
    prof::MaybeScope profWhole(profTick, prof::Phase::CoreTick);

    releaseLsqSlots(now);
    const Counter committed_before = committed_.value();
    {
        prof::MaybeScope s(profTick, prof::Phase::CommitStage);
        commitStage(now);
    }
    commitWidthDist_.sample(committed_.value() - committed_before);
    ruuOccupancyDist_.sample(ruu_.size());
    {
        prof::MaybeScope s(profTick, prof::Phase::IssueStage);
        issueStage(now);
    }
    {
        prof::MaybeScope s(profTick, prof::Phase::DispatchStage);
        dispatchStage(now);
    }
    {
        prof::MaybeScope s(profTick, prof::Phase::FetchStage);
        // The sampling decision picks the fetch loop, so an
        // unprofiled tick pays no per-instruction profiler branch.
        if (profTick)
            fetchStage<true>(now);
        else
            fetchStage<false>(now);
    }
}

Cycle
OooCore::nextWakeCycle(Cycle now) const
{
    const Cycle soonest = now + 1;

    // Fast paths first: every wake source below is clamped to at
    // least `soonest`, so a stage that can make progress next cycle
    // makes computing the others pointless. A busy core leaves
    // through one of these two checks, which keeps the per-tick cost
    // of the wake-horizon probe negligible.
    //
    // Dispatch: a non-empty fetch queue either dispatches next
    // cycle (the head was fetched at `now` at the latest) or is
    // blocked on a full RUU/LSQ, which only commits can drain.
    if (!fetchQueue_.empty()) {
        const bool ruu_blocked = ruu_.size() >= params_.ruuSize;
        const bool lsq_blocked = fetchQueue_.front().inst.isMem() &&
                                 lsqInUse_ >= params_.lsqSize;
        if (!ruu_blocked && !lsq_blocked)
            return soonest;
    }
    // Fetch with a ready I-cache, no pending redirect, and queue
    // space makes progress next cycle.
    if (!fetchStallSeq_ && icacheReadyAt_ <= now &&
        fetchQueue_.size() < params_.fetchQueueSize) {
        return soonest;
    }

    Cycle wake = neverWakes;

    // An LSQ slot release may unblock dispatch.
    if (!lsqReleases_.empty())
        wake = std::min(wake, std::max(lsqReleases_.top(), soonest));

    // Commit: the RUU head retires at its completion cycle. An
    // unissued head only starts moving when the issue scheduler
    // wakes, which the issueIdleUntil_ constraint below covers.
    if (!ruu_.empty() && ruu_.front().issued)
        wake = std::min(wake, std::max(ruu_.front().doneAt, soonest));

    // Issue: the scheduler sleeps until issueIdleUntil_ (notDone
    // means "until a commit or dispatch invalidates the sleep" —
    // and those have wake-ups of their own or cannot happen). Once
    // the sleep has lapsed, the scheduler itself says when a pass
    // can issue: next cycle if an entry is ready, else at the
    // wheel's earliest wake-up. A pass before that would issue
    // nothing and only set issueIdleUntil_ to that same cycle.
    // Until a restore's rebuild has run, the structures are stale.
    Cycle issue_wake = issueIdleUntil_;
    if (issueIdleUntil_ <= now && !schedNeedsRebuild_) {
        issue_wake = std::any_of(readySet_.begin(), readySet_.end(),
                                 [](std::uint64_t w) { return w != 0; })
                         ? soonest
                         : wakeWheel_.earliest();
    }
    wake = std::min(wake, std::max(issue_wake, soonest));

    // Fetch, mirroring fetchStage's stall chain.
    if (fetchStallSeq_) {
        const Cycle done = doneCycleOf(*fetchStallSeq_);
        // An unresolved branch (done == notDone) resolves only via
        // issue, already bounded above.
        if (done != notDone) {
            wake = std::min(
                wake,
                std::max(done + params_.mispredictPenalty, soonest));
        }
    } else if (icacheReadyAt_ > now) {
        wake = std::min(wake, icacheReadyAt_);
    }
    // A ready I-cache with no redirect pending implies a full fetch
    // queue here (the fast path above returned otherwise); that
    // drains via dispatch, covered by the wake-ups already taken.

    return wake;
}

void
OooCore::skipStalledCycles(Cycle first, std::uint64_t count)
{
    if (count == 0)
        return;
    // Exactly what `count` fully-stalled ticks would have recorded:
    // zero commits and an unchanged RUU occupancy each cycle...
    commitWidthDist_.sample(0, count);
    ruuOccupancyDist_.sample(ruu_.size(), count);
    // ...one dispatch structural stall per cycle while the fetch
    // queue head is blocked (RUU checked before LSQ, as in
    // dispatchStage)...
    if (!fetchQueue_.empty()) {
        if (ruu_.size() >= params_.ruuSize) {
            ruuFullStalls_ += count;
        } else if (fetchQueue_.front().inst.isMem() &&
                   lsqInUse_ >= params_.lsqSize) {
            lsqFullStalls_ += count;
        }
    }
    // ...and one fetch stall per cycle while redirect- or
    // I-cache-stalled (fetchStage's chain; a ready I-cache with a
    // full fetch queue stalls nothing).
    if (fetchStallSeq_ || icacheReadyAt_ > first)
        fetchStallCycles_ += count;
}

OooCore::AdvanceResult
OooCore::advance(Cycle start, Cycle limit, Cycle &globalNow)
{
    AdvanceResult res;
    Cycle at = start;
    for (;;) {
        globalNow = at;
        tick(at);
        ++res.ticks;
        const Cycle wake = nextWakeCycle(at);
        if (wake >= limit) {
            // Checked before any arithmetic on `wake`: neverWakes
            // (~0) + 1 would wrap to 0 and fold a bogus span.
            res.nextWake = wake;
            res.doneThrough = at + 1;
            return res;
        }
        // The stall stays inside the batch: fold it here instead of
        // bouncing back to the scheduler. The window (at, wake) is
        // exactly the one nextWakeCycle proved no-op.
        if (wake > at + 1)
            skipStalledCycles(at + 1, wake - at - 1);
        at = wake;
    }
}

void
OooCore::WakeWheel::init(std::size_t words)
{
    words_ = words;
    slots_.assign(buckets * words_, 0);
    reset(0);
}

void
OooCore::WakeWheel::reset(Cycle now)
{
    std::fill(slots_.begin(), slots_.end(), 0);
    occupied_ = 0;
    drained_ = now;
    overflow_ = {};
}

void
OooCore::WakeWheel::add(Cycle ready, std::size_t slot)
{
    debug_panic_if(ready <= drained_, "wake-up scheduled in the past");
    if (ready - drained_ > buckets) {
        overflow_.emplace(ready, static_cast<std::uint32_t>(slot));
        return;
    }
    const unsigned b = ready % buckets;
    setBit(slots_, b * words_ * 64 + slot);
    occupied_ |= std::uint64_t{1} << b;
}

void
OooCore::WakeWheel::drainInto(std::vector<std::uint64_t> &ready,
                              Cycle now)
{
    if (now <= drained_)
        return;
    // Buckets of cycles drained_ + 1 .. now: all of them once the
    // gap spans the whole wheel, else a run of `gap` buckets
    // starting at the bucket of drained_ + 1.
    const Cycle gap = now - drained_;
    std::uint64_t due = occupied_;
    if (gap < buckets) {
        due &= std::rotl((std::uint64_t{1} << gap) - 1,
                         static_cast<int>((drained_ + 1) % buckets));
    }
    occupied_ &= ~due;
    for (; due != 0; due &= due - 1) {
        std::uint64_t *bucket =
            &slots_[static_cast<std::size_t>(std::countr_zero(due)) *
                    words_];
        for (std::size_t w = 0; w < words_; ++w) {
            ready[w] |= bucket[w];
            bucket[w] = 0;
        }
    }
    drained_ = now;
    // The window moved: overflow wake-ups now within reach enter
    // their buckets, and any already due go straight to the ready
    // set.
    while (!overflow_.empty() &&
           overflow_.top().first <= now + buckets) {
        const auto [at, slot] = overflow_.top();
        overflow_.pop();
        if (at <= now)
            setBit(ready, slot);
        else
            add(at, slot);
    }
}

Cycle
OooCore::WakeWheel::earliest() const
{
    if (occupied_ != 0) {
        const auto first = static_cast<int>((drained_ + 1) % buckets);
        return drained_ + 1 +
               static_cast<Cycle>(
                   std::countr_zero(std::rotr(occupied_, first)));
    }
    return overflow_.empty() ? notDone : overflow_.top().first;
}

std::size_t
OooCore::WakeWheel::bucketed() const
{
    std::size_t n = 0;
    for (const auto word : slots_)
        n += static_cast<std::size_t>(std::popcount(word));
    return n;
}

void
OooCore::releaseLsqSlots(Cycle now)
{
    while (!lsqReleases_.empty() && lsqReleases_.top() <= now) {
        lsqReleases_.pop();
        panic_if(lsqInUse_ == 0, "LSQ release underflow");
        --lsqInUse_;
    }
}

std::optional<Cycle>
OooCore::readyTime(const RuuEntry &entry, std::uint64_t &blocker) const
{
    Cycle ready = 0;
    for (const auto dist : entry.inst.depDist) {
        if (dist == 0)
            continue;
        if (dist > entry.seq)
            continue; // producer predates the simulation
        if (dist > params_.ruuSize + params_.fetchQueueSize) {
            // The producer is older than anything that can still be
            // in flight (commit is in order), so it retired — and
            // completed — before this instruction was even fetched.
            // It imposes no readiness constraint, and its ring slot
            // may already be reclaimed, so don't read it.
            continue;
        }
        const Cycle done = doneCycleOf(entry.seq - dist);
        if (done == notDone) {
            blocker = entry.seq - dist; // producer not issued yet
            return std::nullopt;
        }
        ready = std::max(ready, done);
    }
    return ready;
}

bool
OooCore::forwardingStore(std::size_t idx) const
{
    const Addr word = ruu_[idx].inst.effAddr >> 3;
    // No store in the whole window touches this word's filter slot:
    // the scan cannot find a source.
    if (storeFilter_[storeFilterSlot(word)] == 0)
        return false;
    // Walk younger-to-older from the load towards the RUU head; the
    // youngest older store to the word is the forwarding source.
    for (std::size_t i = idx; i-- > 0;) {
        const auto &e = ruu_[i];
        if (e.inst.isStore() && (e.inst.effAddr >> 3) == word)
            return true;
    }
    return false;
}

void
OooCore::commitStage(Cycle now)
{
    // Batch retirement: count the completed head entries, do their
    // per-instruction bookkeeping, and drain them with one ring
    // adjustment and one pass over the counters.
    unsigned n = 0;
    while (n < params_.commitWidth && n < ruu_.size()) {
        const auto &head = ruu_[n];
        if (!head.issued || head.doneAt > now)
            break;
        if (head.inst.isStore()) {
            // The store writes the cache at commit; its LSQ slot is
            // held until the write completes.
            const Cycle written =
                mem_.dataAccess(head.inst.effAddr, true, now);
            lsqReleases_.push(written);
            --storeFilter_[storeFilterSlot(head.inst.effAddr >> 3)];
            ++committedMem_;
        } else if (head.inst.isLoad()) {
            panic_if(lsqInUse_ == 0, "load commit without LSQ slot");
            --lsqInUse_;
            ++committedMem_;
        }
        ++n;
    }
    if (n > 0) {
        committed_ += n;
        ruu_.pop_front(n);
        issueIdleUntil_ = now; // freed RUU/LSQ space wakes dispatch
    }
}

void
OooCore::classifyForIssue(RuuEntry &e, Cycle now)
{
    std::optional<Cycle> ready;
    if (e.readyKnown) {
        ready = e.readyMemo;
    } else if (e.hasBlocker && doneCycleOf(e.waitingOn) == notDone) {
        // The remembered producer still has not issued; the entry
        // cannot have become ready since it was last classified.
    } else if ((ready = readyTime(e, e.waitingOn))) {
        e.readyMemo = *ready;
        e.readyKnown = true;
        e.hasBlocker = false;
    } else {
        e.hasBlocker = true;
    }

    const std::size_t slot = slotOf(e.seq);
    if (!ready) {
        // Park on the unissued producer; its issue reclassifies us.
        depNext_[slot] = depHead_[slotOf(e.waitingOn)];
        depHead_[slotOf(e.waitingOn)] =
            static_cast<std::uint32_t>(slot);
    } else if (*ready > now) {
        wakeWheel_.add(*ready, slot);
    } else {
        setBit(readySet_, slot);
    }
}

void
OooCore::wakeDependents(std::size_t slot, Cycle now)
{
    std::uint32_t w = depHead_[slot];
    if (w == noSlot)
        return;
    depHead_[slot] = noSlot;
    const std::size_t front_slot = slotOf(ruu_.front().seq);
    while (w != noSlot) {
        const std::uint32_t next = depNext_[w];
        depNext_[w] = noSlot;
        const std::size_t idx = (w - front_slot) & schedMask_;
        debug_panic_if(idx >= ruu_.size() || ruu_[idx].issued,
                       "waiter list names a dead scheduler slot");
        classifyForIssue(ruu_[idx], now);
        w = next;
    }
}

void
OooCore::rebuildScheduler(Cycle now)
{
    std::fill(readySet_.begin(), readySet_.end(), 0);
    std::fill(unissuedStores_.begin(), unissuedStores_.end(), 0);
    std::fill(depHead_.begin(), depHead_.end(), noSlot);
    std::fill(depNext_.begin(), depNext_.end(), noSlot);
    wakeWheel_.reset(now);
    for (std::size_t i = 0; i < ruu_.size(); ++i) {
        auto &e = ruu_[i];
        if (e.issued)
            continue;
        if (e.inst.isStore())
            setBit(unissuedStores_, slotOf(e.seq));
        classifyForIssue(e, now);
    }
    schedNeedsRebuild_ = false;
}

std::uint32_t
OooCore::olderUnissuedStoreSlot(std::size_t ruu_index) const
{
    // The older entries occupy `ruu_index` consecutive slots
    // (mod the slot count) starting at the RUU head's slot; test
    // the store mask word by word and return the first (oldest)
    // match.
    std::size_t pos = slotOf(ruu_.front().seq);
    std::size_t remaining = ruu_index;
    while (remaining > 0) {
        const unsigned bit = pos & 63;
        const std::size_t span = std::min(
            {std::size_t{64} - bit, remaining, schedMask_ + 1 - pos});
        const std::uint64_t field =
            span == 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << span) - 1) << bit;
        const std::uint64_t hit = unissuedStores_[pos >> 6] & field;
        if (hit != 0) {
            return static_cast<std::uint32_t>(
                ((pos >> 6) << 6) |
                static_cast<unsigned>(std::countr_zero(hit)));
        }
        pos = (pos + span) & schedMask_;
        remaining -= span;
    }
    return noSlot;
}

void
OooCore::issueStage(Cycle now)
{
    if (now < issueIdleUntil_)
        return;
    if (schedNeedsRebuild_)
        rebuildScheduler(now);

    // Drain every entry whose operands resolve at or before `now`
    // into the ready set. Wheel records always name live unissued
    // entries: an entry cannot issue before its ready cycle arrives,
    // and cannot commit before issuing.
    wakeWheel_.drainInto(readySet_, now);

    unsigned budget = params_.issueWidth;
    unsigned issued_count = 0;
    bool fu_blocked = false;

    if (!ruu_.empty()) {
        // Walk the ready candidates in program order (ascending
        // circular distance from the RUU head), so the functional-
        // unit claim sequence matches a full oldest-first window
        // scan. Walking the bitmap words circularly starting at the
        // head's slot visits the distances already sorted: first the
        // head word's bits at or above the head, then the following
        // words, then the wrapped-around words, then the head word's
        // bits below the head.
        //
        // The walk reads the bitmap live rather than snapshotting
        // it: issuing a store may move parked loads back into the
        // ready set, and every such wake lands at a strictly
        // greater circular distance than the store (dependences
        // point backward in program order), i.e. at a bit the walk
        // has not reached yet. Register-dependence wakes never land
        // in this pass at all — their ready cycles are strictly in
        // the future (doneAt >= now + 1). `select` masks the bits
        // of the current word still eligible this pass, so an entry
        // skipped on a structural hazard is not retried until the
        // next pass even though its ready bit stays set.
        const std::size_t front_slot = slotOf(ruu_.front().seq);
        const std::size_t words = readySet_.size();
        const std::size_t wf = front_slot >> 6;
        const unsigned bf = front_slot & 63;

        const auto processWord = [&](std::size_t w,
                                     std::uint64_t select) {
            while (budget != 0) {
                const std::uint64_t bits = readySet_[w] & select;
                if (bits == 0)
                    return;
                const auto b = static_cast<unsigned>(
                    std::countr_zero(bits));
                select &= ~(std::uint64_t{1} << b);
                const std::size_t slot = (w << 6) | b;
                const std::size_t i =
                    (slot - front_slot) & schedMask_;
                debug_panic_if(i >= ruu_.size(),
                               "ready set names a dead scheduler "
                               "slot");
                auto &e = ruu_[i];
                debug_panic_if(e.issued,
                               "issued entry still in the ready "
                               "set");
                if (e.inst.isLoad()) {
                    const std::uint32_t blk =
                        olderUnissuedStoreSlot(i);
                    if (blk != noSlot) {
                        // Loads wait until every older store has
                        // computed its address (conservative
                        // disambiguation). Park the load on the
                        // oldest such store: its issue re-examines
                        // the load, which either becomes ready or
                        // parks on the next blocking store. Leaving
                        // it in the ready set would re-scan the
                        // store mask on every pass until the last
                        // blocker issued.
                        clearBit(readySet_, slot);
                        depNext_[slot] = depHead_[blk];
                        depHead_[blk] =
                            static_cast<std::uint32_t>(slot);
                        continue;
                    }
                }
                if (!funcUnits_.tryIssue(e.inst.op, now)) {
                    fu_blocked = true;
                    continue;
                }

                clearBit(readySet_, slot);
                if (e.inst.isStore())
                    clearBit(unissuedStores_, slot);
                e.issued = true;
                ++issued_count;
                if (e.inst.isLoad()) {
                    if (forwardingStore(i)) {
                        ++forwardedLoads_;
                        e.doneAt = now + 2;
                    } else {
                        // One cycle of address generation, then
                        // the cache.
                        e.doneAt = mem_.dataAccess(e.inst.effAddr,
                                                   false, now + 1,
                                                   e.inst.pc);
                    }
                } else {
                    // Stores are "done" once the address is
                    // computed; the write happens at commit.
                    e.doneAt = now + opLatency(e.inst.op);
                }
                setDoneCycle(e.seq, e.doneAt);
                wakeDependents(slot, now);
                --budget;
            }
        };
        processWord(wf, ~std::uint64_t{0} << bf);
        for (std::size_t w = wf + 1; w < words; ++w)
            processWord(w, ~std::uint64_t{0});
        for (std::size_t w = 0; w < wf; ++w)
            processWord(w, ~std::uint64_t{0});
        if (bf != 0)
            processWord(wf, (std::uint64_t{1} << bf) - 1);
    }

    if (issued_count == 0 && !fu_blocked) {
        // Nothing can issue before the earliest future ready cycle;
        // commits and dispatches invalidate the sleep. Store-
        // blocked loads are parked on their blocking store's waiter
        // list, so its issue re-examines them.
        issueIdleUntil_ = wakeWheel_.earliest();
    } else {
        issueIdleUntil_ = now;
    }
}

void
OooCore::dispatchStage(Cycle now)
{
    unsigned budget = params_.dispatchWidth;
    while (budget > 0 && !fetchQueue_.empty()) {
        const auto &front = fetchQueue_.front();
        if (front.fetchedAt >= now)
            break; // fetched this cycle; decodes next cycle
        if (ruu_.size() >= params_.ruuSize) {
            ++ruuFullStalls_;
            break;
        }
        if (front.inst.isMem()) {
            if (lsqInUse_ >= params_.lsqSize) {
                ++lsqFullStalls_;
                break;
            }
            ++lsqInUse_;
        }
        ruu_.push_back(RuuEntry{front.inst, front.seq, false, 0});
        auto &entry = ruu_[ruu_.size() - 1];
        if (entry.inst.isStore()) {
            setBit(unissuedStores_, slotOf(entry.seq));
            ++storeFilter_[storeFilterSlot(entry.inst.effAddr >> 3)];
        }
        classifyForIssue(entry, now);
        fetchQueue_.pop_front();
        --budget;
        issueIdleUntil_ = now; // the new entry may be ready at once
    }
}

template <bool Profiled>
void
OooCore::fetchStage(Cycle now)
{
    if (fetchStallSeq_) {
        const Cycle done = doneCycleOf(*fetchStallSeq_);
        if (done == notDone ||
            now < done + params_.mispredictPenalty) {
            ++fetchStallCycles_;
            return;
        }
        fetchStallSeq_.reset();
    }
    if (icacheReadyAt_ > now) {
        ++fetchStallCycles_;
        return;
    }

    unsigned budget = params_.fetchWidth;
    while (budget > 0 && fetchQueue_.size() < params_.fetchQueueSize) {
        if (!pendingFetch_) {
            if constexpr (Profiled) {
                prof::MaybeScope gen(true, prof::Phase::WorkloadGen);
                pendingFetch_ = source_.next();
            } else {
                pendingFetch_ = source_.next();
            }
        }
        const SynthInst &inst = *pendingFetch_;

        // Crossing into a new cache line costs an I-cache access; a
        // miss stalls fetch until the line arrives.
        const Addr line = blockAlign(inst.pc);
        if (line != lastFetchLine_) {
            const Cycle ready = mem_.instFetch(inst.pc, now);
            lastFetchLine_ = line;
            if (ready > now + mem_.l1i().hitLatency()) {
                icacheReadyAt_ = ready;
                return; // pendingFetch_ is delivered after the miss
            }
        }

        const std::uint64_t seq = nextSeq_++;
        setDoneCycle(seq, notDone);
        fetchQueue_.push_back(FetchedInst{inst, seq, now});
        pendingFetch_.reset();
        --budget;

        if (inst.isBranch()) {
            const bool correct_path = predictor_.predictAndUpdate(
                inst.pc, inst.taken, inst.target);
            if (!correct_path) {
                // Fetch resumes after the branch resolves plus the
                // redirect penalty.
                fetchStallSeq_ = seq;
                return;
            }
            if (inst.taken) {
                // Correctly predicted taken branch: the redirect
                // ends this fetch cycle.
                return;
            }
        }
    }
}

Cycle
OooCore::issueIdleForCheckpoint(Cycle now) const
{
    // nextWakeCycle skips the empty issue pass a reset sleep used to
    // cost at the following cycle. Where that pass would already have
    // run (the sleep lapsed before the last executed cycle), write
    // what it would have left: the wheel's earliest ready cycle. Any
    // earlier wake-up would have woken this core since.
    if (issueIdleUntil_ < now && now - issueIdleUntil_ > 1 &&
        !schedNeedsRebuild_)
        return wakeWheel_.earliest();
    return issueIdleUntil_;
}

void
OooCore::checkpoint(Serializer &s, Cycle now) const
{
    s.putTag(fourcc("CORE"));
    s.putU64(fetchQueue_.size());
    for (std::size_t i = 0; i < fetchQueue_.size(); ++i) {
        const auto &f = fetchQueue_[i];
        checkpointInst(s, f.inst);
        s.putU64(f.seq);
        s.putU64(f.fetchedAt);
    }
    s.putU64(ruu_.size());
    for (std::size_t i = 0; i < ruu_.size(); ++i) {
        const auto &e = ruu_[i];
        checkpointInst(s, e.inst);
        s.putU64(e.seq);
        s.putBool(e.issued);
        s.putU64(e.doneAt);
    }
    s.putVecU64(doneRing_);
    s.putU64(nextSeq_);
    s.putU32(lsqInUse_);
    // priority_queue has no iteration; drain a copy. The pops come
    // out sorted, so the encoding is deterministic.
    auto releases = lsqReleases_;
    s.putU64(releases.size());
    while (!releases.empty()) {
        s.putU64(releases.top());
        releases.pop();
    }
    s.putU64(issueIdleForCheckpoint(now));
    s.putBool(fetchStallSeq_.has_value());
    s.putU64(fetchStallSeq_.value_or(0));
    s.putU64(icacheReadyAt_);
    s.putBool(pendingFetch_.has_value());
    checkpointInst(s, pendingFetch_.value_or(SynthInst{}));
    s.putU64(lastFetchLine_);
    predictor_.checkpoint(s);
    funcUnits_.checkpoint(s);
}

void
OooCore::restore(Deserializer &d)
{
    d.expectTag(fourcc("CORE"), "out-of-order core");
    const auto fq = d.getU64();
    if (fq > params_.fetchQueueSize)
        throw CheckpointError("fetch queue overflows its capacity");
    fetchQueue_.clear();
    for (std::uint64_t i = 0; i < fq; ++i) {
        FetchedInst f;
        restoreInst(d, f.inst);
        f.seq = d.getU64();
        f.fetchedAt = d.getU64();
        fetchQueue_.push_back(f);
    }
    const auto nruu = d.getU64();
    if (nruu > params_.ruuSize)
        throw CheckpointError("RUU overflows its capacity");
    ruu_.clear();
    for (std::uint64_t i = 0; i < nruu; ++i) {
        RuuEntry e;
        restoreInst(d, e.inst);
        e.seq = d.getU64();
        e.issued = d.getBool();
        e.doneAt = d.getU64();
        ruu_.push_back(e);
    }
    d.getVecU64(doneRing_, "completion ring");
    nextSeq_ = d.getU64();
    lsqInUse_ = d.getU32();
    const auto nrel = d.getU64();
    lsqReleases_ = {};
    for (std::uint64_t i = 0; i < nrel; ++i)
        lsqReleases_.push(d.getU64());
    issueIdleUntil_ = d.getU64();
    const bool has_stall = d.getBool();
    const auto stall_seq = d.getU64();
    fetchStallSeq_ = has_stall
                         ? std::optional<std::uint64_t>(stall_seq)
                         : std::nullopt;
    icacheReadyAt_ = d.getU64();
    const bool has_pending = d.getBool();
    SynthInst pending;
    restoreInst(d, pending);
    pendingFetch_ = has_pending ? std::optional<SynthInst>(pending)
                                : std::nullopt;
    lastFetchLine_ = d.getU64();
    predictor_.restore(d);
    funcUnits_.restore(d);
    // The scheduler structures are derived state; rebuild them from
    // the restored RUU at the next issue walk (which has `now`).
    // Until then only dispatch can add wake-ups, which the rebuild
    // discards; restarting the wheel's window keeps them valid.
    wakeWheel_.reset(0);
    schedNeedsRebuild_ = true;
    // The store-word filter is likewise derived from the RUU.
    std::fill(storeFilter_.begin(), storeFilter_.end(), 0);
    for (std::size_t i = 0; i < ruu_.size(); ++i) {
        if (ruu_[i].inst.isStore())
            ++storeFilter_[storeFilterSlot(ruu_[i].inst.effAddr >> 3)];
    }
}

} // namespace nuca
