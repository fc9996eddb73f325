#include "cpu/memory_system.hh"

#include <algorithm>

#include "base/profiler.hh"
#include "cpu/coherence.hh"

namespace nuca {

MemorySystem::MemorySystem(stats::Group &parent,
                           const std::string &name, CoreId core,
                           const CoreMemoryParams &params,
                           L3Organization &l3)
    : core_(core),
      l3_(l3),
      statsGroup_(parent, name),
      l1i_(statsGroup_, "l1i", params.l1i),
      l1d_(statsGroup_, "l1d", params.l1d),
      l2i_(statsGroup_, "l2i", params.l2i),
      l2d_(statsGroup_, "l2d", params.l2d),
      itlb_(statsGroup_, "itlb", params.tlbEntries,
            params.tlbMissPenalty),
      dtlb_(statsGroup_, "dtlb", params.tlbEntries,
            params.tlbMissPenalty),
      l3DataAccesses_(statsGroup_, "l3_data_accesses",
                      "data requests sent to the L3"),
      l3InstAccesses_(statsGroup_, "l3_inst_accesses",
                      "instruction requests sent to the L3"),
      l3DataMisses_(statsGroup_, "l3_data_misses",
                    "data requests that missed in the L3"),
      prefetchesIssued_(statsGroup_, "prefetches_issued",
                        "blocks fetched into the L2 by the stride "
                        "prefetcher")
{
    if (params.enablePrefetcher) {
        prefetcher_ = std::make_unique<StridePrefetcher>(
            statsGroup_, "prefetcher", params.prefetcher);
    }
}

void
MemorySystem::issuePrefetch(Addr addr, Cycle now)
{
    if (l2d_.tags().probe(addr) || l2d_.inFlightReady(addr, now) ||
        l1d_.tags().probe(addr)) {
        return; // already covered
    }
    ++prefetchesIssued_;
    const Cycle start = l2d_.beginMiss(addr, now);
    const MemRequest req{core_, addr, MemOp::Read};
    const L3Result res =
        l3_.access(req, start + l2d_.hitLatency());
    const auto victim = l2d_.fill(addr, false, core_);
    if (victim && victim->dirty)
        l3_.writebackFromL2(core_, victim->addr, res.ready);
    l2d_.finishMiss(addr, res.ready);
}

void
MemorySystem::handleL1Victim(CacheLevel &l2,
                             const EvictedBlock &victim, Cycle now)
{
    if (!victim.dirty)
        return;
    if (l2.tags().markDirty(victim.addr))
        return;
    // The L2 lost its copy meanwhile; re-install the dirty block.
    const auto displaced = l2.fill(victim.addr, true, core_);
    if (displaced && displaced->dirty)
        l3_.writebackFromL2(core_, displaced->addr, now);
}

Cycle
MemorySystem::accessPath(CacheLevel &l1, CacheLevel &l2, MemOp op,
                         Addr addr, Cycle now)
{
    const bool is_write = op == MemOp::Write;

    // L1.
    if (const auto hit = l1.tryAccess(addr, is_write, now)) {
        // The block may still be in flight from an earlier miss.
        const Cycle inflight = l1.inFlightReady(addr, now);
        return std::max(*hit, inflight);
    }
    if (const Cycle merged = l1.inFlightReady(addr, now)) {
        // Tag was displaced while the fill is still in flight; ride
        // the outstanding miss.
        return std::max(merged, now + l1.hitLatency());
    }

    // Profile only the L1-miss walk: the L1-hit fast path above is
    // most of the simulator's cache work and a scope there would
    // cost more than it measures (see docs/OBSERVABILITY.md).
    prof::Scope profWalk(prof::Phase::CacheMissWalk);

    const Cycle miss_start = l1.beginMiss(addr, now);
    const Cycle l2_start = miss_start + l1.hitLatency();
    Cycle ready;

    // L2. Lower levels always see a read: write-allocate keeps the
    // dirtiness in the L1 until the block is displaced.
    if (const auto hit2 = l2.tryAccess(addr, false, l2_start)) {
        ready = std::max(*hit2, l2.inFlightReady(addr, l2_start));
    } else if (const Cycle merged2 = l2.inFlightReady(addr, l2_start)) {
        ready = std::max(merged2, l2_start + l2.hitLatency());
    } else {
        const Cycle miss2_start = l2.beginMiss(addr, l2_start);
        const Cycle l3_start = miss2_start + l2.hitLatency();

        const MemRequest req{core_, addr,
                             op == MemOp::Write ? MemOp::Read : op};
        L3Result res;
        {
            prof::Scope profL3(prof::Phase::L3Access);
            res = l3_.access(req, l3_start);
        }
        ready = res.ready;
        if (op == MemOp::InstFetch) {
            ++l3InstAccesses_;
        } else {
            ++l3DataAccesses_;
            if (!res.isHit())
                ++l3DataMisses_;
        }

        const auto victim2 = l2.fill(addr, false, core_);
        if (victim2 && victim2->dirty)
            l3_.writebackFromL2(core_, victim2->addr, ready);
        l2.finishMiss(addr, ready);
    }

    // Fill the L1 (critical word is forwarded, so the L1 sees the
    // data at the same cycle the L2 produces it).
    const auto victim1 = l1.fill(addr, is_write, core_);
    if (victim1)
        handleL1Victim(l2, *victim1, ready);
    l1.finishMiss(addr, ready);
    return ready;
}

Cycle
MemorySystem::dataAccess(Addr addr, bool is_write, Cycle now, Addr pc)
{
    const Cycle start = now + dtlb_.translate(addr);
    if (is_write && hub_ != nullptr)
        hub_->invalidateOthers(core_, addr, start);
    const Cycle ready = accessPath(
        l1d_, l2d_, is_write ? MemOp::Write : MemOp::Read, addr,
        start);
    if (prefetcher_ && !is_write && pc != 0) {
        for (const Addr target : prefetcher_->observe(pc, addr))
            issuePrefetch(target, start);
    }
    return ready;
}

void
MemorySystem::flushDirtyBlock(Addr addr, Cycle now)
{
    l3_.writebackFromL2(core_, addr, now);
}

Cycle
MemorySystem::instFetch(Addr addr, Cycle now)
{
    const Cycle start = now + itlb_.translate(addr);
    return accessPath(l1i_, l2i_, MemOp::InstFetch, addr, start);
}

void
MemorySystem::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("MEMS"));
    l1i_.checkpoint(s);
    l1d_.checkpoint(s);
    l2i_.checkpoint(s);
    l2d_.checkpoint(s);
    itlb_.checkpoint(s);
    dtlb_.checkpoint(s);
    s.putBool(prefetcher_ != nullptr);
    if (prefetcher_)
        prefetcher_->checkpoint(s);
}

void
MemorySystem::restore(Deserializer &d)
{
    d.expectTag(fourcc("MEMS"), "memory system");
    l1i_.restore(d);
    l1d_.restore(d);
    l2i_.restore(d);
    l2d_.restore(d);
    itlb_.restore(d);
    dtlb_.restore(d);
    const bool has_prefetcher = d.getBool();
    if (has_prefetcher != (prefetcher_ != nullptr))
        throw CheckpointError("prefetcher presence mismatch");
    if (prefetcher_)
        prefetcher_->restore(d);
}

} // namespace nuca
