#include "cache/mshr.hh"

#include <algorithm>

#include "base/logging.hh"
#include "serialize/serializer.hh"

namespace nuca {

MshrFile::MshrFile(stats::Group &parent, const std::string &name,
                   unsigned entries)
    : capacity_(entries),
      statsGroup_(parent, name),
      allocations_(statsGroup_, "allocations",
                   "primary misses that allocated an entry"),
      merges_(statsGroup_, "merges",
              "secondary misses merged into an in-flight miss"),
      fullStalls_(statsGroup_, "full_stalls",
                  "misses delayed because all entries were busy")
{
    fatal_if(capacity_ == 0, "MSHR file '", name, "' with no entries");
    entries_.reserve(capacity_);
}

void
MshrFile::recomputeNextReady()
{
    nextReady_ = ~static_cast<Cycle>(0);
    for (const auto &e : entries_) {
        if (!e.reserved)
            nextReady_ = std::min(nextReady_, e.ready);
    }
}

void
MshrFile::prune(Cycle now)
{
    // nextReady_ is the exact minimum ready cycle over completed
    // entries, so nothing is prunable before it: the common case
    // (an access stream hitting a still-filling miss window) skips
    // the erase_if scan entirely.
    if (nextReady_ > now)
        return;
    std::erase_if(entries_, [now](const Entry &e) {
        return !e.reserved && e.ready <= now;
    });
    recomputeNextReady();
}

Cycle
MshrFile::lookup(Addr block_addr, Cycle now)
{
    prune(now);
    for (const auto &e : entries_) {
        if (e.blockAddr == block_addr) {
            ++merges_;
            // A reserved entry whose completion is still being
            // computed cannot be merged into meaningfully; the
            // caller never issues two misses for one block within
            // the same reserve/complete window.
            panic_if(e.reserved, "merge into an incomplete MSHR entry");
            return e.ready;
        }
    }
    return 0;
}

Cycle
MshrFile::reserve(Addr block_addr, Cycle now)
{
    prune(now);
    Cycle start = now;
    if (entries_.size() >= capacity_) {
        // Structural stall: wait for the earliest in-flight miss.
        Cycle earliest = 0;
        std::size_t idx = entries_.size();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].reserved)
                continue;
            if (idx == entries_.size() ||
                entries_[i].ready < earliest) {
                earliest = entries_[i].ready;
                idx = i;
            }
        }
        panic_if(idx == entries_.size(),
                 "MSHR file full of incomplete reservations");
        start = std::max(start, earliest);
        entries_.erase(entries_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        recomputeNextReady();
        ++fullStalls_;
    }
    ++allocations_;
    entries_.push_back(Entry{block_addr, 0, now, true});
    return start;
}

void
MshrFile::complete(Addr block_addr, Cycle ready)
{
    for (auto &e : entries_) {
        if (e.reserved && e.blockAddr == block_addr) {
            e.reserved = false;
            e.ready = ready;
            nextReady_ = std::min(nextReady_, ready);
            return;
        }
    }
    panic("MSHR complete() without a matching reservation");
}

unsigned
MshrFile::inFlight(Cycle now)
{
    prune(now);
    return static_cast<unsigned>(entries_.size());
}

Cycle
MshrFile::oldestAge(Cycle now)
{
    prune(now);
    Cycle oldest = now;
    for (const auto &e : entries_)
        oldest = std::min(oldest, e.issued);
    return now - oldest;
}

void
MshrFile::checkInvariants() const
{
    panic_if(entries_.size() > capacity_,
             "MSHR occupancy ", entries_.size(),
             " exceeds the file's ", capacity_, " entries");
    for (std::size_t a = 0; a < entries_.size(); ++a) {
        panic_if(entries_[a].reserved && entries_[a].ready != 0,
                 "reserved MSHR entry already carries a ready cycle");
        panic_if(!entries_[a].reserved && entries_[a].ready == 0,
                 "completed MSHR entry without a ready cycle");
        for (std::size_t b = a + 1; b < entries_.size(); ++b) {
            panic_if(entries_[a].blockAddr == entries_[b].blockAddr,
                     "duplicate MSHR entries for one block: "
                     "secondary misses must merge, not allocate");
        }
    }
}

void
MshrFile::injectLeak(Cycle now)
{
    // The sentinel block address sits far above any address the
    // synthetic workloads generate, so the leak never merges with
    // (or blocks) a real miss — it only occupies an entry forever.
    entries_.push_back(Entry{~static_cast<Addr>(0), 0, now, true});
    warn("fault injection: leaked one MSHR entry at cycle ", now);
}

void
MshrFile::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("MSHR"));
    s.putU64(entries_.size());
    for (const auto &e : entries_) {
        s.putU64(e.blockAddr);
        s.putU64(e.ready);
        s.putU64(e.issued);
        s.putBool(e.reserved);
    }
}

void
MshrFile::restore(Deserializer &d)
{
    d.expectTag(fourcc("MSHR"), "MSHR file");
    const auto n = d.getU64();
    entries_.clear();
    entries_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Entry e;
        e.blockAddr = d.getU64();
        e.ready = d.getU64();
        e.issued = d.getU64();
        e.reserved = d.getBool();
        entries_.push_back(e);
    }
    recomputeNextReady();
}

} // namespace nuca
