#include "cache/tlb.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/logging.hh"
#include "serialize/serializer.hh"

namespace nuca {

namespace {

/** Fibonacci multiplicative hash spread over the slot range. */
inline std::size_t
hashPage(Addr page, std::size_t mask)
{
    return static_cast<std::size_t>(
               (page * 0x9e3779b97f4a7c15ull) >> 32) &
           mask;
}

} // namespace

Tlb::Tlb(stats::Group &parent, const std::string &name,
         unsigned entries, Cycle miss_penalty)
    : capacity_(entries),
      missPenalty_(miss_penalty),
      statsGroup_(parent, name),
      accesses_(statsGroup_, "accesses", "translations requested"),
      misses_(statsGroup_, "misses", "translations that missed")
{
    fatal_if(capacity_ == 0, "TLB '", name, "' with no entries");
    const std::size_t slots =
        std::bit_ceil(static_cast<std::size_t>(capacity_) * 2);
    pages_.assign(slots, 0);
    stamps_.assign(slots, 0);
    prev_.assign(slots, npos);
    next_.assign(slots, npos);
    slotMask_ = slots - 1;
}

std::size_t
Tlb::findSlot(Addr page) const
{
    std::size_t i = hashPage(page, slotMask_);
    while (stamps_[i] != 0 && pages_[i] != page)
        i = (i + 1) & slotMask_;
    return i;
}

void
Tlb::unlink(std::size_t slot)
{
    const std::uint32_t p = prev_[slot];
    const std::uint32_t n = next_[slot];
    if (p != npos)
        next_[p] = n;
    else
        head_ = n;
    if (n != npos)
        prev_[n] = p;
    else
        tail_ = p;
}

void
Tlb::linkHead(std::size_t slot)
{
    const auto s = static_cast<std::uint32_t>(slot);
    prev_[slot] = npos;
    next_[slot] = head_;
    if (head_ != npos)
        prev_[head_] = s;
    else
        tail_ = s;
    head_ = s;
}

std::size_t
Tlb::insert(Addr page, std::uint64_t stamp)
{
    const std::size_t i = findSlot(page);
    pages_[i] = page;
    stamps_[i] = stamp;
    linkHead(i);
    ++size_;
    return i;
}

void
Tlb::eraseSlot(std::size_t slot)
{
    // Linear-probe deletion: clear the slot, then re-place every
    // entry of the chain behind it so no lookup loses its target.
    // An entry that moves keeps its recency-list position — only
    // its neighbours' slot indices are patched.
    unlink(slot);
    stamps_[slot] = 0;
    --size_;
    std::size_t i = (slot + 1) & slotMask_;
    while (stamps_[i] != 0) {
        const Addr page = pages_[i];
        const std::uint64_t stamp = stamps_[i];
        stamps_[i] = 0;
        const std::size_t dest = findSlot(page);
        if (dest != i) {
            pages_[dest] = page;
            stamps_[dest] = stamp;
            const std::uint32_t p = prev_[i];
            const std::uint32_t n = next_[i];
            prev_[dest] = p;
            next_[dest] = n;
            const auto d = static_cast<std::uint32_t>(dest);
            if (p != npos)
                next_[p] = d;
            else
                head_ = d;
            if (n != npos)
                prev_[n] = d;
            else
                tail_ = d;
        } else {
            stamps_[i] = stamp;
        }
        i = (i + 1) & slotMask_;
    }
}

Cycle
Tlb::translateProbe(Addr page)
{
    const std::size_t slot = findSlot(page);
    if (stamps_[slot] != 0) {
        stamps_[slot] = ++stampCounter_;
        if (head_ != static_cast<std::uint32_t>(slot)) {
            unlink(slot);
            linkHead(slot);
        }
        lastPage_ = page;
        lastSlot_ = slot;
        return 0;
    }

    ++misses_;
    if (size_ >= capacity_) {
        // Evict the LRU entry: the recency-list tail, which holds
        // the minimum use stamp by construction.
        eraseSlot(tail_);
    }
    lastSlot_ = insert(page, ++stampCounter_);
    lastPage_ = page;
    return missPenalty_;
}

void
Tlb::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("TLB "));
    s.putU64(stampCounter_);
    // Emit entries sorted by page number so the encoded bytes are a
    // deterministic function of the TLB contents, independent of the
    // probe layout.
    std::vector<std::pair<Addr, std::uint64_t>> sorted;
    sorted.reserve(size_);
    for (std::size_t i = 0; i <= slotMask_; ++i) {
        if (stamps_[i] != 0)
            sorted.emplace_back(pages_[i], stamps_[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    s.putU64(sorted.size());
    auto w = s.record(sorted.size() * 16);
    for (const auto &[page, stamp] : sorted) {
        w.putU64(page);
        w.putU64(stamp);
    }
}

void
Tlb::restore(Deserializer &d)
{
    d.expectTag(fourcc("TLB "), "TLB");
    stampCounter_ = d.getU64();
    const auto n = d.getU64();
    if (n > capacity_)
        throw CheckpointError("TLB checkpoint exceeds capacity");
    auto r = d.record(n * 16); // (page, stamp) pairs
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(prev_.begin(), prev_.end(), npos);
    std::fill(next_.begin(), next_.end(), npos);
    head_ = tail_ = npos;
    size_ = 0;
    lastPage_ = ~Addr{0};
    lastSlot_ = 0;
    // Entries arrive sorted by page; place them all, then rebuild
    // the recency list in descending stamp order so the list again
    // mirrors the stamps (insert() links at the head, which would
    // encode page order instead).
    std::vector<std::pair<std::uint64_t, std::size_t>> byStamp;
    byStamp.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr page = r.getU64();
        const auto stamp = r.getU64();
        byStamp.emplace_back(stamp, insert(page, stamp));
    }
    std::fill(prev_.begin(), prev_.end(), npos);
    std::fill(next_.begin(), next_.end(), npos);
    head_ = tail_ = npos;
    std::sort(byStamp.begin(), byStamp.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    for (const auto &[stamp, slot] : byStamp) {
        (void)stamp;
        // Append at the tail: head stays the largest stamp.
        prev_[slot] = tail_;
        next_[slot] = npos;
        const auto s = static_cast<std::uint32_t>(slot);
        if (tail_ != npos)
            next_[tail_] = s;
        else
            head_ = s;
        tail_ = s;
    }
}

} // namespace nuca
