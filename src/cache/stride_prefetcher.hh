/**
 * @file
 * A PC-indexed stride prefetcher (extension substrate; the paper's
 * configuration has none, so it defaults off). Detects constant
 * strides per load PC and, once confident, predicts the next blocks.
 * Used at the L2 boundary: predictions are fetched into the L2 so
 * demand misses find them there.
 *
 * Interaction with the partitioning scheme is the interesting part:
 * prefetches inflate a core's L3/memory traffic and can pollute,
 * which is exactly the behaviour the quota mechanism bounds — see
 * `nuca_figures ext_prefetch`.
 */

#ifndef NUCA_CACHE_STRIDE_PREFETCHER_HH
#define NUCA_CACHE_STRIDE_PREFETCHER_HH

#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace nuca {

/** Sizing of the stride prefetcher. */
struct StridePrefetcherParams
{
    /** Reference-prediction-table entries (direct-mapped by PC). */
    unsigned tableEntries = 64;
    /** Blocks prefetched ahead once a stride is confident. */
    unsigned degree = 2;
    /** Consecutive stride confirmations required before issuing. */
    unsigned confidenceThreshold = 2;
    /**
     * Jouppi-style stream detection keyed by address zone (64 KB),
     * complementing the PC table: catches sequential streams whose
     * accesses come from many PCs (common in both real unrolled
     * loops and this repository's synthetic streams).
     */
    bool zoneStreams = true;
    unsigned zoneEntries = 16;
};

/** Classic reference-prediction-table stride prefetcher. */
class StridePrefetcher
{
  public:
    StridePrefetcher(stats::Group &parent, const std::string &name,
                     const StridePrefetcherParams &params);

    /**
     * Observe a demand load.
     * @return block-aligned addresses to prefetch (empty until the
     *         PC's stride is confident).
     */
    std::vector<Addr> observe(Addr pc, Addr addr);

    Counter trainings() const { return trainings_.value(); }
    Counter predictions() const { return predictions_.value(); }

    /** Checkpoint the PC table, zone table, and allocation filter. */
    void checkpoint(Serializer &s) const;
    /** Restore a checkpoint of an identically sized prefetcher. */
    void restore(Deserializer &d);

  private:
    struct Entry
    {
        Addr pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        bool valid = false;
    };

    struct ZoneEntry
    {
        Addr zone = 0;
        Addr lastBlock = 0;
        unsigned runLength = 0;
        bool valid = false;
    };

    /** Feed the zone-based stream detector; appends targets. */
    void observeZone(Addr addr, std::vector<Addr> &out);

    StridePrefetcherParams params_;
    std::vector<Entry> table_;
    std::vector<ZoneEntry> zones_;
    /** Allocation filter: a zone entry is only allocated once two
     * consecutive blocks have been seen back to back (keeps random
     * traffic from churning the small zone table). */
    Addr lastBlockSeen_ = ~static_cast<Addr>(0);

    stats::Group statsGroup_;
    stats::Scalar trainings_;
    stats::Scalar predictions_;
};

} // namespace nuca

#endif // NUCA_CACHE_STRIDE_PREFETCHER_HH
