/**
 * @file
 * The cross-run full-result cache: one JSON file per content key in a
 * cache directory, so a spec the daemon has already simulated is
 * answered in O(1) without spawning a worker.
 *
 * The key comes from JobSpec::resultKey() — the checkpoint layer's
 * runKey extended over scheme + mix + run length — and the stored
 * payload is the exact mixResultToJson encoding, whose exact double
 * round-trip makes a cache hit byte-identical to the run that
 * populated it.
 *
 * Loads are defensive, mirroring the checkpoint cache: a missing file
 * is a silent miss, a corrupt or key-mismatched file is a miss (and
 * is deleted). For a torn, truncated or mistyped entry, rerunning the
 * simulation is always the fallback, never a wrong result. Entries
 * carry no checksum, though: a flipped digit inside a number still
 * parses, and is served as that other number.
 *
 * An entry is read in one pass (sweep_store.hh's payload reader),
 * with json::Value::tryParse's rules: the stored spec is checked for
 * syntax, not decoded, since the key is the entry's identity.
 */

#ifndef NUCA_SERVICE_RESULT_CACHE_HH
#define NUCA_SERVICE_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/experiment.hh"

namespace nuca {
namespace service {

struct JobSpec;

class ResultCache
{
  public:
    /** A cache rooted at @p dir; empty disables caching entirely. */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }

    /** File path of the entry with content key @p key. */
    std::string pathFor(std::uint64_t key) const;

    /**
     * Look up @p key; nullopt on a miss. A file that does not parse
     * or whose recorded key disagrees with its name is removed and
     * reported as a miss.
     */
    std::optional<MixResult> get(std::uint64_t key) const;

    /**
     * Store @p result under @p key (atomically, via tmp + rename),
     * together with the originating spec for human inspection.
     * Best-effort: an unwritable directory or entry path warns on
     * stderr instead of failing the job.
     */
    void put(std::uint64_t key, const JobSpec &spec,
             const MixResult &result) const;

    /** Entries currently on disk (for the stats op / tests). */
    std::size_t count() const;

  private:
    std::string dir_;
};

} // namespace service
} // namespace nuca

#endif // NUCA_SERVICE_RESULT_CACHE_HH
