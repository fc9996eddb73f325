/**
 * @file
 * Host-side self-profiler: attributes the simulator's *wall-clock*
 * time (not simulated cycles) to its own components — pipeline
 * stages, cache miss walks, the run loop's scheduler, telemetry
 * and checkpoint I/O — so optimization rounds start from
 * measurements instead of guesswork.
 *
 * Design constraints, in order:
 *
 *  1. Zero overhead when off. Every Scope constructor starts with a
 *     single relaxed load of a global bool; nothing else happens when
 *     profiling is disabled, so the disabled cost is one predictable
 *     branch per scope (unmeasurable against a ~500 ns tick).
 *
 *  2. Bounded overhead when on. A clock read per pipeline stage per
 *     tick would cost more than the stages themselves, so hot phases
 *     are *sampled*: each phase carries a static `sampleShift`, and
 *     only one in 2^shift entries is actually timed. Reported times
 *     are scaled back up by 2^shift. Cold phases (checkpoint I/O,
 *     telemetry flushes) use shift 0 and are timed exactly.
 *
 *     Sampling must also not *skew*: a timed tick times its nested
 *     stage scopes too, and their clock reads would otherwise land
 *     in the tick's own measurement — scaled by 2^shift, that
 *     inflated core_tick far past wall clock. Timed scopes therefore
 *     link into a per-thread chain; each one, as it closes, charges
 *     one calibrated clock-pair cost to every enclosing open timer,
 *     and subtracts the charges it accumulated from its own
 *     duration before recording it.
 *
 *  3. No interaction with simulated state. The profiler reads the
 *     host clock and thread-local counters only; enabling it cannot
 *     change statistics, telemetry records, or checkpoint bytes
 *     (proven by the differential tests in fastforward_test.cc).
 *
 * Threading: each thread accumulates into its own registered state;
 * a thread's totals are merged into a global accumulator when the
 * thread exits. snapshot() sums the merged totals plus all live
 * registered states, so the common pattern — workers joined, then
 * the main thread reports — needs no synchronization in the scopes
 * themselves.
 *
 * This lives in nuca_base and deliberately has no dependency on the
 * JSON layer in nuca_sim: the machine-readable report is written by
 * hand (names are static strings, values are integers).
 */

#ifndef NUCA_BASE_PROFILER_HH
#define NUCA_BASE_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace nuca {
namespace prof {

/**
 * Profiled phases. Each entry has a display name, a parent (for the
 * hierarchical report; kRoot = top level) and a sample shift (time
 * one in 2^shift entries) in the static table in profiler.cc.
 */
enum class Phase : unsigned {
    Run,               ///< CmpSystem::run as a whole
    CoreTick,          ///< one OooCore::tick (sampled)
    CommitStage,       ///< commit/retire inside a sampled tick
    IssueStage,        ///< issue scheduling inside a sampled tick
    DispatchStage,     ///< rename/dispatch inside a sampled tick
    FetchStage,        ///< fetch inside a sampled tick
    CacheMissWalk,     ///< L1-miss path through L2/L3/memory
    L3Access,          ///< the L3 organization's access() itself
    CoreAdvance,       ///< one batched OooCore::advance call (sampled)
    WakeHeap,          ///< decoupled-loop heap pop/dispatch (sampled)
    UncoreDrain,       ///< decoupled-loop barrier: settle + events
    TelemetrySample,   ///< building one JSONL sample record
    HeatmapSample,     ///< building one spatial heatmap record
    TelemetryFlush,    ///< JsonlTraceSink buffered writes
    CheckpointSave,    ///< serialize + write one checkpoint
    CheckpointRestore, ///< read + deserialize one checkpoint
    Job,               ///< one parallel_runner job (settle excluded)
    NumPhases,
};

/** Monotonic event counters reported next to the phase times. */
enum class Counter : unsigned {
    TraceRecords,      ///< telemetry records written to any sink
    TraceFlushes,      ///< sink flushes (one buffered write each)
    HeatmapRecords,    ///< spatial heatmap records emitted
    FastForwardJumps,  ///< multi-cycle jumps taken
    FastForwardCycles, ///< cycles skipped by those jumps
    DecoupledBatchedCycles, ///< cycles run inside advance() batches
    WakeHeapPops,      ///< decoupled-loop scheduler heap pops
    HorizonRecomputes, ///< per-core wake horizons recomputed
    CheckpointBytesOut, ///< bytes serialized into checkpoints
    CheckpointBytesIn, ///< bytes restored from checkpoints
    JobsFinished,      ///< parallel_runner jobs completed
    JobRetries,        ///< failed attempts granted a re-run
    JobCrashes,        ///< jobs settled crashed/timed_out/quarantined
    NumCounters,
};

constexpr unsigned kNumPhases = static_cast<unsigned>(Phase::NumPhases);
constexpr unsigned kNumCounters =
    static_cast<unsigned>(Counter::NumCounters);

/** Display name of a phase ("core_tick", ...). */
const char *phaseName(Phase p);
/** Parent phase for report nesting, or Phase::NumPhases for roots. */
Phase phaseParent(Phase p);
/** log2 of the phase's sampling divisor (0 = every entry timed). */
unsigned phaseSampleShift(Phase p);

/** Master switch (off by default; harnesses and tests flip it). */
void setEnabled(bool on);

inline std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{false};
    return flag;
}

inline bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

namespace detail {

using Clock = std::chrono::steady_clock;

/** Per-thread accumulators; registered on first use, merged into the
 * global accumulator when the thread exits. */
struct ThreadState
{
    std::uint64_t entries[kNumPhases] = {};  ///< scope constructions
    std::uint64_t timed[kNumPhases] = {};    ///< entries actually timed
    std::uint64_t ns[kNumPhases] = {};       ///< summed timed durations
    std::uint64_t counters[kNumCounters] = {};
};

/** The calling thread's registered state. */
ThreadState &threadState();

/** A link in the calling thread's chain of open timed scopes, used
 * to charge nested timer overhead back to the enclosing timers. */
struct TimedLink
{
    TimedLink *parent = nullptr;
    std::uint64_t nestedPairs = 0; ///< timed scopes closed inside us
};

/** Top of the calling thread's open-timed-scope chain. */
inline TimedLink *&
timedTop()
{
    thread_local TimedLink *top = nullptr;
    return top;
}

/** Calibrated cost of one nested timed scope as seen by an enclosing
 * timer (two Clock::now() reads plus bookkeeping), in nanoseconds.
 * Measured once per process. */
std::uint64_t timerPairNs();

/** Record a finished timed scope: pop it from the chain, charge one
 * pair cost to each enclosing timer, subtract its own accumulated
 * charges, and add the result to ns[phase]. @p end is taken before
 * this runs so the bookkeeping stays out of the measurement. */
inline void
closeTimedScope(Phase p, Clock::time_point start, Clock::time_point end,
                TimedLink &link)
{
    timedTop() = link.parent;
    for (TimedLink *a = link.parent; a; a = a->parent)
        ++a->nestedPairs;
    auto &ts = threadState();
    const auto i = static_cast<unsigned>(p);
    ++ts.timed[i];
    const auto raw = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    const std::uint64_t skew = link.nestedPairs * timerPairNs();
    ts.ns[i] += raw > skew ? raw - skew : 0;
}

} // namespace detail

/**
 * Should this entry of @p p be timed? Increments the phase's entry
 * count and answers true once per 2^sampleShift entries. Use it to
 * hoist one sampling decision over several MaybeScopes (the core
 * tick samples once and times all four stages of that tick).
 * Answers false when profiling is off.
 */
inline bool
samplePoint(Phase p)
{
    if (!enabled())
        return false;
    auto &ts = detail::threadState();
    const auto i = static_cast<unsigned>(p);
    const std::uint64_t n = ts.entries[i]++;
    const std::uint64_t mask = (1ull << phaseSampleShift(p)) - 1;
    return (n & mask) == 0;
}

/**
 * Self-sampling scoped timer: counts every entry, times one in
 * 2^sampleShift of them. The default for everything but the
 * per-tick pipeline stages.
 */
class Scope
{
  public:
    explicit Scope(Phase p)
    {
        if (samplePoint(p)) {
            phase_ = p;
            link_.parent = detail::timedTop();
            detail::timedTop() = &link_;
            start_ = detail::Clock::now();
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope()
    {
        if (phase_ == Phase::NumPhases)
            return;
        const auto end = detail::Clock::now();
        detail::closeTimedScope(phase_, start_, end, link_);
    }

  private:
    Phase phase_ = Phase::NumPhases; ///< NumPhases = not timing
    detail::Clock::time_point start_;
    detail::TimedLink link_;
};

/**
 * Scoped timer whose sampling decision was made elsewhere (see
 * samplePoint). Does not touch the entry count: report scaling uses
 * the phase's sampleShift, so pair it with a samplePoint of the
 * *same shift* (the tick hoists Phase::CoreTick's decision over the
 * stage phases, which share CoreTick's shift).
 */
class MaybeScope
{
  public:
    MaybeScope(bool timing, Phase p)
    {
        if (timing) {
            phase_ = p;
            link_.parent = detail::timedTop();
            detail::timedTop() = &link_;
            start_ = detail::Clock::now();
        }
    }

    MaybeScope(const MaybeScope &) = delete;
    MaybeScope &operator=(const MaybeScope &) = delete;

    ~MaybeScope()
    {
        if (phase_ == Phase::NumPhases)
            return;
        const auto end = detail::Clock::now();
        detail::closeTimedScope(phase_, start_, end, link_);
    }

  private:
    Phase phase_ = Phase::NumPhases;
    detail::Clock::time_point start_;
    detail::TimedLink link_;
};

/** Add @p value to a counter (no-op when profiling is off). */
inline void
add(Counter c, std::uint64_t value)
{
    if (!enabled())
        return;
    detail::threadState().counters[static_cast<unsigned>(c)] += value;
}

/** A merged view of every thread's accumulators. */
struct Snapshot
{
    std::uint64_t entries[kNumPhases] = {};
    std::uint64_t timed[kNumPhases] = {};
    std::uint64_t ns[kNumPhases] = {};
    std::uint64_t counters[kNumCounters] = {};

    /** Estimated total ns for a phase: measured ns scaled by the
     * sampling divisor. */
    std::uint64_t estNs(Phase p) const;
    /** Estimated entry count (exact when the phase self-samples,
     * scaled from timed calls for hoisted-decision phases). */
    std::uint64_t estCalls(Phase p) const;
};

/** Sum of the exited-thread accumulator and all live thread states.
 * Call with worker threads joined for exact results. */
Snapshot snapshot();

/** Zero every accumulator (merged + live threads). Tests only. */
void resetAll();

/**
 * Hierarchical text report. @p wall_seconds, when positive, is the
 * denominator for the %-of-wall column; otherwise the sum of
 * root-phase estimates is used.
 */
void writeReport(std::ostream &os, double wall_seconds = 0.0);

/** The same data as a JSON object (phases array + counters map). */
void writeJsonReport(std::ostream &os);
std::string jsonReport();

/**
 * Enable profiling and install the exit hook: while profiling is
 * enabled at process exit, print the text report to stderr and, if
 * @p json_path is non-empty, write the JSON report there. Harnesses
 * call this once (see profilerFromEnv); calling it again is harmless.
 */
void enableWithExitReport(const std::string &json_path);

} // namespace prof
} // namespace nuca

#endif // NUCA_BASE_PROFILER_HH
