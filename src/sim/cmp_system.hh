/**
 * @file
 * Assembly of the full chip multiprocessor: four out-of-order cores
 * with private L1/L2 hierarchies, one of the four last-level cache
 * organizations, and the shared memory channel. The run loop is a
 * decoupled per-core event scheduler: a wake heap orders core ticks
 * by (cycle, coreId), skips each stalled core's ticks individually,
 * and batches a lone runnable core's ticks without re-entering the
 * loop. The cycle-by-cycle reference loop (setFastForward(false)) is
 * kept as its test oracle; the two are bit-identical.
 */

#ifndef NUCA_SIM_CMP_SYSTEM_HH
#define NUCA_SIM_CMP_SYSTEM_HH

#include <memory>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "cpu/coherence.hh"
#include "cpu/memory_system.hh"
#include "cpu/ooo_core.hh"
#include "mem/main_memory.hh"
#include "nuca/adaptive_nuca.hh"
#include "nuca/l3_organization.hh"
#include "sim/robustness.hh"
#include "sim/system_config.hh"
#include "sim/telemetry.hh"
#include "sim/trace_event.hh"
#include "workload/profile.hh"
#include "workload/synth_workload.hh"

namespace nuca {

/** A complete simulated CMP running one multiprogrammed mix. */
class CmpSystem
{
  public:
    /**
     * @param config system parameters
     * @param apps one workload profile per core
     * @param seed workload seed (models the random fast-forward)
     */
    CmpSystem(const SystemConfig &config,
              const std::vector<WorkloadProfile> &apps,
              std::uint64_t seed);

    /**
     * Build a system driven by caller-provided instruction sources
     * (e.g. TraceReplaySource), one per core. The system takes
     * ownership.
     */
    CmpSystem(const SystemConfig &config,
              std::vector<std::unique_ptr<InstSource>> sources);

    /**
     * Advance every core by @p cycles cycles.
     *
     * @throws SimulationStalled when the forward-progress watchdog
     *         sees no retired instruction across all cores for its
     *         window, or an L2D MSHR entry older than its age bound
     * @throws CycleBudgetExceeded when robustness().maxCycles runs out
     */
    void run(Cycle cycles);

    /**
     * Replace the robustness configuration (the constructors install
     * RobustnessConfig{}). Resets the watchdog baseline and
     * the periodic-check schedule to the current cycle.
     */
    void setRobustness(const RobustnessConfig &config);

    /** The active robustness configuration (tests/inspection). */
    const RobustnessConfig &robustness() const { return robust_; }

    /**
     * Select the run loop (constructors install the decoupled
     * scheduler). Enabled: the decoupled per-core event scheduler.
     * It keeps a min-heap of (nextWakeCycle, coreId), pops ticks in
     * exactly the reference loop's (cycle, coreId) order, skips each
     * core's ticks while that core is provably stalled, and hands a
     * core that is provably the only actor until the next heap entry
     * / telemetry sample / robustness event to OooCore::advance as
     * one batch. Skipped ticks are folded into the per-cycle
     * statistics before anything observes them. Disabled: the
     * cycle-by-cycle reference loop. Every counter, distribution,
     * telemetry record and checkpoint is bit-identical between the
     * two (asserted by the differential tests). See
     * docs/PERFORMANCE.md.
     */
    void setFastForward(bool enabled);

    /** True when run() uses the decoupled scheduler. */
    bool fastForwardEnabled() const { return fastForward_; }

    /** Cap decoupled advance batches at @p cycles (0 = none). */
    void setBatchCap(Cycle cycles) { batchCap_ = cycles; }

    /**
     * Host-side scheduler diagnostics (like the fast-forward
     * counters: never statistics, never checkpointed). Ticks
     * actually executed per core — the complement of the cycles the
     * active loop skipped for that core individually.
     */
    Counter coreTicksExecuted(CoreId core) const;

    /** Cycles covered by OooCore::advance batches (executed ticks
     * plus the stall cycles folded inside them). */
    Counter decoupledBatchedCycles() const { return batchedCycles_; }

    /** Wake-heap pops taken by the decoupled scheduler. */
    Counter wakeHeapPops() const { return heapPops_; }

    /** Per-core wake horizons recomputed (heap pushes). */
    Counter horizonRecomputes() const { return horizonPushes_; }

    /**
     * Histogram of advance-batch spans in cycles: bucket k counts
     * batches whose span s has bit_width(s) == k, i.e. s in
     * [2^(k-1), 2^k). Bucket 0 is unused.
     */
    const std::vector<Counter> &horizonHistogram() const
    {
        return horizonHist_;
    }

    /**
     * Host-side fast-forward diagnostics. fastForwardedCycles counts
     * the cycles of run() windows in which no core executed a tick;
     * fastForwardJumps counts the idle gaps between executed ticks
     * that the scheduler crossed (cycles a lone core's advance batch
     * folds count as skipped cycles but not as jumps). Both are 0
     * under the reference loop. Deliberately *not* statistics and
     * *not* checkpointed — they describe how the simulation was
     * executed, not what it simulated, and folding them into either
     * would break the bit-identity contract between the two loops.
     */
    Counter fastForwardedCycles() const { return ffSkipped_; }
    Counter fastForwardJumps() const { return ffJumps_; }

    /**
     * Run one structural-invariant pass immediately: L3 structure
     * (LRU permutation, set placement, quota accounting) plus every
     * core's L2D MSHR file. Panics on violation.
     */
    void checkStructuralInvariants() const;

    /**
     * Attach a telemetry sink: a "sample" record every @p period
     * cycles, plus one "repartition" record per sharing-engine epoch
     * when the scheme is adaptive. Tracing only reads counters the
     * simulation maintains anyway — simulated behaviour is
     * bit-identical with or without a sink. The sink must outlive
     * this system's remaining run() calls; pass nullptr to detach.
     */
    void attachTelemetry(TraceSink *sink, Cycle period);

    /**
     * Start emitting "heatmap" telemetry records next to every
     * sample: per-bank/per-set-bucket L3 access and miss interval
     * counts plus the partition-occupancy histograms. @p buckets
     * groups the (large) set index space into at most that many
     * spatial buckets per bank. Requires an attached telemetry sink
     * to produce output. Purely observational: heatmap counters live
     * outside the stats tree and are never checkpointed, so stats,
     * checkpoint bytes, and the non-heatmap telemetry records stay
     * bit-identical (asserted by the differential tests). @return
     * false when the L3 organization has no spatial structure.
     */
    bool enableHeatmap(unsigned buckets = 64);

    /**
     * Register this system on a trace-event log: fast-forward jumps,
     * repartitions, watchdog/invariant events, and per-sample
     * counter tracks (IPC, MSHR-full stalls, quotas) are emitted on
     * an own Perfetto process track whose timestamps are simulated
     * cycles. Pass nullptr to detach.
     */
    void attachTraceEvents(TraceEventLog *log,
                           const std::string &label);

    /**
     * Zero all statistics (the warm-up boundary). Cache contents
     * and predictor state are preserved.
     */
    void resetStats();

    /**
     * Serialize the whole machine — cycle count, workload state,
     * every cache/predictor/queue, and all statistics — such that
     * restore() into an identically configured system resumes
     * bit-identically.
     */
    void checkpoint(Serializer &s) const;

    /**
     * Restore state written by checkpoint(). The receiving system
     * must have been constructed with the same SystemConfig and
     * workload setup (enforced structurally via size checks; callers
     * should additionally key checkpoint files by a config hash).
     * Re-baselines the robustness watchdog at the restored cycle.
     *
     * @throws CheckpointError on any structural mismatch
     */
    void restore(Deserializer &d);

    /** Cycles simulated since the last resetStats(). */
    Cycle measuredCycles() const { return now_ - statsZero_; }

    /** Committed IPC of @p core since the last resetStats(). */
    double ipcOf(CoreId core) const;

    /** Per-core IPCs since the last resetStats(). */
    std::vector<double> ipcs() const;

    /** L3 data accesses of @p core per 1000 cycles since reset
     * (the Figure 5 classification metric). */
    double l3AccessesPerKilocycle(CoreId core) const;

    unsigned numCores() const { return config_.numCores; }
    Cycle now() const { return now_; }

    L3Organization &l3() { return *l3_; }
    /** The adaptive organization, or nullptr for other schemes. */
    AdaptiveNuca *adaptive() { return adaptive_; }
    MainMemory &memory() { return memory_; }
    /** The coherence hub, or nullptr outside parallel mode. */
    CoherenceHub *coherence() { return coherence_.get(); }
    OooCore &coreAt(CoreId core);
    MemorySystem &memOf(CoreId core);
    stats::Group &statsRoot() { return root_; }

  private:
    SystemConfig config_;
    stats::Group root_;
    MainMemory memory_;
    std::unique_ptr<L3Organization> l3_;
    AdaptiveNuca *adaptive_ = nullptr;

    /** Shared tail of both constructors. */
    void buildSystem();

    std::vector<std::unique_ptr<InstSource>> workloads_;
    std::unique_ptr<CoherenceHub> coherence_;
    std::vector<std::unique_ptr<MemorySystem>> memSystems_;
    std::vector<std::unique_ptr<OooCore>> cores_;

    Cycle now_ = 0;
    Cycle statsZero_ = 0;
    /** Committed/accesses baselines captured at resetStats(). */
    std::vector<Counter> committedZero_;
    std::vector<Counter> l3AccessZero_;

    /** The cycle-by-cycle reference loop (setFastForward(false)): every
     * core ticks every cycle, in ascending coreId order. */
    void runReference(Cycle end);

    /**
     * The decoupled per-core event scheduler. Repeats: compute the
     * next barrier (run end, telemetry sample, robustness event),
     * execute every core tick strictly before it in (cycle, coreId)
     * order via runCoresUntil, then settle and fire the barrier's
     * events exactly as the reference loop would at that cycle.
     */
    void runDecoupled(Cycle end);

    /**
     * Pop-and-dispatch until every scheduled core tick at a cycle
     * before @p cap has executed, then account the trailing idle gap
     * and set now_ = cap. A popped core that is alone at its cycle
     * is batched (advanceSole); cores sharing a cycle run in
     * lockstep, ascending coreId per cycle, with per-cycle joins
     * from the heap and demotion back to it on stall — exactly the
     * reference loop's mutation order, minus the provably-stalled
     * ticks.
     */
    void runCoresUntil(Cycle cap);

    /**
     * Batch core @p c from @p start: the advance limit is the
     * largest window in which it provably stays the only actor (the
     * next heap entry's cycle — plus one when this core's id is
     * smaller, since it precedes that core within the shared cycle —
     * all capped by @p cap and setBatchCap), then one
     * OooCore::advance call plus the scheduler bookkeeping.
     */
    void advanceSole(std::uint32_t c, Cycle start, Cycle cap);

    /** Rebuild the wake heap from coreWake_ (every run() entry:
     * restore/setFastForward re-anchor the horizons). */
    void rebuildWakeHeap();

    /** Record a new horizon for @p c and re-insert it in the heap
     * (neverWakes cores stay out until something re-anchors them). */
    void pushWake(Cycle wake, std::uint32_t c);

    /** Fold core @p c's pending skipped span up to @p upTo. */
    void settlePending(std::uint32_t c, Cycle upTo);

    /** Account the machine-idle window [frontier_, to) against the
     * fast-forward counters and trace events. */
    void accountIdleGap(Cycle to);

    /**
     * Fold every core's pending skipped-tick span into its per-cycle
     * statistics, up to (excluding) the current cycle. Must run
     * before anything outside the skip machinery observes core state
     * — a telemetry sample, a robustness event, or run() returning —
     * so the externally visible trajectory is indistinguishable from
     * the tick-every-cycle reference loop.
     */
    void settleCores();

    /** Emit one telemetry sample and advance the interval baseline. */
    void emitSample();
    /** Emit one "heatmap" record (bucketized interval deltas). */
    void emitHeatmap();
    /** Emit per-sample counter tracks on the trace-event log. */
    void emitCounterEvents();
    /** Forward one sharing-engine epoch event to the sink. */
    void emitRepartition(const RepartitionEvent &event);

    /** Dispatch whichever robustness events are due at now_. */
    void robustnessTick();
    /** Recompute nextRobustEvent_ from the pending event cycles. */
    void scheduleRobustness();
    /** Plant the configured fault (simulator kinds). */
    void plantFault();
    /** Zero-retirement window and MSHR age bound checks. */
    void watchdogCheck();
    /** Per-core pipeline/MSHR/channel state for stall messages. */
    std::string progressSnapshot() const;

    RobustnessConfig robust_;
    /** True when any robustness event is scheduled at all. */
    bool robustActive_ = false;
    Cycle nextRobustEvent_ = 0;
    Cycle nextCheck_ = 0;
    Cycle watchdogPeriod_ = 0;
    Cycle nextWatchdog_ = 0;
    Counter watchdogLastCommitted_ = 0;
    Cycle watchdogLastProgress_ = 0;
    bool faultPlanted_ = false;

    /** run() uses the decoupled scheduler (setFastForward). */
    bool fastForward_ = true;
    Counter ffSkipped_ = 0;
    Counter ffJumps_ = 0;
    /**
     * Per-core skip state, meaningful only while fastForward_ is on.
     * coreWake_[c] is the horizon the core's last real tick computed
     * (nextWakeCycle): ticks at cycles strictly before it are
     * provable no-ops and are skipped. corePendingStart_[c] is the
     * first skipped cycle not yet folded into the core's statistics;
     * == the next tick cycle when nothing is pending. Derived state:
     * reset to now_ on restore and on setFastForward, never
     * checkpointed (run() settles before returning, so no span is
     * ever pending at a checkpoint).
     */
    std::vector<Cycle> coreWake_;
    std::vector<Cycle> corePendingStart_;

    /** Advance-batch span cap (setBatchCap; 0 = none). */
    Cycle batchCap_ = 0;
    /**
     * Min-heap (std::*_heap with std::greater) of (wake, coreId):
     * one entry per core whose horizon is finite. Pair ordering
     * makes equal-cycle pops come out in ascending coreId — the
     * reference loop's within-cycle order — for free. Rebuilt from
     * coreWake_ at every run() entry; only meaningful inside
     * runDecoupled.
     */
    std::vector<std::pair<Cycle, std::uint32_t>> wakeHeap_;
    /** Cores ticking in lockstep at the current cycle (ascending
     * id) and the per-cycle joiners scratch (runCoresUntil). */
    std::vector<std::uint32_t> cohort_;
    std::vector<std::uint32_t> joiners_;
    /**
     * One past the last executed tick cycle: the start of the
     * current machine-idle window, so gaps discovered at the next
     * pop or barrier can be accounted once, contiguously.
     */
    Cycle frontier_ = 0;
    /** Scheduler diagnostics (host-side; see the accessors). */
    std::vector<Counter> coreTicks_;
    Counter batchedCycles_ = 0;
    Counter heapPops_ = 0;
    Counter horizonPushes_ = 0;
    std::vector<Counter> horizonHist_;

    TraceSink *trace_ = nullptr;
    Cycle tracePeriod_ = 0;
    Cycle nextSample_ = 0;
    /** Previous-sample baselines the interval deltas are taken from. */
    Cycle samplePrevCycle_ = 0;
    std::vector<Counter> samplePrevCommitted_;
    std::vector<Counter> samplePrevL3Access_;
    std::vector<Counter> samplePrevL3Miss_;
    std::vector<Counter> samplePrevL3Local_;
    std::vector<Counter> samplePrevL3Remote_;
    Counter samplePrevFetches_ = 0;
    Counter samplePrevWritebacks_ = 0;
    Counter samplePrevQueueCycles_ = 0;

    /**
     * Spatial heatmap sampling (enableHeatmap). Bucketized previous
     * totals, bank-major: index bank * heatBuckets_ + bucket. Host
     * observability only — never checkpointed.
     */
    unsigned heatBuckets_ = 0;
    std::vector<std::uint64_t> heatPrevAccess_;
    std::vector<std::uint64_t> heatPrevMiss_;

    /** Trace-event emission (attachTraceEvents). */
    TraceEventLog *events_ = nullptr;
    int evtPid_ = 0;
    std::vector<Counter> evtPrevMshrStalls_;
};

} // namespace nuca

#endif // NUCA_SIM_CMP_SYSTEM_HH
