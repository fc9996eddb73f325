/**
 * @file
 * A system's SynthWorkload streams, generated ahead of its cores.
 *
 * The model is trace-driven: a SynthWorkload's stream never depends
 * on simulated timing, so it can be drawn before a core asks for it.
 * RunAheadStreams keeps one ring of fixed-size blocks per core. One
 * producer thread per system fills every ring while the simulating
 * thread runs the cores, and a core's InstSource::next() pops its
 * ring. The producer starts only while a CPU is free
 * (base/cpu_budget.hh); otherwise, or if the thread cannot be
 * created, the simulating thread fills its own blocks with the same
 * fill function when a ring runs dry.
 *
 * Every block records the generator's checkpoint bytes at its first
 * instruction. A checkpoint is taken at the core's position, not the
 * producer's: a replay twin (a SynthWorkload of the same profile,
 * core and seed) restores the current block's snapshot and replays
 * the instructions already drawn from it, so the bytes are those of
 * a generator called inline. A restore stops the producer, restores
 * the generator and empties the ring; the next draw starts a producer
 * again if a CPU is free.
 *
 * The producer is a bare pthread with every signal blocked, and it
 * never calls malloc or free (the SnapshotWriter pattern,
 * docs/CHECKPOINT.md "Cost"): the rings, the snapshot scratch and the
 * twin are allocated by the simulating thread, on first use. Only the
 * profiler's per-thread state, under REPRO_PROFILE, is allocated on
 * the producer. No
 * producer outlives its RunAheadStreams.
 */

#ifndef NUCA_WORKLOAD_RUN_AHEAD_HH
#define NUCA_WORKLOAD_RUN_AHEAD_HH

#include <pthread.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/synth_inst.hh"
#include "workload/profile.hh"

namespace nuca {

class RunAheadStreams
{
  public:
    /** Instructions per ring block. */
    static constexpr unsigned blockInsts = 256;
    /** Blocks per ring (a power of two). */
    static constexpr unsigned ringBlocks = 4;

    RunAheadStreams();
    /** Stops the producer, then frees the rings. */
    ~RunAheadStreams();

    RunAheadStreams(const RunAheadStreams &) = delete;
    RunAheadStreams &operator=(const RunAheadStreams &) = delete;

    /**
     * Add the stream of SynthWorkload(@p profile, @p core, @p seed).
     * Call before the first instruction is drawn from any stream.
     * The source lives as long as this object.
     */
    InstSource &add(const WorkloadProfile &profile, CoreId core,
                    std::uint64_t seed);

    /** True while a producer thread fills the rings. */
    bool producing() const { return running_; }

    /**
     * Stop the producer, if one runs (a restore does this). The rings
     * keep the blocks it filled, and the next draw decides again
     * whether a producer runs.
     */
    void stop();

  private:
    class Lane;

    /** Decide how blocks get filled: allocate the rings on first use,
     *  give every lane without a block its first one, and start a
     *  producer if a CPU is free. */
    void start();
    void startThread();
    /** The producer thread's loop. */
    void produce();
    /** Wake a sleeping producer: a ring is at least half free. */
    void wake();
    /** Fill @p lane's next block and publish it. */
    static void fill(Lane &lane);

    std::vector<std::unique_ptr<Lane>> lanes_;

    /** One mapping holds every lane's ring and snapshots. */
    void *arena_ = nullptr;
    std::size_t arenaBytes_ = 0;

    // Simulating-thread state.
    bool decided_ = false; ///< start() ran since construction or stop()
    bool running_ = false; ///< a producer thread was started
    pthread_t thread_{};

    // Shared with the producer.
    std::atomic<bool> quit_{false};
    /** Bumped when a ring frees up; the idle producer sleeps on it. */
    std::atomic<std::uint32_t> work_{0};
};

} // namespace nuca

#endif // NUCA_WORKLOAD_RUN_AHEAD_HH
