#include "workload/run_ahead.hh"

#include <sys/mman.h>

#include <csignal>
#include <cstring>

#include "base/cpu_budget.hh"
#include "base/logging.hh"
#include "base/profiler.hh"
#include "serialize/serializer.hh"
#include "workload/synth_workload.hh"

namespace nuca {

namespace {

constexpr unsigned slotMask = RunAheadStreams::ringBlocks - 1;
static_assert((RunAheadStreams::ringBlocks & slotMask) == 0,
              "ringBlocks must be a power of two");

/** Enough for fill() and the profiler; the default would reserve
 *  8 MiB of address space per producer under a job's RLIMIT_AS. */
constexpr std::size_t producerStackBytes = 256 << 10;

/** Polls of an empty ring before a draw sleeps on it. A block takes
 *  about 10 us to fill, and a sleeping consumer costs a futex round
 *  trip on each side. */
constexpr unsigned spinPolls = 2000;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Bytes between fields two threads write. */
constexpr std::size_t cacheLine = 64;

std::size_t
roundUp(std::size_t n, std::size_t to)
{
    return (n + to - 1) / to * to;
}

} // namespace

/**
 * One core's stream. Blocks are numbered from 0 since the last reset;
 * block n lives in slot n % ringBlocks. The filler (the producer, or
 * the simulating thread when none runs) owns gen_ and filled_; the
 * core owns the current block cur_ and freed_. Block n may be filled
 * while n - freed_ < ringBlocks, so the current block, freed only
 * when the core moves past it, is never overwritten under the core.
 * With no producer, a used-up block with nothing filled after it is
 * refilled in place and keeps its number.
 */
class RunAheadStreams::Lane final : public InstSource
{
  public:
    Lane(RunAheadStreams &group, const WorkloadProfile &profile,
         CoreId core, std::uint64_t seed)
        : group_(group), gen_(profile, core, seed), core_(core),
          seed_(seed)
    {}

    SynthInst
    next() override
    {
        if (pos_ == end_) [[unlikely]]
            advance();
        return *pos_++;
    }

    bool sharesData() const override { return gen_.sharesData(); }

    void
    checkpoint(Serializer &s) const override
    {
        if (!hasBlock_) {
            // Nothing drawn since the last reset and no producer:
            // the generator stands at the core's position.
            gen_.checkpoint(s);
            return;
        }
        if (!twin_) {
            twin_ = std::make_unique<SynthWorkload>(gen_.profile(),
                                                    core_, seed_);
        }
        const unsigned slot = cur_ & slotMask;
        Deserializer snapshot(snaps_ + slot * snapStride_, snapBytes_);
        twin_->restore(snapshot);
        for (auto drawn = pos_ - (insts_ + slot * blockInsts);
             drawn > 0; --drawn)
            twin_->next();
        twin_->checkpoint(s);
    }

    void
    restore(Deserializer &d) override
    {
        group_.stop();
        gen_.restore(d);
        reset();
    }

    /** Size the snapshot scratch from the generator and return the
     *  arena bytes this lane needs. A profile's checkpoint takes the
     *  same bytes whatever the generator's state. */
    std::size_t
    measure()
    {
        scratch_.clear();
        gen_.checkpoint(scratch_);
        snapBytes_ = scratch_.size();
        snapStride_ = roundUp(snapBytes_, cacheLine);
        return ringBlocks * (blockInsts * sizeof(SynthInst) + snapStride_);
    }

    /** Point the ring and the snapshots at @p at (measure() bytes). */
    void
    place(std::uint8_t *at)
    {
        insts_ = reinterpret_cast<SynthInst *>(at);
        snaps_ = at + ringBlocks * blockInsts * sizeof(SynthInst);
    }

    /** Make block @p n the current one. */
    void
    take(std::uint32_t n)
    {
        cur_ = n;
        hasBlock_ = true;
        pos_ = insts_ + (n & slotMask) * blockInsts;
        end_ = pos_ + blockInsts;
    }

    RunAheadStreams &group_;
    /** The generator: the producer's while one runs. */
    SynthWorkload gen_;
    const CoreId core_;
    const std::uint64_t seed_;
    /** Replays from a snapshot to the core's position (checkpoint). */
    mutable std::unique_ptr<SynthWorkload> twin_;
    /** The filler's snapshot buffer, sized on the simulating thread
     *  so that refilling it never allocates. */
    Serializer scratch_;

    SynthInst *insts_ = nullptr;
    std::uint8_t *snaps_ = nullptr;
    std::size_t snapBytes_ = 0;
    std::size_t snapStride_ = 0;

    // The core's side, a cache line away from what the filler
    // writes. Padding, not alignas: an over-aligned allocation leaves
    // free fragments in the heap, and in the benchmark's llc_mix
    // those cost 3.7 MiB of peak RSS.
    char padGen_[cacheLine];
    const SynthInst *pos_ = nullptr;
    const SynthInst *end_ = nullptr;
    std::uint32_t cur_ = 0;
    bool hasBlock_ = false;
    char padCore_[cacheLine];
    std::atomic<std::uint32_t> filled_{0};
    char padFilled_[cacheLine];
    std::atomic<std::uint32_t> freed_{0};

  private:
    void
    reset()
    {
        pos_ = end_ = nullptr;
        cur_ = 0;
        hasBlock_ = false;
        filled_.store(0, std::memory_order_relaxed);
        freed_.store(0, std::memory_order_relaxed);
    }

    /** The current block is used up: move on to the next one. */
    void
    advance()
    {
        RunAheadStreams &g = group_;
        if (!g.decided_) {
            g.start();
            if (pos_ != end_)
                return; // start() gave this lane its first block
        }
        const std::uint32_t n = cur_ + 1;
        if (!g.running_ &&
            filled_.load(std::memory_order_relaxed) == n) {
            // No producer and nothing filled ahead: refill the block
            // just used up, in place, so the ring takes one block of
            // cache per core.
            prof::add(prof::Counter::StreamInlineFills, 1);
            filled_.store(cur_, std::memory_order_relaxed);
            fill(*this);
            take(cur_);
            return;
        }
        freed_.store(n, std::memory_order_release);
        if (g.running_) {
            const std::uint32_t ahead =
                filled_.load(std::memory_order_acquire) - n;
            if (ahead <= ringBlocks / 2)
                g.wake();
            if (ahead == 0)
                waitFor(n);
        }
        take(n);
    }

    /** Wait for the producer to publish block @p n. */
    void
    waitFor(std::uint32_t n)
    {
        prof::add(prof::Counter::StreamWaits, 1);
        for (unsigned poll = 0; poll < spinPolls; ++poll) {
            if (filled_.load(std::memory_order_acquire) != n)
                return;
            cpuRelax();
        }
        while (filled_.load(std::memory_order_acquire) == n)
            filled_.wait(n, std::memory_order_acquire);
    }
};

RunAheadStreams::RunAheadStreams() = default;

RunAheadStreams::~RunAheadStreams()
{
    stop();
    if (arena_)
        ::munmap(arena_, arenaBytes_);
}

InstSource &
RunAheadStreams::add(const WorkloadProfile &profile, CoreId core,
                     std::uint64_t seed)
{
    panic_if(decided_ || arena_, "run-ahead stream added after a draw");
    lanes_.push_back(std::make_unique<Lane>(*this, profile, core, seed));
    return *lanes_.back();
}

void
RunAheadStreams::fill(Lane &lane)
{
    // Nothing here allocates: measure() sized the scratch for this
    // profile's snapshot, which never changes length.
    const std::uint32_t n = lane.filled_.load(std::memory_order_relaxed);
    const unsigned slot = n & slotMask;
    lane.scratch_.clear();
    lane.gen_.checkpoint(lane.scratch_);
    std::memcpy(lane.snaps_ + slot * lane.snapStride_,
                lane.scratch_.bytes().data(), lane.snapBytes_);
    SynthInst *out = lane.insts_ + slot * blockInsts;
    for (unsigned k = 0; k < blockInsts; ++k)
        out[k] = lane.gen_.next();
    lane.filled_.store(n + 1, std::memory_order_release);
}

void
RunAheadStreams::start()
{
    decided_ = true;
    if (!arena_) {
        std::vector<std::size_t> bytes;
        for (const auto &lane : lanes_) {
            bytes.push_back(lane->measure());
            arenaBytes_ += bytes.back();
        }
        void *arena = ::mmap(nullptr, arenaBytes_, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        fatal_if(arena == MAP_FAILED, "cannot map ", arenaBytes_,
                 " bytes of instruction rings");
        arena_ = arena;
        auto *at = static_cast<std::uint8_t *>(arena_);
        for (std::size_t c = 0; c < lanes_.size(); ++c) {
            lanes_[c]->place(at);
            at += bytes[c];
        }
    }
    // Every lane holds a block before a producer starts, so that a
    // checkpoint never reads a generator the producer is using.
    for (const auto &lane : lanes_) {
        if (!lane->hasBlock_) {
            prof::add(prof::Counter::StreamInlineFills, 1);
            fill(*lane);
            lane->take(0);
        }
    }
    startThread();
}

void
RunAheadStreams::startThread()
{
    if (!cpu_budget::tryClaimHelper())
        return;
    // A full signal mask: process-directed signals (a job runner's
    // SIGTERM preempt, SIGINT) keep landing on the simulating thread.
    sigset_t all;
    sigset_t old;
    sigfillset(&all);
    ::pthread_sigmask(SIG_BLOCK, &all, &old);
    pthread_attr_t attr;
    ::pthread_attr_init(&attr);
    ::pthread_attr_setstacksize(&attr, producerStackBytes);
    running_ = ::pthread_create(
                   &thread_, &attr,
                   [](void *self) -> void * {
                       static_cast<RunAheadStreams *>(self)->produce();
                       return nullptr;
                   },
                   this) == 0;
    ::pthread_attr_destroy(&attr);
    ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
    if (!running_)
        cpu_budget::releaseHelper();
}

void
RunAheadStreams::produce()
{
    for (;;) {
        // Read before the pass: a ring freed during it bumps work_,
        // and the wait below then returns at once.
        const std::uint32_t seen = work_.load(std::memory_order_acquire);
        if (quit_.load(std::memory_order_acquire))
            return;
        bool filled = false;
        for (const auto &lane : lanes_) {
            if (lane->filled_.load(std::memory_order_relaxed) -
                    lane->freed_.load(std::memory_order_acquire) <
                ringBlocks) {
                {
                    prof::Scope timed(prof::Phase::StreamFill);
                    fill(*lane);
                }
                lane->filled_.notify_one();
                filled = true;
            }
        }
        if (!filled)
            work_.wait(seen, std::memory_order_acquire);
    }
}

void
RunAheadStreams::wake()
{
    work_.fetch_add(1, std::memory_order_release);
    work_.notify_one();
}

void
RunAheadStreams::stop()
{
    decided_ = false;
    if (!running_)
        return;
    running_ = false;
    quit_.store(true, std::memory_order_release);
    wake();
    ::pthread_join(thread_, nullptr);
    quit_.store(false, std::memory_order_relaxed);
    cpu_budget::releaseHelper();
}

} // namespace nuca
