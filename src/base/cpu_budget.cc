#include "base/cpu_budget.hh"

#include <algorithm>
#include <atomic>
#include <thread>

namespace nuca {
namespace cpu_budget {

namespace {

std::atomic<int> simulating{0};
std::atomic<int> helpers{0};

/** The calling thread is in the simulating count. */
thread_local bool threadCounted = false;

} // namespace

unsigned
hostCpus()
{
    static const unsigned cpus =
        std::max(1u, std::thread::hardware_concurrency());
    return cpus;
}

int
simulatingThreads()
{
    return simulating.load(std::memory_order_relaxed);
}

int
liveHelpers()
{
    return helpers.load(std::memory_order_relaxed);
}

void
addSimulating(int delta)
{
    simulating.fetch_add(delta, std::memory_order_relaxed);
}

SimulatingThread::SimulatingThread() : counted_(!threadCounted)
{
    if (counted_) {
        threadCounted = true;
        addSimulating(1);
    }
}

SimulatingThread::~SimulatingThread()
{
    if (counted_) {
        threadCounted = false;
        addSimulating(-1);
    }
}

WorkerThread::WorkerThread()
{
    threadCounted = true;
}

WorkerThread::~WorkerThread()
{
    threadCounted = false;
    addSimulating(-1);
}

Idle::Idle() : wasCounted_(threadCounted)
{
    if (wasCounted_) {
        threadCounted = false;
        addSimulating(-1);
    }
}

Idle::~Idle()
{
    if (wasCounted_) {
        threadCounted = true;
        addSimulating(1);
    }
}

bool
tryClaimHelper()
{
    const int cpus = static_cast<int>(hostCpus());
    int live = helpers.load(std::memory_order_relaxed);
    do {
        if (simulating.load(std::memory_order_relaxed) + live >= cpus)
            return false;
    } while (!helpers.compare_exchange_weak(live, live + 1,
                                            std::memory_order_relaxed));
    return true;
}

void
releaseHelper()
{
    helpers.fetch_sub(1, std::memory_order_relaxed);
}

void
inheritSimulating(int count)
{
    simulating.store(count, std::memory_order_relaxed);
    threadCounted = count > 0;
}

} // namespace cpu_budget
} // namespace nuca
