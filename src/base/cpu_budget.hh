/**
 * @file
 * The host CPUs a process may spend on helper threads.
 *
 * A simulating thread is one that advances a CmpSystem: a WorkerPool
 * worker from the moment its pool is built until it retires (less the
 * time it waits for work), or any other thread while it is inside
 * CmpSystem::run. A helper thread (a system's run-ahead instruction
 * producer, src/workload/run_ahead.hh) may start only while a CPU is
 * free: the simulating threads plus the live helpers must number
 * fewer than std::thread::hardware_concurrency(), the pool size
 * REPRO_JOBS defaults to. The rule is derived, not a knob. A sweep
 * with a worker per CPU starts no helper; one with half as many
 * workers starts one helper per worker.
 *
 * The counts are process-wide. A sandboxed job's runner is a process
 * of its own (sim/proc_pool.hh); it starts its simulating count from
 * its parent's (inheritSimulating), since the parent's workers still
 * stand for CPUs in use, its own job among them.
 */

#ifndef NUCA_BASE_CPU_BUDGET_HH
#define NUCA_BASE_CPU_BUDGET_HH

namespace nuca {
namespace cpu_budget {

/** std::thread::hardware_concurrency(), at least 1. */
unsigned hostCpus();

/** Simulating threads counted now (tests, diagnostics). */
int simulatingThreads();

/** Helper threads live in this process now. */
int liveHelpers();

/**
 * Change the simulating count by @p delta. WorkerPool adds its
 * workers before it starts them, so the first of them to build a
 * system already sees its siblings; each worker then takes its unit
 * with a WorkerThread.
 */
void addSimulating(int delta);

/** Counts the calling thread as simulating while in scope, unless it
 *  is counted already (an outer scope, or a WorkerPool worker). */
class SimulatingThread
{
  public:
    SimulatingThread();
    ~SimulatingThread();
    SimulatingThread(const SimulatingThread &) = delete;
    SimulatingThread &operator=(const SimulatingThread &) = delete;

  private:
    bool counted_;
};

/** A WorkerPool worker's whole life: it takes one of the units its
 *  pool added and gives it back when it retires. */
class WorkerThread
{
  public:
    WorkerThread();
    ~WorkerThread();
    WorkerThread(const WorkerThread &) = delete;
    WorkerThread &operator=(const WorkerThread &) = delete;
};

/** A counted thread waiting for work (a daemon worker blocked on an
 *  empty queue) is not simulating while in scope. */
class Idle
{
  public:
    Idle();
    ~Idle();
    Idle(const Idle &) = delete;
    Idle &operator=(const Idle &) = delete;

  private:
    bool wasCounted_;
};

/** Count one more helper if a CPU is free; false leaves the count as
 *  it was and the caller does the helper's work itself. */
bool tryClaimHelper();

/** Give back a CPU tryClaimHelper granted. */
void releaseHelper();

/**
 * Start this process's simulating count at @p count, the count of the
 * process that spawned it as a job runner. That count holds the
 * parent's thread that waits on this runner, and the calling thread
 * stands in for it. Call before this process starts any thread.
 */
void inheritSimulating(int count);

} // namespace cpu_budget
} // namespace nuca

#endif // NUCA_BASE_CPU_BUDGET_HH
