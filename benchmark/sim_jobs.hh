/**
 * @file
 * The simulations the benchmark's workloads are made of. Every
 * workload's unit of work (an "op") is a list of SimJobs derived from
 * one op seed; this file defines those lists, runs a job through
 * runMix (or, for profiles runMix cannot take, the same steps on this
 * side), and digests what it produced.
 */

#ifndef NUCA_BENCHMARK_SIM_JOBS_HH
#define NUCA_BENCHMARK_SIM_JOBS_HH

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/checkpoint.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"

namespace nbench {

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** One simulation: a configuration, one application per core, a
 *  seed, and a window. */
struct SimJob
{
    std::string label;
    nuca::SystemConfig config;
    /** Application names; they key the checkpoint cache. */
    std::vector<std::string> apps;
    std::vector<nuca::WorkloadProfile> profiles;
    /** The profiles are not in the spec registry (busy_tick's and
     *  latency_chase's), so runMix cannot take the job. */
    bool customProfiles = false;
    std::uint64_t seed = 0;
    nuca::SimWindow window{0, 0};
};

/** What one finished job produced. */
struct JobResult
{
    nuca::MixResult mix;
    /** Instructions committed in the measured window. */
    double measuredInsts = 0.0;
    /** hashBytes of the result document (mixResultToJson) for a job
     *  run through runMix, else of the end-of-run stats dump. */
    std::uint64_t digest = 0;
};

/** The seed of op @p op of a run seeded with @p seed. */
std::uint64_t opSeed(std::uint64_t seed, std::size_t op);

/** The jobs of one op of @p workload, scheme-major for figure_sweep
 *  (the order bench::runAll submits them in). */
std::vector<SimJob> opJobs(const std::string &workload,
                           std::uint64_t op_seed, bool smoke);

/** The job the traced pass instruments: the adaptive one when an op
 *  has several. */
const SimJob &primaryJob(const std::vector<SimJob> &jobs);

/** Digest of an op: the figure document for figure_sweep, else the
 *  job digests in order. */
std::uint64_t opDigest(const std::string &workload,
                       std::uint64_t op_seed, bool smoke,
                       const std::vector<JobResult> &results);

/** The machine a job runs on, built from its profiles. */
std::unique_ptr<nuca::CmpSystem> buildSystem(const SimJob &job);

/** CmpSystem's per-core workload seed stride (cmp_system.cc): a
 *  caller building its own instruction sources must reproduce it. */
constexpr std::uint64_t kCoreSeedStride = 0x9e3779b9ull;

/** Reset the statistics of the warmed @p system and run @p job's
 *  measured window. */
JobResult runMeasured(nuca::CmpSystem &system, const SimJob &job);

/**
 * Run @p job on checkpoint cache @p cache: the warm-up restored from
 * the cache when it holds one, else simulated and saved, then the
 * measured window. A job of spec applications goes through runMix,
 * the path every harness and the daemon take. Only a job with
 * customProfiles runs the same steps here instead, on a machine built
 * from its profiles.
 */
JobResult simulate(const SimJob &job,
                   const nuca::CheckpointConfig &cache);

/**
 * The files in checkpoint cache @p dir with their inode numbers. A
 * save renames a new file over the old one and a restore only reads
 * it, so a run that restored every warm-up leaves the listing as it
 * found it.
 */
std::map<std::string, ino_t> cacheListing(const std::string &dir);

/** Instructions committed in @p mix's measured window of @p cycles. */
double measuredInsts(const nuca::MixResult &mix, nuca::Cycle cycles);

/** One op of a timed pass. */
struct OpRun
{
    double wallS = 0.0;
    /** Instructions committed in the measured windows. */
    double insts = 0.0;
    /** opDigest of the op's results. */
    std::uint64_t digest = 0;
    /** Every job's warm-up came from the checkpoint cache. */
    bool restored = false;
};

/**
 * Op @p op_seed of simulation workload @p o.workload on the
 * checkpoint cache @p cache: figure_sweep through bench::runAll, as
 * the figure harnesses run it, the others job after job on this
 * thread.
 */
OpRun runOp(const RunOptions &o, std::uint64_t op_seed,
            const nuca::CheckpointConfig &cache);

} // namespace nbench

#endif // NUCA_BENCHMARK_SIM_JOBS_HH
