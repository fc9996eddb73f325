#include "sim_jobs.hh"

#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "base/random.hh"
#include "bench/common.hh"
#include "sim/sweep_store.hh"
#include "workload/spec_profiles.hh"

namespace nbench {

using namespace nuca;

namespace {

/** The paper's memory-bound mix (perf_bench's spec_memory): L2
 *  misses on every core keep the L3 organization busy. */
const std::vector<std::string> kLlcApps = {"mcf", "art", "swim",
                                           "equake"};

const L3Scheme kAllSchemes[] = {L3Scheme::Private, L3Scheme::Shared,
                                L3Scheme::Adaptive,
                                L3Scheme::RandomReplacement};

/** tools/perf_bench.cc's compute_bound profile: a 48 KB cyclic
 *  working set that lives in the L1D and a mostly-ALU stream, so
 *  cores tick on nearly every cycle. */
WorkloadProfile
computeProfile()
{
    WorkloadProfile p;
    p.name = "compute";
    p.loadFrac = 0.20;
    p.storeFrac = 0.08;
    p.branchFrac = 0.15;
    p.fpFrac = 0.30;
    p.mulDivFrac = 0.05;
    p.meanDepDist = 16.0;
    p.loadChainFrac = 0.0;
    p.codeFootprintBytes = 16ull << 10;
    p.regions = {MemRegion{48ull << 10, 1.0, RegionPattern::Cyclic}};
    p.llcIntensive = false;
    return p;
}

/** tools/perf_bench.cc's pointer-chase profile: nearly every load
 *  depends on the previous one across 64 MB, so cores sleep through
 *  whole memory round trips. */
WorkloadProfile
pchaseProfile()
{
    WorkloadProfile p;
    p.name = "pchase";
    p.loadFrac = 0.40;
    p.storeFrac = 0.02;
    p.branchFrac = 0.08;
    p.meanDepDist = 3.0;
    p.loadChainFrac = 0.95;
    p.codeFootprintBytes = 8ull << 10;
    p.regions = {MemRegion{64ull << 20, 1.0, RegionPattern::Random}};
    p.llcIntensive = true;
    return p;
}

std::vector<WorkloadProfile>
profilesOf(const std::vector<std::string> &apps)
{
    std::vector<WorkloadProfile> out;
    for (const auto &app : apps)
        out.push_back(specProfile(app));
    return out;
}

SimWindow
window(Cycle warmup, Cycle measure, bool smoke)
{
    return smoke ? SimWindow{warmup / 100, measure / 100}
                 : SimWindow{warmup, measure};
}

/**
 * @p count 4-app mixes in which every pool application fills the
 * same number of slots (the first ones one more when the slots do
 * not divide evenly), shuffled by @p seed. Unlike makeMixes' draw
 * with replacement, the op's total work then barely depends on the
 * seed, which keeps run-to-run spread inside the metric bounds.
 */
std::vector<ExperimentSpec>
balancedMixes(const std::vector<std::string> &pool, unsigned count,
              std::uint64_t seed)
{
    std::vector<std::string> slots;
    for (std::size_t i = 0; slots.size() < count * 4u; ++i)
        slots.push_back(pool[i % pool.size()]);
    Rng rng(seed);
    for (std::size_t i = slots.size() - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.below(i + 1)]);
    std::vector<ExperimentSpec> mixes;
    for (unsigned m = 0; m < count; ++m) {
        ExperimentSpec spec;
        spec.apps.assign(slots.begin() + m * 4,
                         slots.begin() + m * 4 + 4);
        spec.seed = rng.next();
        mixes.push_back(std::move(spec));
    }
    return mixes;
}

std::uint64_t
digestOf(const std::string &bytes)
{
    return hashBytes(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
}

/** figure_sweep's op in bench::runAll's terms. */
struct FigureSweep
{
    std::vector<std::pair<std::string, SystemConfig>> configs;
    std::vector<ExperimentSpec> mixes;
    SimWindow window{0, 0};
};

FigureSweep
figureSweep(std::uint64_t op_seed, bool smoke)
{
    FigureSweep sweep;
    for (const auto scheme : {L3Scheme::Private, L3Scheme::Shared,
                              L3Scheme::Adaptive})
        sweep.configs.emplace_back(to_string(scheme),
                                   SystemConfig::baseline(scheme));
    sweep.mixes = balancedMixes(llcIntensiveNames(), 4, op_seed);
    sweep.window = window(250000, 250000, smoke);
    return sweep;
}

/** Digest of a figure sweep's result document, @p flat holding one
 *  MixResult per (scheme, mix) in opJobs order. */
std::uint64_t
figureDigest(const FigureSweep &sweep,
             const std::vector<MixResult> &flat)
{
    std::vector<bench::SchemeResults> results;
    for (std::size_t s = 0; s < sweep.configs.size(); ++s) {
        bench::SchemeResults scheme;
        scheme.label = sweep.configs[s].first;
        for (std::size_t m = 0; m < sweep.mixes.size(); ++m)
            scheme.mixes.push_back(flat.at(s * sweep.mixes.size() + m));
        results.push_back(std::move(scheme));
    }
    return digestOf(
        bench::resultsToJson(sweep.mixes, results, sweep.window).dump());
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "busy_tick", "llc_mix", "latency_chase", "figure_sweep",
        "sweepd"};
    return names;
}

std::uint64_t
opSeed(std::uint64_t seed, std::size_t op)
{
    Rng rng(seed ^ (op * 0x9e3779b97f4a7c15ull));
    return rng.next();
}

std::vector<SimJob>
opJobs(const std::string &workload, std::uint64_t op_seed, bool smoke)
{
    const auto job = [&](std::string label, SystemConfig config,
                         std::vector<std::string> apps, SimWindow w) {
        SimJob j;
        j.label = std::move(label);
        j.config = config;
        j.apps = std::move(apps);
        j.profiles = profilesOf(j.apps);
        j.seed = op_seed;
        j.window = w;
        return j;
    };
    const auto custom = [&](std::string label, SystemConfig config,
                            const WorkloadProfile &profile, SimWindow w) {
        SimJob j = job(std::move(label), config, {}, w);
        j.apps.assign(config.numCores, profile.name);
        j.profiles.assign(config.numCores, profile);
        j.customProfiles = true;
        return j;
    };

    std::vector<SimJob> jobs;
    if (workload == "busy_tick") {
        jobs.push_back(custom("busy_tick",
                              SystemConfig::baseline(L3Scheme::Adaptive),
                              computeProfile(),
                              window(200000, 100000, smoke)));
    } else if (workload == "llc_mix") {
        for (const auto scheme : kAllSchemes) {
            jobs.push_back(job(to_string(scheme),
                               SystemConfig::baseline(scheme), kLlcApps,
                               window(100000, 400000, smoke)));
        }
    } else if (workload == "latency_chase") {
        jobs.push_back(custom("latency_chase",
                              SystemConfig::scaledTech(L3Scheme::Adaptive),
                              pchaseProfile(),
                              window(250000, 15000000, smoke)));
    } else if (workload == "figure_sweep") {
        const FigureSweep sweep = figureSweep(op_seed, smoke);
        for (const auto &[label, config] : sweep.configs) {
            for (std::size_t m = 0; m < sweep.mixes.size(); ++m) {
                const auto &mix = sweep.mixes[m];
                jobs.push_back(job(label + ".mix" + std::to_string(m),
                                   config, mix.apps, sweep.window));
                jobs.back().seed = mix.seed;
            }
        }
    } else if (workload == "sweepd") {
        jobs.push_back(job("sweepd",
                           SystemConfig::baseline(L3Scheme::Adaptive),
                           kLlcApps, window(100000, 400000, smoke)));
    } else {
        fatal("unknown workload '", workload, "'");
    }
    return jobs;
}

const SimJob &
primaryJob(const std::vector<SimJob> &jobs)
{
    for (const auto &job : jobs) {
        if (job.config.scheme == L3Scheme::Adaptive)
            return job;
    }
    return jobs.front();
}

std::uint64_t
opDigest(const std::string &workload, std::uint64_t op_seed, bool smoke,
         const std::vector<JobResult> &results)
{
    if (workload == "figure_sweep") {
        std::vector<MixResult> flat;
        for (const auto &r : results)
            flat.push_back(r.mix);
        return figureDigest(figureSweep(op_seed, smoke), flat);
    }
    std::string bytes;
    for (const auto &r : results)
        bytes += hex16(r.digest);
    return digestOf(bytes);
}

std::unique_ptr<CmpSystem>
buildSystem(const SimJob &job)
{
    return std::make_unique<CmpSystem>(job.config, job.profiles,
                                       job.seed);
}

JobResult
runMeasured(CmpSystem &system, const SimJob &job)
{
    JobResult out;
    system.resetStats();
    system.run(job.window.measureCycles);

    out.mix.ipc = system.ipcs();
    for (unsigned c = 0; c < system.numCores(); ++c) {
        out.mix.l3AccessesPerKilocycle.push_back(
            system.l3AccessesPerKilocycle(static_cast<CoreId>(c)));
    }
    out.measuredInsts = measuredInsts(out.mix, job.window.measureCycles);
    std::ostringstream dump;
    system.statsRoot().dump(dump);
    out.digest = digestOf(dump.str());
    return out;
}

JobResult
simulate(const SimJob &job, const CheckpointConfig &cache)
{
    if (!job.customProfiles) {
        RunPolicy policy;
        policy.ckpt = cache;
        JobResult out;
        out.mix = runMix(job.config, ExperimentSpec{job.apps, job.seed},
                         job.window, std::string(), policy);
        out.measuredInsts =
            measuredInsts(out.mix, job.window.measureCycles);
        out.digest = digestOf(mixResultToJson(out.mix).dump());
        return out;
    }
    const auto system = buildSystem(job);
    const std::uint64_t hash = configHash(job.config);
    const std::string warmFile = warmupPath(
        cache, warmupKey(job.config, job.apps, job.seed,
                         job.window.warmupCycles));
    if (!tryRestoreCheckpoint(*system, warmFile, hash)) {
        system->run(job.window.warmupCycles);
        saveCheckpoint(*system, warmFile, hash);
    }
    return runMeasured(*system, job);
}

std::map<std::string, ino_t>
cacheListing(const std::string &dir)
{
    std::map<std::string, ino_t> out;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        struct stat st{};
        if (::stat(entry.path().c_str(), &st) == 0)
            out[entry.path().string()] = st.st_ino;
    }
    return out;
}

double
measuredInsts(const MixResult &mix, Cycle cycles)
{
    double insts = 0.0;
    for (const double ipc : mix.ipc)
        insts += ipc * static_cast<double>(cycles);
    return insts;
}

OpRun
runOp(const RunOptions &o, std::uint64_t op_seed,
      const CheckpointConfig &cache)
{
    OpRun out;
    // Neither runAll nor runMix says whether it restored; an op that
    // saved no warm-up left the cache's files as it found them.
    const auto before = cacheListing(cache.dir);
    if (o.workload == "figure_sweep") {
        const FigureSweep sweep = figureSweep(op_seed, o.smoke);
        ::setenv("REPRO_CKPT_DIR", cache.dir.c_str(), 1);
        const auto t0 = Clock::now();
        const auto results = bench::runAll(sweep.configs, sweep.mixes,
                                           sweep.window, o.workers);
        out.wallS = secondsSince(t0);
        ::unsetenv("REPRO_CKPT_DIR");
        std::vector<MixResult> flat;
        for (const auto &scheme : results) {
            for (const auto &mix : scheme.mixes) {
                flat.push_back(mix);
                out.insts += measuredInsts(mix, sweep.window.measureCycles);
            }
        }
        out.digest = figureDigest(sweep, flat);
    } else {
        std::vector<JobResult> results;
        const auto t0 = Clock::now();
        for (const auto &job : opJobs(o.workload, op_seed, o.smoke)) {
            results.push_back(simulate(job, cache));
            out.insts += results.back().measuredInsts;
        }
        out.wallS = secondsSince(t0);
        out.digest = opDigest(o.workload, op_seed, o.smoke, results);
    }
    out.restored = !before.empty() && cacheListing(cache.dir) == before;
    return out;
}

} // namespace nbench
