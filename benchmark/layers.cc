#include "layers.hh"

#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "base/stats.hh"
#include "cpu/memory_system.hh"
#include "serialize/serializer.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "sim_jobs.hh"
#include "sweepd_load.hh"
#include "workload/synth_workload.hh"

namespace nbench {

using namespace nuca;

namespace {

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1000.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
stat(const stats::Snapshot &snap, const std::string &name)
{
    const auto value = snap.value(name);
    if (!value)
        throw std::runtime_error("no statistic named " + name);
    return *value;
}

/** Sum of system.core<c>.<suffix> over the cores. */
double
coreSum(const stats::Snapshot &snap, unsigned cores,
        const std::string &suffix)
{
    double sum = 0.0;
    for (unsigned c = 0; c < cores; ++c)
        sum += stat(snap, "system.core" + std::to_string(c) + "." + suffix);
    return sum;
}

/** Counts the instructions a core pulls from the stream it wraps. */
class CountingSource : public InstSource
{
  public:
    explicit CountingSource(std::unique_ptr<InstSource> inner)
        : inner_(std::move(inner))
    {}

    SynthInst
    next() override
    {
        ++calls_;
        return inner_->next();
    }

    void checkpoint(Serializer &s) const override { inner_->checkpoint(s); }
    void restore(Deserializer &d) override { inner_->restore(d); }

    std::uint64_t calls() const { return calls_; }

  private:
    std::unique_ptr<InstSource> inner_;
    std::uint64_t calls_ = 0;
};

/** Times every call into the L3 organization it forwards to. */
class TimedL3 : public L3Organization
{
  public:
    explicit TimedL3(L3Organization &inner) : inner_(inner) {}

    L3Result
    access(const MemRequest &req, Cycle now) override
    {
        const auto t0 = Clock::now();
        const L3Result result = inner_.access(req, now);
        charge(t0);
        return result;
    }

    void
    writebackFromL2(CoreId core, Addr addr, Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_.writebackFromL2(core, addr, now);
        charge(t0);
    }

    std::string schemeName() const override { return inner_.schemeName(); }

    double ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    void
    charge(Clock::time_point t0)
    {
        ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
        ++calls_;
    }

    L3Organization &inner_;
    double ns_ = 0.0;
    std::uint64_t calls_ = 0;
};

/** @p core's instruction stream, seeded as CmpSystem seeds it. */
std::unique_ptr<SynthWorkload>
streamOf(const SimJob &job, unsigned core)
{
    return std::make_unique<SynthWorkload>(
        job.profiles[core], static_cast<CoreId>(core),
        job.seed + core * kCoreSeedStride);
}

/** serialize.* and sim.ckpt_file_*: the warmed @p system's image. */
void
checkpointLayers(const CmpSystem &system, const SimJob &job,
                 const RunOptions &o, Report &r, Tracer &tracer)
{
    const std::uint64_t hash = configHash(job.config);
    const std::string path = "probe.ckpt";
    std::vector<double> save, restore, fileSave, fileLoad;
    std::size_t bytes = 0;
    for (int t = 0; t < (o.smoke ? 1 : 5); ++t) {
        Serializer image;
        {
            Tracer::Span span(tracer, "serialize.save");
            const auto t0 = Clock::now();
            system.checkpoint(image);
            save.push_back(msSince(t0));
        }
        bytes = image.size();
        const auto target = buildSystem(job);
        {
            Tracer::Span span(tracer, "serialize.restore");
            Deserializer in(image.bytes());
            const auto t0 = Clock::now();
            target->restore(in);
            restore.push_back(msSince(t0));
        }
        Serializer again;
        target->checkpoint(again);
        r.attempt(again.bytes() == image.bytes()
                      ? std::string()
                      : "a restored system re-checkpoints differently");

        {
            Tracer::Span span(tracer, "sim.ckpt_file_save");
            const auto t0 = Clock::now();
            saveCheckpoint(system, path, hash);
            fileSave.push_back(msSince(t0));
        }
        const auto fresh = buildSystem(job);
        bool loaded = false;
        {
            Tracer::Span span(tracer, "sim.ckpt_file_load");
            const auto t0 = Clock::now();
            loaded = tryRestoreCheckpoint(*fresh, path, hash);
            fileLoad.push_back(msSince(t0));
        }
        r.attempt(loaded ? std::string()
                         : "the checkpoint file did not restore");
    }
    std::filesystem::remove(path);
    r.metric("serialize.ckpt_bytes", static_cast<double>(bytes), "B");
    r.metric("serialize.save_ms", median(save), "ms");
    r.metric("serialize.restore_ms", median(restore), "ms");
    r.metric("sim.ckpt_file_save_ms", median(fileSave), "ms");
    r.metric("sim.ckpt_file_load_ms", median(fileLoad), "ms");
}

/** The scheduler's counters, summed over the cores where per core. */
struct SchedCounters
{
    double ticks = 0.0;
    double batched = 0.0;
    double pops = 0.0;
};

SchedCounters
schedCounters(const CmpSystem &system)
{
    SchedCounters out;
    for (unsigned c = 0; c < system.numCores(); ++c)
        out.ticks += static_cast<double>(
            system.coreTicksExecuted(static_cast<CoreId>(c)));
    out.batched = static_cast<double>(system.decoupledBatchedCycles());
    out.pops = static_cast<double>(system.wakeHeapPops());
    return out;
}

/**
 * sim.*, workload.*, the model outputs of the core side, and (on the
 * same warmed machine) the checkpoint layer, all over the primary
 * job's measured window: the job run plain, then with counted
 * instruction streams, then the counted generator calls replayed
 * standalone.
 */
void
simLayers(const SimJob &job, const RunOptions &o, Report &r,
          Tracer &tracer)
{
    const auto system = buildSystem(job);
    JobResult plain;
    double wall = 0.0;
    SchedCounters before, after;
    {
        Tracer::Span span(tracer, "sim.warmup");
        system->run(job.window.warmupCycles);
    }
    {
        Tracer::Span span(tracer, "sim.measure");
        before = schedCounters(*system);
        const auto t0 = Clock::now();
        plain = runMeasured(*system, job);
        wall = secondsSince(t0);
        after = schedCounters(*system);
    }
    r.detail("primary_digest", hex16(plain.digest));
    const unsigned cores = system->numCores();
    const double coreCycles = static_cast<double>(cores) *
                              static_cast<double>(job.window.measureCycles);
    const double ticks = after.ticks - before.ticks;
    r.metric("sim.core_ticks", ticks, "count");
    r.metric("sim.ns_per_core_tick", ratio(wall * 1e9, ticks), "ns");
    r.metric("sim.skipped_frac", 1.0 - ratio(ticks, coreCycles), "ratio");
    r.metric("sim.batched_cycles_frac",
             ratio(after.batched - before.batched, coreCycles), "ratio");
    r.metric("sim.wake_heap_pops", after.pops - before.pops, "count");

    const stats::Snapshot snap(system->statsRoot());
    r.metric("cpu.committed_insts", coreSum(snap, cores, "committed_insts"),
             "count");
    r.metric("cpu.ipc_hmean", harmonicMean(plain.mix.ipc), "inst/cycle");
    r.metric("cache.l1d_miss_rate",
             ratio(coreSum(snap, cores, "mem.l1d.tags.misses"),
                   coreSum(snap, cores, "mem.l1d.tags.accesses")),
             "ratio");
    r.metric("cache.l2d_miss_rate",
             ratio(coreSum(snap, cores, "mem.l2d.tags.misses"),
                   coreSum(snap, cores, "mem.l2d.tags.accesses")),
             "ratio");
    double stalls = 0.0;
    for (const char *level : {"l1i", "l1d", "l2i", "l2d"})
        stalls += coreSum(snap, cores,
                          std::string("mem.") + level + ".mshrs.full_stalls");
    r.metric("cache.mshr_full_stalls", stalls, "count");
    r.metric("mem.queue_cycles_per_fetch",
             ratio(stat(snap, "system.memory.queue_cycles"),
                   stat(snap, "system.memory.fetches")),
             "cycles");

    // The wrapper costs about a tenth of the run, which is why only
    // the traced pass uses it; it must not change a single statistic.
    std::vector<std::uint64_t> warmCalls, calls;
    {
        Tracer::Span span(tracer, "sim.run_counted");
        std::vector<CountingSource *> counters;
        std::vector<std::unique_ptr<InstSource>> sources;
        for (unsigned c = 0; c < cores; ++c) {
            auto source =
                std::make_unique<CountingSource>(streamOf(job, c));
            counters.push_back(source.get());
            sources.push_back(std::move(source));
        }
        CmpSystem counted(job.config, std::move(sources));
        counted.run(job.window.warmupCycles);
        for (const auto *counter : counters)
            warmCalls.push_back(counter->calls());
        const JobResult result = runMeasured(counted, job);
        r.attempt(result.digest == plain.digest
                      ? std::string()
                      : "counting the instruction streams changed the "
                        "stats digest");
        for (const auto *counter : counters)
            calls.push_back(counter->calls());
    }

    // Replay the measured window's calls on fresh streams, past the
    // warm-up's untimed, three times for a steadier median.
    std::uint64_t checksum = 0;
    std::vector<double> genS;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::unique_ptr<SynthWorkload>> streams;
        for (unsigned c = 0; c < cores; ++c) {
            streams.push_back(streamOf(job, c));
            for (std::uint64_t n = 0; n < warmCalls[c]; ++n)
                checksum += streams[c]->next().pc;
        }
        Tracer::Span span(tracer, "workload.generate");
        const auto t0 = Clock::now();
        for (unsigned c = 0; c < cores; ++c) {
            for (std::uint64_t n = warmCalls[c]; n < calls[c]; ++n)
                checksum += streams[c]->next().pc;
        }
        genS.push_back(secondsSince(t0));
    }
    double total = 0.0;
    for (unsigned c = 0; c < cores; ++c)
        total += static_cast<double>(calls[c] - warmCalls[c]);
    r.detail("generator_checksum", hex16(checksum));
    r.metric("workload.gen_calls", total, "count");
    r.metric("workload.gen_ns_per_inst", ratio(median(genS) * 1e9, total),
             "ns");
    r.metric("workload.gen_share", ratio(median(genS), wall), "ratio");

    checkpointLayers(*system, job, o, r, tracer);
}

/** One replayed memory reference. */
struct Ref
{
    Addr pc;
    Addr addr;
    enum Kind : std::uint8_t { Fetch, Load, Store } kind;
};

struct SchemeNames
{
    L3Scheme scheme;
    const char *metric;
    const char *group;
};

const SchemeNames kSchemes[] = {
    {L3Scheme::Private, "private", "l3_private"},
    {L3Scheme::Shared, "shared", "l3_shared"},
    {L3Scheme::Adaptive, "adaptive", "l3_adaptive"},
    {L3Scheme::RandomReplacement, "random", "l3_random"},
};

/**
 * cache.* and nuca.*: the primary job's instruction streams, one
 * instruction per core per cycle, drive four real MemorySystems over
 * each real L3 organization (built inside a CmpSystem whose own cores
 * stay idle), the organization wrapped in a timing decorator.
 */
void
memoryReplay(const SimJob &job, const RunOptions &o, Report &r,
             Tracer &tracer)
{
    const std::size_t insts = o.smoke ? 2500 : 250000;
    const unsigned cores = job.config.numCores;
    std::vector<std::vector<Ref>> refs(cores);
    {
        Tracer::Span span(tracer, "workload.generate_stream");
        for (unsigned c = 0; c < cores; ++c) {
            const auto stream = streamOf(job, c);
            Addr line = ~Addr(0);
            for (std::size_t i = 0; i < insts; ++i) {
                const SynthInst inst = stream->next();
                // The core fetches once per cache line it enters.
                if (blockAlign(inst.pc) != line) {
                    line = blockAlign(inst.pc);
                    refs[c].push_back({inst.pc, inst.pc, Ref::Fetch});
                }
                if (inst.isMem()) {
                    refs[c].push_back({inst.pc, inst.effAddr,
                                       inst.isStore() ? Ref::Store
                                                      : Ref::Load});
                }
            }
        }
    }

    double hierarchyNs = 0.0;
    double hierarchyCalls = 0.0;
    for (const auto &names : kSchemes) {
        SimJob host = job;
        host.config.scheme = names.scheme;
        const auto system = buildSystem(host);
        TimedL3 l3(system->l3());
        stats::Group root("replay");
        std::vector<std::unique_ptr<MemorySystem>> mems;
        for (unsigned c = 0; c < cores; ++c) {
            mems.push_back(std::make_unique<MemorySystem>(
                root, "core" + std::to_string(c) + ".mem",
                static_cast<CoreId>(c), host.config.coreMem, l3));
        }

        const std::string prefix = std::string("nuca.") + names.metric;
        double replayNs = 0.0;
        {
            Tracer::Span span(tracer, prefix + ".replay");
            const auto t0 = Clock::now();
            // Round robin over the cores, one reference each per
            // cycle, until every stream is drained.
            std::size_t longest = 0;
            for (const auto &stream : refs)
                longest = std::max(longest, stream.size());
            for (std::size_t i = 0; i < longest; ++i) {
                for (unsigned c = 0; c < cores; ++c) {
                    if (i >= refs[c].size())
                        continue;
                    const Ref &ref = refs[c][i];
                    if (ref.kind == Ref::Fetch)
                        mems[c]->instFetch(ref.pc, i);
                    else
                        mems[c]->dataAccess(ref.addr, ref.kind == Ref::Store,
                                            i, ref.pc);
                }
            }
            replayNs = secondsSince(t0) * 1e9;
        }
        for (const auto &stream : refs)
            hierarchyCalls += static_cast<double>(stream.size());
        hierarchyNs += replayNs - l3.ns();
        r.metric(prefix + ".ns_per_access",
                 ratio(l3.ns(), static_cast<double>(l3.calls())), "ns");

        const stats::Snapshot snap(system->statsRoot());
        const std::string group = std::string("system.") + names.group + ".";
        const bool spreads = names.scheme == L3Scheme::Adaptive ||
                             names.scheme == L3Scheme::RandomReplacement;
        const double local =
            stat(snap, group + (spreads ? "local_hits.total" : "hits"));
        const double remote =
            spreads ? stat(snap, group + "remote_hits.total") : 0.0;
        const double misses = stat(snap, group + "misses.total");
        const double accesses = local + remote + misses;
        r.metric(prefix + ".local_hit_frac", ratio(local, accesses), "ratio");
        r.metric(prefix + ".miss_rate", ratio(misses, accesses), "ratio");
        if (spreads) {
            r.metric(prefix + ".remote_hit_frac", ratio(remote, accesses),
                     "ratio");
        }
        if (names.scheme == L3Scheme::Adaptive) {
            r.metric(prefix + ".repartitions",
                     stat(snap, group + "sharing_engine.repartitions"),
                     "count");
        }
    }
    r.metric("cache.ns_per_access", ratio(hierarchyNs, hierarchyCalls),
             "ns");
}

/**
 * sim.job_ms_p50.* and sim.worker_util: op 0's jobs through
 * runParallelOutcomes on a fresh checkpoint cache, cold then warm.
 * @return the cold pass's op digest.
 */
std::uint64_t
executorLayer(const std::vector<SimJob> &jobs, std::uint64_t seed0,
              const RunOptions &o, Report &r, Tracer &tracer)
{
    CheckpointConfig cache;
    cache.dir = "ckpt-executor";
    std::filesystem::remove_all(cache.dir);
    std::filesystem::create_directories(cache.dir);
    std::vector<std::size_t> index(jobs.size());
    std::iota(index.begin(), index.end(), std::size_t(0));

    std::vector<JobResult> cold;
    for (const std::string pass : {"cold", "warm"}) {
        std::vector<double> jobMs(jobs.size(), 0.0);
        const auto before = cacheListing(cache.dir);
        const auto t0 = Clock::now();
        std::vector<JobOutcome<JobResult>> outcomes;
        {
            Tracer::Span span(tracer, "sim.executor." + pass);
            outcomes = runParallelOutcomes(
                index,
                [&](std::size_t i) {
                    const double start = tracer.nowUs();
                    const auto t = Clock::now();
                    JobResult result = simulate(jobs[i], cache);
                    jobMs[i] = msSince(t);
                    tracer.complete(pass + " " + jobs[i].label, start,
                                    jobMs[i] * 1000.0);
                    return result;
                },
                o.workers);
        }
        const double passMs = msSince(t0);

        std::vector<JobResult> results;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto &outcome = outcomes[i];
            results.push_back(outcome.value);
            if (!outcome.ok()) {
                r.attempt(jobs[i].label + " failed: " + outcome.error);
            } else if (pass == "warm") {
                r.attempt(outcome.value.digest == cold[i].digest
                              ? std::string()
                              : "warm " + jobs[i].label +
                                    " changed its results");
            } else {
                r.attempt();
            }
        }
        if (pass == "warm") {
            r.attempt(cacheListing(cache.dir) == before
                          ? std::string()
                          : "the warm executor pass missed the "
                            "checkpoint cache");
        }
        r.metric("sim.job_ms_p50." + pass, median(jobMs), "ms");
        if (pass == "cold") {
            r.metric("sim.worker_util",
                     ratio(std::accumulate(jobMs.begin(), jobMs.end(), 0.0),
                           o.workers * passMs),
                     "ratio");
            cold = std::move(results);
        }
    }
    std::filesystem::remove_all(cache.dir);
    return opDigest(o.workload, seed0, o.smoke, cold);
}

} // namespace

void
runTracedPass(const RunOptions &o, Report &r)
{
    Tracer tracer;
    const std::uint64_t seed0 = opSeed(o.seed, 0);
    const std::vector<SimJob> jobs = opJobs(o.workload, seed0, o.smoke);
    const SimJob &primary = primaryJob(jobs);
    {
        Tracer::Span pass(tracer, "traced_pass");
        simLayers(primary, o, r, tracer);
        memoryReplay(primary, o, r, tracer);
        const std::uint64_t digest = executorLayer(jobs, seed0, o, r, tracer);
        r.detail("op0_digest", hex16(digest));
        {
            // The timed pass's own path (bench::runAll for
            // figure_sweep) must reach the same results.
            Tracer::Span span(tracer, "timed_op");
            CheckpointConfig cache;
            cache.dir = "ckpt-timed";
            std::filesystem::remove_all(cache.dir);
            std::filesystem::create_directories(cache.dir);
            const OpRun timed = runOp(o, seed0, cache);
            std::filesystem::remove_all(cache.dir);
            r.attempt(timed.digest == digest
                          ? std::string()
                          : "the timed pass's op 0 (" + hex16(timed.digest) +
                                ") differs from runParallelOutcomes' (" +
                                hex16(digest) + ")");
        }
        serviceProbe(o, r, tracer);
    }
    r.detail("spans", tracer.selfTimes());
    const std::string path = o.workload + ".trace.json";
    r.attempt(tracer.write(path) ? std::string()
                                 : "cannot write " + path);
    r.detail("trace", path);
}

} // namespace nbench
