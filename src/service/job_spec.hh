/**
 * @file
 * The experiment-spec half of the nuca_sweepd protocol: what a client
 * submits, how it is validated, and the content key the full-result
 * cache files it under.
 *
 * A JobSpec is deliberately a *description*, not a SystemConfig dump:
 * clients name a base configuration (the paper's tables) plus a
 * scheme, and list only the config fields that differ from that
 * preset as `overrides` (SystemConfig's JSON codec). The result key,
 * however, is derived from the *expanded* configuration via the
 * checkpoint layer's runKey — the same content-addressing the warmup
 * cache uses, extended over scheme + mix + run length — so any knob
 * that changes simulated state changes the key and misses the cache.
 *
 * runJob is the one job body: the sweep daemon and the bench sweep
 * supervisor both run every spec through it.
 */

#ifndef NUCA_SERVICE_JOB_SPEC_HH
#define NUCA_SERVICE_JOB_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/json_writer.hh"
#include "sim/robustness.hh"
#include "sim/system_config.hh"

namespace nuca {
namespace service {

/** A malformed or unsatisfiable spec; the daemon answers the request
 *  with the message instead of dying. */
class SpecError : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

/** What kind of computation a job asks for. */
enum class JobKind
{
    Mix,       ///< runMix: one mix on one configuration
    MissCurve, ///< l3MissCurve: fig03's functional replay, one app
};

const char *to_string(JobKind kind);

/** One submitted experiment. */
struct JobSpec
{
    JobKind kind = JobKind::Mix;

    /** Base configuration: "baseline", "quad_private", "large8mb",
     *  or "scaled_tech". */
    std::string base = "baseline";
    /** L3 scheme: "private", "shared", "adaptive", or "random". */
    std::string scheme = "adaptive";
    /** Config fields that differ from the base + scheme preset, by
     *  configFields() name; kept canonical (in table order, none
     *  equal to the preset) by fromJson. Mix jobs only. */
    json::Value overrides = json::Value::object();
    /** Application names; numCores of them for Mix, one for
     *  MissCurve. */
    std::vector<std::string> apps;
    std::uint64_t seed = 0;
    Cycle warmupCycles = 200000;
    Cycle measureCycles = 1000000;
    /** Instructions replayed by a MissCurve job. */
    std::uint64_t insts = 20000000;

    /** Fair-share accounting bucket. */
    std::string tenant = "default";
    /** Higher runs earlier among equal-service tenants. */
    int priority = 0;
    /** Display label; defaulted from the spec when empty. */
    std::string label;

    /** Expand base+scheme into the full configuration and apply the
     *  overrides. @throws SpecError on unknown names or a config
     *  CmpSystem would refuse. */
    SystemConfig config() const;

    /** Validate everything (names, app count); @throws SpecError. */
    void validate() const;

    /** The label, or a generated "<kind>:<scheme>.<base> apps#seed"
     *  one. */
    std::string displayLabel() const;

    /**
     * Content key of this spec's full result: runKey(config, apps,
     * seed, warmup, measure) for Mix jobs, a tagged digest of
     * (app, insts) for MissCurve jobs. Two specs with equal keys
     * would simulate bit-identical runs.
     */
    std::uint64_t resultKey() const;

    json::Value toJson() const;

    /** Parse and validate; @throws SpecError on anything wrong. */
    static JobSpec fromJson(const json::Value &obj);
};

/** Parse an L3 scheme name; @throws SpecError. */
L3Scheme schemeFromString(const std::string &name);

/**
 * A Mix spec that runs exactly @p config: base "baseline", the
 * config's scheme, and every other difference as overrides.
 */
JobSpec specFor(const SystemConfig &config);

/**
 * Run @p spec under @p policy: runMix for a Mix job (traced under its
 * display label), l3MissCurve for a MissCurve job (with
 * policy.telemetry's trace on the replay's sample hook, the period
 * counted in instructions).
 */
MixResult runJob(const JobSpec &spec, const RunPolicy &policy);

} // namespace service
} // namespace nuca

#endif // NUCA_SERVICE_JOB_SPEC_HH
