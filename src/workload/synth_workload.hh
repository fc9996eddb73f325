/**
 * @file
 * The deterministic synthetic instruction stream: combines a
 * WorkloadProfile with a seed to produce the committed path an
 * OooCore executes. Each core's addresses live in a disjoint region
 * of the address space, as the paper's multiprogrammed SPEC mixes
 * have no sharing.
 */

#ifndef NUCA_WORKLOAD_SYNTH_WORKLOAD_HH
#define NUCA_WORKLOAD_SYNTH_WORKLOAD_HH

#include <memory>
#include <vector>

#include "base/random.hh"
#include "cpu/synth_inst.hh"
#include "workload/branch_model.hh"
#include "workload/profile.hh"
#include "workload/reuse_model.hh"

namespace nuca {

/** An InstSource generated from a WorkloadProfile. */
class SynthWorkload : public InstSource
{
  public:
    /**
     * @param profile the application description
     * @param core which core the stream runs on (fixes the address
     *        space partition)
     * @param seed stream seed; different seeds model different
     *        fast-forward points of the same application
     */
    SynthWorkload(const WorkloadProfile &profile, CoreId core,
                  std::uint64_t seed);

    SynthInst next() override;

    /** A profile with a shared fraction reaches the shared regions
     *  every core's stream maps to the same addresses. */
    bool sharesData() const override { return profile_.sharedFrac > 0.0; }

    /**
     * Checkpoint the stream position: the RNG, the reuse-model
     * cursors, the branch-site loop positions, and the PC walk. The
     * profile-derived layout is reconstructed by the constructor.
     */
    void checkpoint(Serializer &s) const override;
    void restore(Deserializer &d) override;

    const WorkloadProfile &profile() const { return profile_; }

    /** Lowest data address this stream can generate. */
    Addr dataBase() const { return dataBase_; }

  private:
    OpClass drawAluOp();
    void fillDeps(SynthInst &inst);

    WorkloadProfile profile_;
    /** Dependence-distance sampler (profile-derived, stateless). */
    GeometricTable depDistDraw_;
    Rng rng_;
    ReuseModel data_;
    /** Shared-data regions (parallel workloads); else empty. */
    std::unique_ptr<ReuseModel> sharedData_;
    BranchModel branches_;

    Addr codeBase_;
    Addr dataBase_;
    Addr pc_;
    /** Fixed PC of each static branch site. */
    std::vector<Addr> sitePcs_;
    /** Fixed taken-target of each static branch site. */
    std::vector<Addr> siteTargets_;
    /** Dynamic distance to the most recent load (0 = none yet). */
    std::uint32_t sinceLastLoad_ = 0;
};

} // namespace nuca

#endif // NUCA_WORKLOAD_SYNTH_WORKLOAD_HH
