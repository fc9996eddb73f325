#include "workload/synth_workload.hh"

#include <algorithm>

#include "base/logging.hh"

namespace nuca {

namespace {

/** Cap on dependence distances; far below the done-ring span. */
constexpr std::uint32_t maxDepDist = 64;

/** Each core's private slice of the address space. */
Addr
coreBase(CoreId core)
{
    return (static_cast<Addr>(core) + 1) << 40;
}

/** One global base for process-wide shared data (parallel mode). */
constexpr Addr sharedBase = 1ull << 45;

} // namespace

SynthWorkload::SynthWorkload(const WorkloadProfile &profile,
                             CoreId core, std::uint64_t seed)
    : profile_(profile),
      // Mean distance m maps to geometric success probability 1/m
      // (distance = 1 + failures).
      depDistDraw_(1.0 / std::max(profile.meanDepDist, 1.0),
                   maxDepDist - 1),
      rng_(seed ^ (static_cast<std::uint64_t>(core) << 32) ^
           0xa5a5a5a5ull),
      data_(profile.regions, coreBase(core) + (1ull << 32)),
      branches_(profile.branches, rng_.split()),
      codeBase_(coreBase(core)),
      dataBase_(coreBase(core) + (1ull << 32)),
      pc_(codeBase_)
{
    fatal_if(profile_.loadFrac + profile_.storeFrac +
                     profile_.branchFrac >
                 1.0,
             "instruction-mix fractions exceed 1");
    fatal_if(profile_.codeFootprintBytes < 1024,
             "code footprint must be at least 1 KB");
    fatal_if(profile_.sharedFrac < 0.0 || profile_.sharedFrac > 1.0,
             "sharedFrac must be in [0, 1]");
    fatal_if(profile_.sharedFrac > 0.0 &&
                 profile_.sharedRegions.empty(),
             "sharedFrac > 0 needs sharedRegions");
    if (!profile_.sharedRegions.empty()) {
        sharedData_ = std::make_unique<ReuseModel>(
            profile_.sharedRegions, sharedBase);
    }

    // Pin every branch site to a fixed PC and taken-target inside
    // the code footprint, so the predictor can learn per-site
    // behaviour and taken branches scatter fetch across the code.
    const std::uint64_t code_words = profile_.codeFootprintBytes / 4;
    sitePcs_.reserve(branches_.numSites());
    siteTargets_.reserve(branches_.numSites());
    for (unsigned s = 0; s < branches_.numSites(); ++s) {
        sitePcs_.push_back(codeBase_ + rng_.below(code_words) * 4);
        siteTargets_.push_back(codeBase_ + rng_.below(code_words) * 4);
    }
}

OpClass
SynthWorkload::drawAluOp()
{
    if (rng_.chance(profile_.fpFrac)) {
        const double u = rng_.real();
        if (u < 0.70)
            return OpClass::FpAlu;
        if (u < 0.95)
            return OpClass::FpMult;
        return OpClass::FpDiv;
    }
    if (rng_.chance(profile_.mulDivFrac)) {
        return rng_.chance(0.8) ? OpClass::IntMult : OpClass::IntDiv;
    }
    return OpClass::IntAlu;
}

void
SynthWorkload::fillDeps(SynthInst &inst)
{
    const unsigned num_deps = rng_.chance(0.7) ? 2 : 1;
    for (unsigned d = 0; d < num_deps; ++d) {
        const auto dist = static_cast<std::uint32_t>(
            1 + depDistDraw_.sample(rng_));
        inst.depDist[d] = std::min(dist, maxDepDist);
    }

    if (inst.isLoad() && sinceLastLoad_ > 0 &&
        rng_.chance(profile_.loadChainFrac)) {
        // Pointer chase: the address depends on the previous load.
        inst.depDist[0] = std::min(sinceLastLoad_, maxDepDist);
    }
}

SynthInst
SynthWorkload::next()
{
    SynthInst inst;

    const double u = rng_.real();
    if (u < profile_.loadFrac) {
        inst.op = OpClass::Load;
    } else if (u < profile_.loadFrac + profile_.storeFrac) {
        inst.op = OpClass::Store;
    } else if (u < profile_.loadFrac + profile_.storeFrac +
                       profile_.branchFrac) {
        inst.op = OpClass::Branch;
    } else {
        inst.op = drawAluOp();
    }

    if (inst.isBranch()) {
        const auto outcome = branches_.next(rng_);
        inst.pc = sitePcs_[outcome.site];
        inst.taken = outcome.taken;
        inst.target = siteTargets_[outcome.site];
        pc_ = inst.taken ? inst.target : inst.pc + 4;
    } else {
        inst.pc = pc_;
        pc_ += 4;
        if (pc_ >= codeBase_ + profile_.codeFootprintBytes)
            pc_ = codeBase_;
    }

    if (inst.isMem()) {
        const bool shared =
            sharedData_ && rng_.chance(profile_.sharedFrac);
        inst.effAddr = shared ? sharedData_->nextAddr(rng_)
                              : data_.nextAddr(rng_);
    }

    fillDeps(inst);

    // Maintain the exact distance from the *next* instruction back
    // to the most recent load (0 = no load seen yet).
    if (inst.isLoad()) {
        sinceLastLoad_ = 1;
    } else if (sinceLastLoad_ > 0) {
        sinceLastLoad_ = std::min(sinceLastLoad_ + 1, maxDepDist);
    }

    return inst;
}

void
SynthWorkload::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("WORK"));
    rng_.checkpoint(s);
    data_.checkpoint(s);
    s.putBool(sharedData_ != nullptr);
    if (sharedData_)
        sharedData_->checkpoint(s);
    branches_.checkpoint(s);
    s.putU64(pc_);
    s.putU32(sinceLastLoad_);
}

void
SynthWorkload::restore(Deserializer &d)
{
    d.expectTag(fourcc("WORK"), "synthetic workload");
    rng_.restore(d);
    data_.restore(d);
    const bool has_shared = d.getBool();
    if (has_shared != (sharedData_ != nullptr))
        throw CheckpointError("shared data region presence "
                              "mismatch");
    if (sharedData_)
        sharedData_->restore(d);
    branches_.restore(d);
    pc_ = d.getU64();
    sinceLastLoad_ = d.getU32();
}

} // namespace nuca
