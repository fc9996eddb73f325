#include "workload/spec_profiles.hh"

#include "base/logging.hh"

namespace nuca {

namespace {

constexpr std::uint64_t kib = 1024;
constexpr std::uint64_t mib = 1024 * 1024;

MemRegion
randomly(std::uint64_t bytes, double weight)
{
    return MemRegion{bytes, weight, RegionPattern::Random};
}

MemRegion
stream(double weight)
{
    return MemRegion{64 * mib, weight, RegionPattern::Stream};
}

/** Branch mixtures: integer codes mispredict more than FP codes. */
BranchModelParams
intBranches(double random_frac)
{
    BranchModelParams p;
    p.biasedFrac = 0.60;
    p.loopFrac = 0.32;
    p.randomFrac = random_frac;
    p.biasedTakenProb = 0.95;
    p.loopPeriod = 7;
    return p;
}

BranchModelParams
fpBranches()
{
    BranchModelParams p;
    p.biasedFrac = 0.45;
    p.loopFrac = 0.53;
    p.randomFrac = 0.02;
    p.biasedTakenProb = 0.97;
    p.loopPeriod = 10;
    return p;
}

/** Compact row constructor shared by all profiles. */
WorkloadProfile
make(const char *name, double load_frac, double store_frac,
     double branch_frac, double fp_frac, double dep_dist,
     double chain_frac, const BranchModelParams &branches,
     std::uint64_t code_bytes, std::vector<MemRegion> regions,
     bool intensive)
{
    WorkloadProfile p;
    p.name = name;
    p.loadFrac = load_frac;
    p.storeFrac = store_frac;
    p.branchFrac = branch_frac;
    p.fpFrac = fp_frac;
    p.meanDepDist = dep_dist;
    p.loadChainFrac = chain_frac;
    p.branches = branches;
    p.codeFootprintBytes = code_bytes;
    p.regions = std::move(regions);
    p.llcIntensive = intensive;
    return p;
}

std::vector<WorkloadProfile>
buildProfiles()
{
    // Region roles. "hot" is L1-resident scratch/stack data; "warm"
    // is L2-resident working set; the remaining regions set the L3
    // footprint and the access intensity. One L3 way per set equals
    // 256 KB of footprint (4096 sets x 64 B).
    std::vector<WorkloadProfile> v;

    // ---------------- LLC-intensive integer codes ----------------

    // mcf: huge sparse pointer structure. Needs only ~1 way per set;
    // everything else is hopeless capacity (Figure 3's inner curve).
    v.push_back(make(
        "mcf", 0.34, 0.09, 0.12, 0.0, 16, 0.25, intBranches(0.10),
        16 * kib,
        {randomly(32 * kib, 0.56), randomly(96 * kib, 0.08),
         randomly(128 * kib, 0.12), stream(0.24)},
        true));

    // gzip: compression tables saturate around four ways per set
    // (Figure 3's example of a 4-way-hungry application).
    v.push_back(make(
        "gzip", 0.26, 0.15, 0.13, 0.0, 14, 0.02, intBranches(0.07),
        24 * kib,
        {randomly(32 * kib, 0.84), randomly(96 * kib, 0.06),
         randomly(768 * kib, 0.07), randomly(2 * mib, 0.01),
         stream(0.02)},
        true));

    // vpr: routing graphs; keeps gaining to ~6 ways.
    v.push_back(make(
        "vpr", 0.30, 0.11, 0.12, 0.0, 13, 0.12, intBranches(0.09),
        32 * kib,
        {randomly(32 * kib, 0.775), randomly(96 * kib, 0.06),
         randomly(1536 * kib, 0.15), stream(0.015)},
        true));

    // twolf: placement; similar but slightly larger appetite.
    v.push_back(make(
        "twolf", 0.29, 0.09, 0.13, 0.0, 15, 0.08, intBranches(0.10),
        32 * kib,
        {randomly(32 * kib, 0.745), randomly(96 * kib, 0.06),
         randomly(1792 * kib, 0.18), stream(0.015)},
        true));

    // parser: dictionary; modest plateau near 3 ways plus a sparse
    // tail.
    v.push_back(make(
        "parser", 0.28, 0.11, 0.14, 0.0, 15, 0.10, intBranches(0.09),
        48 * kib,
        {randomly(32 * kib, 0.755), randomly(96 * kib, 0.06),
         randomly(1024 * kib, 0.11), randomly(8 * mib, 0.075)},
        true));

    // bzip2: block sorting with streaming output.
    v.push_back(make(
        "bzip2", 0.27, 0.12, 0.12, 0.0, 14, 0.04, intBranches(0.08),
        24 * kib,
        {randomly(32 * kib, 0.82), randomly(96 * kib, 0.06),
         randomly(896 * kib, 0.09), stream(0.03)},
        true));

    // gap: computational group theory over large lists.
    v.push_back(make(
        "gap", 0.29, 0.13, 0.12, 0.0, 13, 0.08, intBranches(0.07),
        48 * kib,
        {randomly(32 * kib, 0.79), randomly(96 * kib, 0.06),
         randomly(768 * kib, 0.10), randomly(12 * mib, 0.05)},
        true));

    // ------------- LLC-intensive floating-point codes -------------

    // ammp: molecular dynamics; very low IPC, working set mostly
    // beyond even the full 4 MB (the Section 4.3 anecdote shows the
    // scheme feeding it capacity for only marginal gains).
    v.push_back(make(
        "ammp", 0.34, 0.08, 0.07, 0.75, 14, 0.15, fpBranches(),
        24 * kib,
        {randomly(32 * kib, 0.58), randomly(96 * kib, 0.06),
         randomly(3584 * kib, 0.28), randomly(24 * mib, 0.08)},
        true));

    // art: neural-net weights; ~3 MB of reusable state, one of the
    // biggest winners from extra capacity (Figure 7).
    v.push_back(make(
        "art", 0.33, 0.07, 0.09, 0.70, 20, 0.02, fpBranches(),
        12 * kib,
        {randomly(32 * kib, 0.70), randomly(96 * kib, 0.06),
         randomly(2304 * kib, 0.23), stream(0.01)},
        true));

    // swim: pure streaming stencil; compulsory misses dominate, so
    // capacity barely helps.
    v.push_back(make(
        "swim", 0.31, 0.13, 0.04, 0.85, 28, 0.0, fpBranches(),
        8 * kib,
        {randomly(32 * kib, 0.75), randomly(96 * kib, 0.07),
         stream(0.18)},
        true));

    // lucas: FFT working set plus streaming passes.
    v.push_back(make(
        "lucas", 0.29, 0.12, 0.04, 0.85, 22, 0.0, fpBranches(),
        8 * kib,
        {randomly(32 * kib, 0.79), randomly(96 * kib, 0.06),
         randomly(1280 * kib, 0.10), stream(0.05)},
        true));

    // equake: sparse matrix-vector products; mixed reuse.
    v.push_back(make(
        "equake", 0.32, 0.09, 0.08, 0.70, 17, 0.10, fpBranches(),
        16 * kib,
        {randomly(32 * kib, 0.78), randomly(96 * kib, 0.06),
         randomly(1280 * kib, 0.12), stream(0.04)},
        true));

    // galgel: blocked dense kernels; saturates near 3 ways.
    v.push_back(make(
        "galgel", 0.30, 0.08, 0.06, 0.80, 20, 0.0, fpBranches(),
        16 * kib,
        {randomly(32 * kib, 0.84), randomly(96 * kib, 0.06),
         randomly(704 * kib, 0.07), randomly(2 * mib, 0.03)},
        true));

    // apsi: weather code; small plateau plus streaming.
    v.push_back(make(
        "apsi", 0.30, 0.11, 0.05, 0.80, 20, 0.0, fpBranches(),
        32 * kib,
        {randomly(32 * kib, 0.84), randomly(96 * kib, 0.06),
         randomly(512 * kib, 0.06), stream(0.04)},
        true));

    // -------------------- L2-resident codes ----------------------
    // Below ~9 L3 data accesses per kilocycle: the paper keeps them
    // to show robustness (Sections 4.1 and 4.3).

    // gcc: big code footprint; data fits the L2.
    v.push_back(make(
        "gcc", 0.26, 0.13, 0.15, 0.0, 13, 0.05, intBranches(0.09),
        192 * kib,
        {randomly(32 * kib, 0.86), randomly(96 * kib, 0.12),
         randomly(3 * mib, 0.02)},
        false));

    // crafty: chess; nearly everything is L1/L2-resident.
    v.push_back(make(
        "crafty", 0.29, 0.08, 0.12, 0.0, 14, 0.03, intBranches(0.10),
        64 * kib,
        {randomly(32 * kib, 0.87), randomly(96 * kib, 0.12),
         randomly(2 * mib, 0.01)},
        false));

    // eon: C++ ray tracer; tiny data set, taken-branch heavy.
    v.push_back(make(
        "eon", 0.27, 0.16, 0.11, 0.30, 15, 0.02, intBranches(0.05),
        96 * kib,
        {randomly(32 * kib, 0.89), randomly(96 * kib, 0.105),
         randomly(1 * mib, 0.005)},
        false));

    // perlbmk: interpreter; code-limited rather than data-limited.
    v.push_back(make(
        "perlbmk", 0.28, 0.14, 0.14, 0.0, 12, 0.04, intBranches(0.08),
        128 * kib,
        {randomly(32 * kib, 0.86), randomly(96 * kib, 0.12),
         randomly(1536 * kib, 0.02)},
        false));

    // wupwise: QCD; high IPC and a small L3 appetite, which is why
    // the adaptive scheme sacrifices it for ammp in Section 4.3.
    v.push_back(make(
        "wupwise", 0.28, 0.10, 0.05, 0.75, 24, 0.0, fpBranches(),
        16 * kib,
        {randomly(32 * kib, 0.87), randomly(96 * kib, 0.115),
         randomly(1 * mib, 0.015)},
        false));

    // mgrid: blocked multigrid; nearly L2-resident.
    v.push_back(make(
        "mgrid", 0.32, 0.08, 0.03, 0.88, 24, 0.0, fpBranches(),
        8 * kib,
        {randomly(32 * kib, 0.875), randomly(96 * kib, 0.115),
         stream(0.01)},
        false));

    // applu: PDE solver; like mgrid with a touch more traffic.
    v.push_back(make(
        "applu", 0.31, 0.10, 0.03, 0.88, 22, 0.0, fpBranches(),
        16 * kib,
        {randomly(32 * kib, 0.865), randomly(96 * kib, 0.125),
         stream(0.01)},
        false));

    // mesa: software rasterizer; L1-friendly.
    v.push_back(make(
        "mesa", 0.26, 0.14, 0.09, 0.55, 16, 0.0, intBranches(0.05),
        64 * kib,
        {randomly(32 * kib, 0.88), randomly(96 * kib, 0.11),
         randomly(1 * mib, 0.01)},
        false));

    // facerec: small kernels sweeping images.
    v.push_back(make(
        "facerec", 0.30, 0.09, 0.05, 0.80, 20, 0.0, fpBranches(),
        16 * kib,
        {randomly(32 * kib, 0.875), randomly(96 * kib, 0.115),
         stream(0.01)},
        false));

    // fma3d: crash simulation; mostly L2-resident state.
    v.push_back(make(
        "fma3d", 0.29, 0.12, 0.06, 0.75, 18, 0.0, fpBranches(),
        96 * kib,
        {randomly(32 * kib, 0.875), randomly(96 * kib, 0.11),
         randomly(2 * mib, 0.015)},
        false));

    return v;
}

} // namespace

const std::vector<WorkloadProfile> &
specProfiles()
{
    static const std::vector<WorkloadProfile> profiles =
        buildProfiles();
    return profiles;
}

const WorkloadProfile *
findProfile(const std::string &name)
{
    for (const auto &p : specProfiles()) {
        if (p.name == name)
            return &p;
    }
    // "idle" resolves too: job specs, Fig 5's among them, name the
    // no-interference companion like any application.
    if (name == idleProfile().name)
        return &idleProfile();
    return nullptr;
}

const WorkloadProfile &
specProfile(const std::string &name)
{
    const WorkloadProfile *p = findProfile(name);
    if (p == nullptr)
        fatal("unknown SPEC2000 profile '", name, "'");
    return *p;
}

std::vector<std::string>
llcIntensiveNames()
{
    std::vector<std::string> names;
    for (const auto &p : specProfiles()) {
        if (p.llcIntensive)
            names.push_back(p.name);
    }
    return names;
}

const WorkloadProfile &
idleProfile()
{
    static const WorkloadProfile profile = [] {
        WorkloadProfile p;
        p.name = "idle";
        p.loadFrac = 0.02;
        p.storeFrac = 0.01;
        p.branchFrac = 0.10;
        p.meanDepDist = 24;
        p.branches = fpBranches();
        p.codeFootprintBytes = 4 * kib;
        p.regions = {randomly(4 * kib, 1.0)};
        return p;
    }();
    return profile;
}

std::vector<std::string>
allProfileNames()
{
    std::vector<std::string> names;
    for (const auto &p : specProfiles())
        names.push_back(p.name);
    return names;
}

} // namespace nuca
