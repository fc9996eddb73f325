/**
 * @file
 * The three four-core mixes the loop tests share with the benchmark's
 * sim workloads (benchmark/sim_jobs.cc keeps its own copy):
 *  - specMemoryMix(): mcf/art/swim/equake, memory-bound by SPEC
 *    standards but with enough overlap that some core almost always
 *    has work;
 *  - computeMix(): cache-resident and ALU-heavy, so almost no cycle
 *    is skippable and the busy-core tick path does all the work;
 *  - pchaseMix(): pointer chasers with about one miss in flight each,
 *    so on scaledTech (330-cycle memory) the machine sleeps through
 *    whole memory round trips.
 */

#ifndef NUCA_TESTS_SUPPORT_BENCH_MIXES_HH
#define NUCA_TESTS_SUPPORT_BENCH_MIXES_HH

#include <vector>

#include "workload/spec_profiles.hh"

namespace nuca {

inline std::vector<WorkloadProfile>
specMemoryMix()
{
    return {specProfile("mcf"), specProfile("art"),
            specProfile("swim"), specProfile("equake")};
}

inline std::vector<WorkloadProfile>
computeMix()
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
    // 48 KB of high-locality data: lives in the 64 KB L1D.
    p.regions = {MemRegion{48ull << 10, 1.0, RegionPattern::Cyclic}};
    p.llcIntensive = false;
    return {p, p, p, p};
}

inline std::vector<WorkloadProfile>
pchaseMix()
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
    return {p, p, p, p};
}

} // namespace nuca

#endif // NUCA_TESTS_SUPPORT_BENCH_MIXES_HH
