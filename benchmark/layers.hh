/**
 * @file
 * The traced pass: per-layer metrics for one workload, timed from
 * outside the simulator through the layers' public functions on the
 * workload's own inputs (op 0's jobs). It never feeds the end-to-end
 * metrics; its spans go to <workload>.trace.json.
 */

#ifndef NUCA_BENCHMARK_LAYERS_HH
#define NUCA_BENCHMARK_LAYERS_HH

#include "bench.hh"

namespace nbench {

void runTracedPass(const RunOptions &options, Report &report);

} // namespace nbench

#endif // NUCA_BENCHMARK_LAYERS_HH
