/**
 * @file
 * The sweepd workload: a spawned nuca_sweepd daemon driven by one
 * single-threaded client over its Unix socket, one connection per
 * request. The timed pass runs a closed loop of distinct cache misses
 * (RunOptions::workers jobs in flight) and then cache hits on the
 * same specs; the traced pass's service probe splits a miss into its
 * RPCs, its queue wait, and the simulation itself.
 */

#ifndef NUCA_BENCHMARK_SWEEPD_LOAD_HH
#define NUCA_BENCHMARK_SWEEPD_LOAD_HH

#include "bench.hh"

namespace nbench {

/** The timed pass of the sweepd workload (end-to-end metrics). */
void runSweepdTimed(const RunOptions &options, Report &report);

/** The traced pass's service-layer probe (service.* metrics). */
void serviceProbe(const RunOptions &options, Report &report,
                  Tracer &tracer);

} // namespace nbench

#endif // NUCA_BENCHMARK_SWEEPD_LOAD_HH
