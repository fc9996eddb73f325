/**
 * @file
 * The paper's tables and figures as data, and the only list of them.
 * Each entry names a figure, its default window and mix count, the
 * job list it runs (empty for Section 2.7's storage-cost arithmetic)
 * and the reporter that prints its tables from the grouped results.
 * `nuca_figures <name>` runs figureMain(name); `nuca_subctl figures
 * <name>` submits the same job list to nuca_sweepd and prints
 * through the same reporter, so both front ends print the same
 * tables for the same environment.
 */

#ifndef NUCA_BENCH_FIGURES_HH
#define NUCA_BENCH_FIGURES_HH

#include <string>
#include <vector>

#include "common.hh"

namespace nuca {
namespace bench {

/** What a figure reads from the environment, once, in its main. */
struct FigureEnv
{
    SimWindow window;
    unsigned mixes;
    /** Instructions per fig03 miss-curve replay. */
    std::uint64_t fig3Insts;
};

/** REPRO_WARMUP_CYCLES, REPRO_MEASURE_CYCLES, REPRO_MIXES and
 *  REPRO_FIG3_INSTS over the given defaults. */
FigureEnv figureEnvFromEnv(const SimWindow &window, unsigned mixes);

/** One table or figure of the paper. */
struct Figure
{
    const char *name;
    /** printHeader's first line; nullptr when the reporter prints
     *  its own header. */
    const char *title;
    SimWindow window;
    unsigned mixes;
    std::vector<SweepJob> (*jobs)(const FigureEnv &env);
    /** Print the tables; @p groups is groupResults of the jobs. */
    void (*report)(const FigureEnv &env,
                   const std::vector<SchemeResults> &groups);
};

/** Every figure, in the paper's order. */
const std::vector<Figure> &figures();

/** The figure called @p name, or nullptr. */
const Figure *findFigure(const std::string &name);

/** Every figure's name, in registry order, joined by '|': what both
 *  front ends print for a missing or unknown name. */
std::string figureNames();

/** Print @p figure's header and tables from its settled jobs. */
void reportFigure(const Figure &figure, const FigureEnv &env,
                  const std::vector<SweepJob> &jobs,
                  std::vector<JobOutcome<MixResult>> outcomes);

/** nuca_figures' main for the figure called @p name: read the
 *  environment, run the figure's jobs through runSweep, print its
 *  report. An empty or unknown @p name prints the usage line, with
 *  figureNames(), to stderr and returns 2. */
int figureMain(const std::string &name);

} // namespace bench
} // namespace nuca

#endif // NUCA_BENCH_FIGURES_HH
