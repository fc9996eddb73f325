/**
 * @file
 * The paper's sweep figures as data. Each entry names a figure, its
 * default window and mix count, the job list it runs and the
 * reporter that prints its tables from the grouped results. A bench
 * binary's main is figureMain("<name>"); `nuca_subctl figures
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

/** One sweep figure. */
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

/** Every sweep figure, in the paper's order. */
const std::vector<Figure> &figures();

/** The figure called @p name, or nullptr. */
const Figure *findFigure(const std::string &name);

/** Print @p figure's header and tables from its settled jobs. */
void reportFigure(const Figure &figure, const FigureEnv &env,
                  const std::vector<SweepJob> &jobs,
                  std::vector<JobOutcome<MixResult>> outcomes);

/** A bench binary's main: read the environment, run the figure's
 *  jobs through runSweep, print its report. */
int figureMain(const std::string &name);

} // namespace bench
} // namespace nuca

#endif // NUCA_BENCH_FIGURES_HH
