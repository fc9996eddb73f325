/**
 * @file
 * nuca_figures <name>: run one table or figure of the figure registry
 * (bench/figures.cc), the same names `nuca_subctl figures` takes.
 * Without a name, or with one the registry lacks, it prints the
 * registry's names and exits 2.
 */

#include "figures.hh"
#include "service/job_runner.hh"

int
main(int argc, char **argv)
{
    // Under REPRO_ISOLATE=proc each job runs in a copy of this
    // program.
    if (nuca::service::spawnedAsRunner(argc, argv))
        return nuca::service::runJobMain();
    return nuca::bench::figureMain(argc == 2 ? argv[1] : "");
}
