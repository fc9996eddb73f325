/**
 * @file
 * The main of every sweep-figure binary: CMake compiles this file
 * once per figure with NUCA_FIGURE set to its figure-registry name
 * (bench/figures.cc), the same name `nuca_subctl figures` takes.
 */

#include "figures.hh"

int
main()
{
    return nuca::bench::figureMain(NUCA_FIGURE);
}
